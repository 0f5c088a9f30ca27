(** The classic greedy algorithm for Max k-Cover (Nemhauser–Wolsey–
    Fisher [35]): repeatedly pick the set with the largest marginal
    coverage.  Guarantees a (1 − 1/e)-fraction of the optimum — i.e.
    approximation factor 1/(1 − 1/e) ≈ 1.582, tight under P ≠ NP
    (Feige [23]).

    This is the full-memory baseline of Table 1 and the offline solver
    invoked by [SmallSet] (Figure 5) on its stored sub-instance.  The
    implementation is lazy greedy (Minoux): marginal gains are
    submodular hence non-increasing, so stale priority-queue entries
    are re-evaluated only when they surface.  There is one
    implementation, {!run_csr}, over flat arrays: a bitmap of covered
    elements and a max-heap of gains in two int arrays.  Ties between
    equal gains break by heap position, which depends only on the
    candidate order; a member listed twice in one set counts twice. *)

type result = { chosen : int list; coverage : int }
(** [chosen] in pick order; [coverage] = |C(chosen)| (members listed
    more than once in a picked set counted with multiplicity). *)

val run_csr :
  n:int -> ids:int array -> off:int array -> elts:int array -> k:int -> result
(** Greedy over candidates in compressed-row form: candidate [i] is set
    [ids.(i)] with members [elts.(off.(i))] .. [elts.(off.(i+1) - 1)]
    ([off] needs at least [Array.length ids + 1] entries, monotone
    inside [elts]).  Members are non-negative ints, normally below [n];
    the bitmap grows to cover any larger one.  [chosen] holds ids. *)

val run : Mkc_stream.Set_system.t -> k:int -> result

val run_on_subsets :
  n:int -> sets:(int * int array) list -> k:int -> result
(** Greedy over an explicit list of [(set id, member elements)] pairs,
    in that candidate order.  Elements may be any non-negative ints
    below [n]. *)
