(** Random partition of the set family into supersets (Section 4.2).

    A Θ(log mn)-wise independent hash [h : F → [q]] groups the [m] sets
    into [q ≈ m/w] supersets [D_i = {S : h(S) = i}]; w.h.p. no superset
    holds more than [w] sets (Claim 4.9) and, absent w-common elements,
    each element appears at most [f = Θ̃(1)] times inside a superset
    (Claim 4.10) — which is what lets LargeSet use total size as a
    coverage proxy.

    Only the hash seed is stored; the {e membership} of any superset is
    recomputable after the pass by scanning set ids, which is how the
    reporting algorithm materializes its witness in O(k) output space
    without a second pass over the data. *)

type t

val create : m:int -> q:int -> indep:int -> seed:Mkc_hashing.Splitmix.t -> t
val superset_of : t -> int -> int
(** The superset index of a set id, in [\[0, q)]. *)

val members : ?limit:int -> t -> int -> int list
(** All set ids hashed to the given superset, by scanning [\[0, m)];
    stops after [limit] ids when given. *)

val words : t -> int
