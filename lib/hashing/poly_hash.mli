(** d-wise independent polynomial hash families (Definition A.1,
    Lemma A.2).

    A hash function is a uniformly random polynomial of degree [d - 1]
    over GF(2^61 - 1); evaluated at distinct points of the domain it is
    exactly [d]-wise independent.  Storage is [d] field elements, i.e.
    [O(d log(mn))] bits as in Lemma A.2.

    Two output conventions are provided:
    - {!hash} maps to a range [\[0, r)] by reducing the field value mod
      [r] (bias at most [r / p], negligible for the ranges used here);
    - {!keep} implements the "maps to one" idiom used by the paper's
      set/element sampling: an item survives with probability [1 / r]. *)

type t

val create : indep:int -> range:int -> seed:Splitmix.t -> t
(** [create ~indep ~range ~seed] draws a fresh function from the
    [indep]-wise independent family with outputs in [\[0, range)].
    [indep >= 1], [range >= 1]. *)

val hash : t -> int -> int
(** [hash t x] evaluates the polynomial at [x] and reduces to the range.
    [x] may be any non-negative int below 2^61 - 1. *)

val keep : t -> int -> bool
(** [keep t x] is [hash t x = 0]: true with probability [1 / range].
    This is the paper's "if h(S) = 1" subsampling test. *)

val hash_batch : t -> int array -> pos:int -> len:int -> int array -> unit
(** [hash_batch t xs ~pos ~len out] writes [hash t xs.(pos + j)] into
    [out.(j)] for [j < len] — coefficient-major Horner: the coefficient
    vector is streamed once with the whole block as the inner loop, so
    hashing a block of [len] distinct values costs [d] coefficient loads
    total rather than [d·len].  Outputs are bit-for-bit equal to
    per-call {!hash} (same arithmetic per element, different loop
    nesting).  Only [out.(0..len-1)] is written; [t] is never
    mutated. *)

val affine : int -> int -> int -> int
(** [affine a x b] is [a·x + b] in GF(p) for field elements [a] and [b]
    and any int key [x] (taken mod p): the degree-1 evaluation of
    {!Pairwise}.  A key in [\[0, 2^31)] takes the same two-product
    kernel as {!hash}'s Horner steps; the result is the canonical
    residue either way. *)

val range : t -> int
(** The output range [r]. *)

val indep : t -> int
(** The independence parameter [d]. *)

val words : t -> int
(** Number of 64-bit words of state (the coefficient vector), for space
    accounting. *)
