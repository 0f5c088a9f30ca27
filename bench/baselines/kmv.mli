(** K-Minimum-Values distinct-element sketch (Bar-Yossef et al. [11]).

    Keeps the [cap] smallest hash values (as points in the unit
    interval) seen so far; the number of distinct elements is estimated
    as [(cap - 1) / max kept value].  With [cap = Θ(1/ε²)] the estimate
    is a (1 ± ε)-approximation w.h.p. — the paper's Theorem 2.12 only
    needs ε = 1/2, so the default capacity is tiny and the sketch is
    genuinely Õ(1) space.

    One of three interchangeable L0 estimators (with {!Mkc_sketch.L0_bjkst} and
    {!Hyperloglog}); experiment E10 compares them. *)

type t

val create : ?cap:int -> seed:Mkc_hashing.Splitmix.t -> unit -> t
(** Default [cap] is 64 (ε ≈ 1/4 empirically). *)

val add : t -> int -> unit
val estimate : t -> float
val merge : t -> t -> t
(** Sketches must share the same hash function (i.e. be {!copy}s or fed
    from the same [create]d ancestor); raises [Invalid_argument]
    otherwise. *)

val copy : t -> t
(** Fresh empty sketch sharing the hash function of [t] (mergeable). *)

val words : t -> int
