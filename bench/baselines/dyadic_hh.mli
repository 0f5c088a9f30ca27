(** Dyadic-search F2 heavy hitters — an alternative realization of
    Theorem 2.10's primitive, after the hierarchical search of
    Cormode–Muthukrishnan and the CountSketch paper [18].

    One CountSketch per level of a dyadic decomposition of [\[0, 2^bits)]:
    level [ℓ] sketches the frequency vector aggregated over dyadic
    intervals of length [2^(bits-ℓ)].  At query time, heavy intervals
    are refined level by level, so heavy coordinates are {e identified}
    without tracking candidate ids during the pass — the trade-off
    against {!Mkc_sketch.F2_heavy_hitter}'s tracker is [bits]× more sketch space
    but zero per-update candidate bookkeeping and no reliance on
    re-occurrence of heavy items.  Experiment E10 ablates the two.

    Insertion-only or turnstile streams both work (the search itself is
    oblivious to deletions). *)

type t

type hit = { id : int; freq : float }

val create :
  ?depth:int -> ?width_factor:int -> bits:int -> phi:float -> seed:Mkc_hashing.Splitmix.t -> unit -> t
(** [create ~bits ~phi ~seed ()] sketches a universe of [2^bits]
    coordinates for φ-heavy-hitter queries. [1 <= bits <= 30]. *)

val add : t -> int -> int -> unit
(** [add t i delta]; [i] must be below [2^bits]. *)

val hits : t -> hit list
(** All coordinates whose estimated frequency passes the [√(φ·F̂2)]
    test, found by dyadic refinement; values are CountSketch estimates
    at the leaf level. Sorted by decreasing frequency. *)

val words : t -> int
