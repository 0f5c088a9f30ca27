(** BJKST distinct-element sketch (Bar-Yossef–Jayram–Kumar–Sivakumar–
    Trevisan [11], algorithm 2).

    Maintains a level [z] and a buffer of fingerprints of elements whose
    hash has at least [z] trailing zero bits; when the buffer overflows
    the level is raised and the buffer pruned.  The estimate is
    [|buffer| · 2^z].  With buffer capacity Θ(1/ε²) this gives the
    (1 ± ε)-approximation of Theorem 2.12 in Õ(1) space.

    Each sketch owns one 4-wise independent {!Mkc_hashing.Poly_hash}
    over GF(2^61 - 1): a key's field value is its fingerprint, and the
    fingerprint's trailing-zero count is its level.  The state is the
    fingerprint buffer, the hash's coefficients and two counters.

    This is the default L0 estimator used by [LargeCommon] (Figure 3)
    and the L0 fallback of [LargeSetComplete] (Figure 6). *)

type t

val create : ?cap:int -> seed:Mkc_hashing.Splitmix.t -> unit -> t
(** Default [cap] = 96 (ε ≈ 1/4 in practice; Theorem 2.12 only needs
    ε = 1/2). *)

val add : t -> int -> unit

val trailing_zeros : int -> int
(** Count of trailing zero bits ([Sys.int_size] for zero): the level of
    a fingerprint.  Branch-free de Bruijn lookup over 32-bit halves, no
    per-bit loop.  Exposed for the test suite's comparison against the
    bit-by-bit reference. *)

val estimate : t -> float
val level : t -> int
(** Current sampling level [z] (diagnostic). *)

val occupancy : t -> int
(** Fingerprints currently buffered (≤ [cap] between updates). *)

val prunes : t -> int
(** Level raises performed so far — each one halves the expected
    buffer.  A health gauge: runaway pruning means the buffer capacity
    is too small for the distinct-element load. *)

val words : t -> int

val dump : t -> int * int * int list
(** [(z, prunes, entries)] — the canonical state: buffered fingerprints
    in ascending order.  Two sketches over the same seed are
    behaviourally identical iff their dumps are equal; table layout
    never leaks. *)

val load_state : t -> z:int -> prunes:int -> entries:int list -> (unit, string) result
(** Overlay a dumped state onto a sketch of the same cap and seed.
    Rejects by name a level or prune count out of range, more than
    [cap] entries, a fingerprint outside [\[0, 2^61 - 1)], a
    fingerprint below level [z], and a duplicate fingerprint. *)

val merge_into : dst:t -> t -> unit
(** Fold [src] into [dst].  Both must share cap and hash seed.  The
    sketch state is a pure function of the fingerprint set seen, so the
    merged state is bit-for-bit the single-stream state over the
    concatenated inputs.
    @raise Invalid_argument on cap mismatch. *)
