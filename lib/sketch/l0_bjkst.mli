(** BJKST distinct-element sketch (Bar-Yossef–Jayram–Kumar–Sivakumar–
    Trevisan [11], algorithm 2).

    Maintains a level [z] and a buffer of fingerprints of elements whose
    hash has at least [z] trailing zero bits; when the buffer overflows
    the level is raised and the buffer pruned.  The estimate is
    [|buffer| · 2^z].  With buffer capacity Θ(1/ε²) this gives the
    (1 ± ε)-approximation of Theorem 2.12 in Õ(1) space.

    This is the default L0 estimator used by [LargeCommon] (Figure 3)
    and the L0 fallback of [LargeSetComplete] (Figure 6). *)

type t

val create : ?cap:int -> seed:Mkc_hashing.Splitmix.t -> unit -> t
(** Default [cap] = 96 (ε ≈ 1/4 in practice; Theorem 2.12 only needs
    ε = 1/2). *)

val add : t -> int -> unit

val trailing_zeros : int64 -> int
(** Count of trailing zero bits (64 for zero) — branch-free de Bruijn
    lookup over native-int halves, no per-bit loop.  Exposed for the
    test suite's comparison against the bit-by-bit reference. *)

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

val dump : t -> int * int * (int64 * int) list
(** [(z, prunes, entries)] — the canonical state: buffered fingerprints
    with their levels, sorted by unsigned fingerprint.  Two sketches
    over the same seed are behaviourally identical iff their dumps are
    equal; hashtable layout never leaks. *)

val load_state :
  t -> z:int -> prunes:int -> entries:(int64 * int) list -> (unit, string) result
(** Overlay a dumped state onto a freshly created sketch (same cap and
    seed).  Rejects out-of-range levels, overfull buffers and duplicate
    fingerprints by name. *)

val merge_into : dst:t -> t -> unit
(** Fold [src] into [dst].  Both must share cap and hash seed.  The
    sketch state is a pure function of the fingerprint set seen, so the
    merged state is bit-for-bit the single-stream state over the
    concatenated inputs.
    @raise Invalid_argument on cap mismatch. *)

(** Deletion-tolerant counting variant for turnstile streams.

    Same level/buffer mechanics as the set sketch above, but each
    buffered fingerprint carries the signed sum of its updates and
    leaves the buffer when that sum returns to zero — so
    insert-then-delete is bit-for-bit never-inserted on {!Turnstile.dump},
    and {!Turnstile.merge_into} is the pointwise signed-count sum
    (merging S(x) into S(−x) empties the sketch).  The level [z] never
    decreases, so after massive net deletion the estimate is
    conservative; the insertion-only regimes keep the set variant
    (whose checkpoint codec bytes this module deliberately does not
    touch). *)
module Turnstile : sig
  type t

  val create : ?cap:int -> seed:Mkc_hashing.Splitmix.t -> unit -> t

  val add : t -> ?delta:int -> int -> unit
  (** [add t x] inserts once; [add t ~delta:(-1) x] deletes once.
      Any non-zero [delta] is the signed multiplicity to apply. *)

  val estimate : t -> float
  (** [occupancy · 2^z] — the L0 (distinct live elements) estimate. *)

  val level : t -> int
  val occupancy : t -> int
  val prunes : t -> int
  val words : t -> int

  val dump : t -> int * int * (int64 * int * int) list
  (** [(z, prunes, entries)] with entries [(fp, level, signed count)]
      sorted by unsigned fingerprint — canonical, layout-free. *)

  val load_state :
    t ->
    z:int ->
    prunes:int ->
    entries:(int64 * int * int) list ->
    (unit, string) result
  (** Overlay a dumped state onto a fresh sketch (same cap and seed).
      Rejects out-of-range levels, overfull buffers, zero counts and
      duplicate fingerprints by name. *)

  val merge_into : dst:t -> t -> unit
  (** Pointwise signed-count sum at the adopted level; entries whose
      summed count cancels to zero drop out.
      @raise Invalid_argument on cap mismatch. *)
end
