(** F2-HeavyHitter (Theorem 2.10): single-pass algorithm that, with high
    probability, returns every coordinate [i] with [a(i)² ≥ φ·F2(a)]
    together with a (1 ± 1/2)-approximation of [a(i)], in Õ(1/φ)
    space.

    Implementation: a {!Count_sketch} of width Θ(1/φ) for frequency
    estimates and the in-sketch F2 estimate, plus a candidate tracker
    of capacity Θ(1/φ): dense (id, count) entries with a linear-probe
    index over them, pruned back to the top-[cap] entries by an
    in-place linear-time select (any φ-heavy item occupies a constant
    fraction of the stream's L2 mass, so rescoring on each arrival
    keeps it in the tracker w.h.p.). *)

type t

type hit = { id : int; freq : float }
(** A reported coordinate with its approximate frequency. *)

val create :
  ?depth:int ->
  ?width_factor:int ->
  ?clamp:bool ->
  ?share:t ->
  phi:float ->
  seed:Mkc_hashing.Splitmix.t ->
  unit ->
  t
(** [create ~phi ~seed ()] targets φ-heavy hitters of F2.  CountSketch
    width is [width_factor / phi] (default factor 8, so per-row error ≤
    (1/√8)·√(φ F2) and the (1 ± 1/2) value guarantee holds w.h.p.).

    [clamp] (default true) caps each candidate's reported frequency by
    its exact since-insertion counter — sound for insertion-only
    streams and the fix for collision-inflated light candidates; set it
    to false to reproduce the unclamped textbook estimator (the E10
    ablation does).

    [share] hands the new sketch [share]'s candidate tracker instead of
    a fresh one; it must have the same φ (hence the same cap).  Only
    sketches fed the same update sequence may share one: their tables
    would be equal at every point anyway.  The sketches then see one
    tracked table, so a caller applies each tracked update, settle,
    load and merge once per tracker ({!add_tracked}, {!settle},
    {!load_tracked}, {!merge_into}), not once per sketch, while every
    read ({!dump}, {!candidates}, {!tracked}, {!prunes}, {!words})
    reports the shared table through each sketch's own CountSketch.
    @raise Invalid_argument when [share]'s cap differs. *)

val add : t -> int -> int -> unit
(** [add t i delta]. The heavy-hitter applications in this paper are
    insertion-only ([delta ≥ 1]).  Equivalent to [add_cs] followed by
    [add_tracked]. *)

val add_cs : t -> int -> int -> unit
(** The CountSketch half of an update alone.  Linear and commutative:
    updates to the same id may be aggregated ([add_cs t i (c·d)] ≡ c
    calls of [add_cs t i d]) and reordered across ids. *)

val add_tracked : t -> int -> int -> unit
(** The candidate-tracking half of an update alone (exact counters +
    SpaceSaving-style prune).  Order-sensitive: the prune keeps the
    current top candidates, so callers splitting updates must replay
    this half in original stream order. *)

val hits : t -> hit list
(** Candidates whose estimated frequency passes the φ·F̂2 test,
    sorted by decreasing frequency. *)

val candidates : t -> hit list
(** All tracked candidates with fresh estimates, no φ filter (used by
    callers that apply their own absolute thresholds, e.g. Figure 4's
    [thr1]/[thr2] tests). Sorted by decreasing frequency.  {!settle}s
    first. *)

val settle : t -> unit
(** Trim the tracker to its top [cap] candidates if it holds more — the
    one state change a {!candidates} or {!hits} read makes (it counts as
    a prune). *)

val f2_estimate : t -> float
val phi : t -> float

val tracked : t -> int
(** Candidates currently held by the exact-counter tracker. *)

val cap : t -> int
(** Tracker capacity: a prune fires only when more than [2 * cap]
    candidates are held, so a caller that can bound the distinct
    coordinates ever inserted by [2 * cap] knows pruning never
    triggers — and may then aggregate or reorder tracked updates
    freely (the final table is a pure per-coordinate sum). *)

val mem : t -> int -> bool
(** Whether a coordinate is currently tracked (one probe, no
    allocation). *)

val sketch : t -> Count_sketch.t
(** The CountSketch half itself (every sketch has its own, shared
    tracker or not): codecs read and write its counters in place. *)

val shares_tracker : t -> t -> bool
(** Whether two sketches hold one tracker object ({!create}'s
    [share]). *)

val counts : t -> (int * int) list
(** The tracked [(id, count)] pairs sorted by id — {!dump}'s middle
    part, without copying the CountSketch. *)

val prunes : t -> int
(** SpaceSaving-style prune passes so far (including the final
    trim {!candidates} performs) — a health gauge for the candidate
    table's capacity. *)

val words : t -> int

val dump : t -> int array array * (int * int) list * int
(** [(cs_rows, tracked_counts, prunes)] — canonical state: the
    CountSketch counter matrix plus the tracked [(id, count)] pairs
    sorted by id.  Layout-free: equal dumps ⇔ behaviourally identical
    sketches (same seed). *)

val load_state :
  t ->
  rows:int array array ->
  counts:(int * int) list ->
  prunes:int ->
  (unit, string) result
(** Overlay a dumped state onto a freshly created sketch (same phi,
    width and seed).  Rejects shape mismatches, overfull trackers and
    duplicate ids by name. *)

val load_tracked : t -> counts:(int * int) list -> prunes:int -> (unit, string) result
(** {!load_state}'s tracked half alone: overwrite the tracker with
    [counts] and [prunes], the CountSketch untouched.  Rejects
    overfull trackers, negative prune counts and duplicate ids by
    name. *)

val merge_into : dst:t -> t -> unit
(** Fold [src] into [dst] (same shape and seed): CountSketch counters
    add pointwise (linear), tracked counters sum per id in canonical id
    order, pruning as capacity demands; prune counters add.  Exact
    (bit-for-bit the single-stream state) whenever no prune has fired
    on either side.  @raise Invalid_argument on cap mismatch. *)
