(** F2-Contributing (Theorem 2.11, after Indyk–Woodruff [29]).

    A class of coordinates [R_t = \{i : 2^(t-1) < a(i) ≤ 2^t\}] is
    γ-contributing when [|R_t| · 2^(2t) ≥ γ·F2(a)].  The algorithm of
    Section 2.2 finds, w.h.p., one coordinate from {e every}
    γ-contributing class: for each guess [n_t = 2^i] of the class size
    ([i ≤ log r]) it subsamples coordinates at rate ≈ [polylog / 2^i]
    with a Θ(log mn)-wise independent hash and runs an
    {!F2_heavy_hitter} on the surviving substream — once only polylog
    members of the class survive, each is an Ω̃(γ)-heavy hitter of the
    subsampled F2 (Lemma 2.9).  Reported values are (1 ± 1/2)-accurate.

    [r] bounds the class sizes searched; Figure 6 exploits this to keep
    supersets inflated by common elements out of the candidate set
    (Remark 4.12). *)

type t

type hit = { id : int; freq : float; level : int }
(** [level] is the size-guess index i (class size ≈ 2^i) whose
    substream surfaced the coordinate. *)

val create :
  ?depth:int ->
  ?oversample:float ->
  gamma:float ->
  r:int ->
  indep:int ->
  seed:Mkc_hashing.Splitmix.t ->
  unit ->
  t
(** [create ~gamma ~r ~indep ~seed ()] prepares [⌈log2 r⌉ + 1] parallel
    heavy-hitter instances.  [indep] is the independence of the
    coordinate-subsampling hashes (Θ(log mn) per the paper).
    [oversample] multiplies the survival rate (the paper's [12 log m];
    default 2.0 under the practical profile). *)

val add : t -> int -> int -> unit
(** [add t i delta]: feed an update for coordinate [i]; each level
    processes it iff [i] survives that level's subsampling. *)

val decide : t -> int -> int
(** The subsampling decision for coordinate [i] as a keep-level code
    ([-1] = survives no level): one hash evaluation, no allocation.
    [add t i d] applies [d] at the levels [decide t i] keeps, so a
    caller may decide once per distinct coordinate and replay the code
    across all of that coordinate's updates ({!add_cs_decided}). *)

val add_cs_decided : t -> code:int -> int -> int -> unit
(** Only the CountSketch halves of the surviving levels' updates —
    linear, so per-coordinate deltas may be aggregated per chunk. *)

val hits : t -> hit list
(** One or more candidates per level that passed the per-level φ-heavy
    test, deduplicated by coordinate (keeping the largest frequency
    estimate), sorted by decreasing frequency. *)

val candidates : t -> hit list
(** All tracked candidates across levels (no φ filter), deduplicated and
    sorted by decreasing frequency — callers apply absolute thresholds. *)

val settle : t -> unit
(** {!F2_heavy_hitter.settle} on every level: the state a {!candidates}
    read leaves behind. *)

val levels : t -> int

val level : t -> int -> F2_heavy_hitter.t
(** The heavy-hitter instance of one subsampling level.  A coordinate
    with keep-level code [c >= 0] updates levels [0 .. levels t - 1 - c];
    the levels share no state, so a chunk-planned driver may regroup
    tracked updates level-by-level (each level still replayed in stream
    order) and stay bit-for-bit with per-item {!add}.
    @raise Invalid_argument on an out-of-range level. *)

val tracked : t -> int
(** Total candidates currently tracked, summed across levels. *)

val prunes : t -> int
(** Total candidate-table prune passes, summed across levels. *)

val words : t -> int

val dump : t -> (int array array * (int * int) list * int) array
(** Per-level {!F2_heavy_hitter.dump}s, in level order. *)

val load_state :
  t -> (int array array * (int * int) list * int) array -> (unit, string) result
(** Overlay dumped per-level states onto a freshly created instance
    (same gamma/r/seed); errors name the offending level. *)

val merge_into : dst:t -> t -> unit
(** Merge level-by-level (the subsampling decision is seed-determined,
    so substreams partition consistently on both sides).
    @raise Invalid_argument on level-count mismatch. *)
