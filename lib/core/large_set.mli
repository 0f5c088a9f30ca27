(** LargeSet (Figures 4, 6 and 7): the heavy-hitter subroutine of the
    (α, δ, η)-oracle, covering case II — an optimal solution whose
    coverage is mostly carried by OPT_large, the sets contributing at
    least [z/(sα)] each (Definition 4.2).

    Pipeline per parallel repeat (Figure 7 runs O(log n) repeats so that
    at least one element sample avoids all w-common elements, App. B):

    + sample elements [L ⊆ U] at rate [ρ = t·s·α·η/|U|] (Step 1 of
      App. B);
    + hash sets into [q ≈ m/w] supersets of at most [w] sets each
      (Claim 4.9) — the coordinate vector is
      [v(i) = Σ_{S ∈ D_i} |S ∩ L|];
    + hunt a superset from a contributing class with two
      F2-Contributing instances — [Cntr_small] with
      [φ₁ = Ω̃(α²/m)] over classes of size ≤ [r₁ = s_L·α] (Case 1,
      Claim 4.11) and [Cntr_large] with [φ₂ = Ω̃(1)] over classes of
      size ≤ [r₂] (Case 2, Claim 4.13);
    + for contributing classes larger than [r₂], fall back to L0
      sketches on ~[q/r₂] directly sampled supersets (Figure 6, Case 2
      branch 2).

    A candidate superset's frequency estimate [ṽ] passes at threshold
    [thr₁/2] (resp. [thr₂/2]) and yields the estimate [2ṽ/(3f)] — the
    [f = Θ̃(1)] divisor discounts within-superset duplication of
    non-common elements (Claim 4.10) — scaled back to the full universe
    by [1/ρ].  Space Õ(m/α²) (Lemma B.7).

    The witness is [{S : h(S) = i*}] for the winning superset [i*]: at
    most [w ≤ k] sets, enumerable from the stored hash seed. *)

type t

val create : Params.t -> w:int -> seed:Mkc_hashing.Splitmix.t -> t
(** [w] is the superset size bound — Figure 2 passes [k] when
    [sα ≥ 2k] and [α] otherwise. *)

val feed : t -> Mkc_stream.Edge.t -> unit

val feed_planned :
  t ->
  Mkc_stream.Chunk_plan.t ->
  red:int array ->
  Mkc_stream.Edge.t array ->
  pos:int ->
  len:int ->
  unit
(** Chunk-deduplicated ingestion: per repeat, every hash decision
    (element-sample membership, superset assignment, both F2C
    subsampling codes, fallback superset sampling) is evaluated once per
    distinct id of the plan via coefficient-major batched hashing, then
    the chunk replays in original edge order — fallback L0 per edge,
    F2C candidate tracking per edge or, when its tracker provably
    cannot prune in this chunk, as one chunk total per superset, linear
    CountSketch halves as one aggregated delta per distinct set.
    Bit-for-bit equivalent to {!feed}.  [red.(j)] must hold the
    (reduced) element value of the plan's j-th distinct element. *)

val finalize : t -> Solution.outcome option
val words : t -> int

val words_breakdown : t -> (string * int) list
(** [("sampler", _); ("partition", _); ("f2_contributing", _);
    ("l0_fallback", _)] — summed over repeats. *)

val stats : t -> (string * int) list
(** Work counters: ["elem_sampler_evals"] (element-sample membership
    hash evaluations — per edge in per-edge mode, per distinct element
    per chunk in planned mode), ["fallback_sampler_evals"] (fallback
    superset-sampling evaluations — per in-sample edge vs per distinct
    set), ["f2_updates"] (logical F2-Contributing point updates,
    identical across modes), ["l0_updates"] (fallback L0 sketch updates,
    identical across modes) and ["hh_recoveries"] (candidate supersets
    recovered at finalize — the heavy hitters of Theorem 2.11's recovery
    step; populated by {!finalize}). *)

val thresholds : t -> float * float
(** [(thr1, thr2)] on the sampled-universe scale (diagnostics). *)

val settle : t -> unit
(** Flush pending deltas and trim both counters' trackers
    ({!Mkc_sketch.F2_contributing.settle}) as {!finalize} leaves them.
    A settle counts as a prune, so only a final state settles. *)

val freeze : Mkc_sketch.Packed.writer -> t -> unit
(** Per repeat: both F2-Contributing counters (pending deltas flushed)
    and the fallback L0 table in superset-id order — the state
    {!merge_into} reads from a source.  Samplers and partitions are
    re-created from params + seed. *)

val thaw : Mkc_sketch.Packed.reader -> t -> unit
(** Overlay a {!freeze} state onto an instance of the same params, [w]
    and seed, zeroing its work counters: the result is a merge source.
    Fallback sketches are re-created with their superset-id-derived
    seeds, so they hash identically; tracked and fallback ids must be
    superset ids. *)

val freeze_work : Mkc_sketch.Packed.writer -> t -> unit
(** The work counters — a checkpoint's tail. *)

val thaw_work : Mkc_sketch.Packed.reader -> t -> unit
(** Overlay a {!freeze_work} tail. *)

val merge_into : dst:t -> t -> unit
(** Fold a shard in, repeat by repeat: F2-Contributing levels merge via
    their linear CountSketch halves + summed trackers, fallback L0s
    union exactly (same sid-derived seeds), work counters sum. *)
