(** EstimateMaxCover (Figure 1, Theorems 3.1 and 3.6): the top-level
    single-pass α-approximate estimator of the optimal coverage size.

    - Trivial branch: when [kα ≥ m], return [n/α] — safe because any
      k-cover found by sampling k of m sets carries a ≥ k/m ≥ 1/α
      fraction of the total coverage in expectation.
    - Otherwise, for every guess [z ∈ {2^i}] of the optimal coverage
      size and [log(1/δ)] repeats, run an (α, δ, η)-oracle on the
      universe-reduced stream [(S, h_z(e))].  A guess is accepted when
      its best repeat's estimate reaches [z/(accept·α)]; the answer is
      the largest accepted estimate, which lies in
      [\[OPT/Õ(α), OPT\]] with probability ≥ 3/4 (Theorem 3.6).

    Space: Õ(1) instances of the oracle ⇒ Õ(m/α²) total.

    This module is also the reporting algorithm's engine: the winning
    oracle's witness ids (Theorem 3.2) are exposed through the outcome;
    {!Report} packages them. *)

type t

val create : Params.t -> t
val feed : t -> Mkc_stream.Edge.t -> unit

val feed_planned :
  t -> Mkc_stream.Chunk_plan.t -> Mkc_stream.Edge.t array -> pos:int -> len:int -> unit
(** Chunk-deduplicated ingestion (bit-for-bit ≡ {!feed}): instances are
    driven instance-outer over the shared plan; each instance hashes the
    chunk's distinct elements once (coefficient-major universe
    reduction), makes every sampler decision once per distinct set or
    element id, and replays the chunk in original edge order. *)

type result = {
  estimate : float;
  outcome : Solution.outcome option;
      (** the winning oracle outcome ([None] only on the trivial branch
          failure path — see {!finalize}) *)
  z_guess : int;  (** the accepted coverage guess (0 on the trivial branch) *)
}

val finalize : ?pool:Mkc_stream.Pipeline.Pool.t -> t -> result
(** Always returns a result: if no guess is accepted the estimate falls
    back to the largest (unaccepted) oracle estimate, and to 0.0 when
    every oracle reported infeasible.

    {!finalize_inst} on each (z, rep) instance — with [pool], spread
    over the pool's slots by {!Mkc_stream.Pipeline.Pool.parallel_for},
    else one after another on the calling domain — then {!select}.  So
    the result, {!winners}, {!stats} and the witness are the same with
    or without a pool, at any size. *)

val select : t -> Solution.outcome option array -> result
(** Theorem 3.6's selection over one outcome per instance
    (index-aligned with {!insts}): a guess is accepted when its
    instance's estimate reaches [z/(accept·α)], and the answer is the
    largest accepted estimate, else the largest unaccepted one, else
    0.0.  Ladder order decides ties.  Runs on the calling domain and
    records the verdicts on [t] ({!winners}, {!record_metrics}).  On
    the trivial branch [outs] is ignored.  Raises [Invalid_argument]
    when [outs] is not one outcome per instance. *)

val guesses : t -> int list
(** The z-guess ladder (diagnostics). *)

val words : t -> int

val words_breakdown : t -> (string * int) list
(** Words per component under canonical dot-namespaced keys
    ([universe_reduction], [oracle.large_common.l0], …; sorted,
    duplicates merged), summed over all parallel oracle instances. *)

val stats : t -> ((int * int) * (string * int) list) list
(** Per-(z-guess, repeat) oracle work counters
    ({!Oracle.stats}) — one entry per Figure 1 instance, in ladder
    order.  Empty on the trivial branch. *)

val stats_totals : t -> (string * int) list
(** {!stats} summed across all oracle instances, sorted by key — the
    sketch-health totals ({!Oracle.stats} keys like
    ["large_common.l0_occupancy"], ["large_set.f2_tracked"]) that
    {!record_metrics} turns into ratios and the telemetry probes
    sample mid-run.  Empty on the trivial branch. *)

val winners : t -> (string * int) list
(** Winner attribution, one vote per (z, rep) oracle instance: which
    subroutine ([large_common]/[large_set]/[small_set], or ["trivial"],
    or ["none"] when every subroutine reported infeasible) won that
    instance's oracle max (Figure 2).  Counts sum to the number of
    oracle instances (1 on the trivial branch); sorted by key; empty
    before {!finalize}. *)

val word_budget : Params.t -> int
(** The theoretical space budget in words — Theorems 3.1/3.3's
    [Õ(m/α²)] with explicit constants:
    [instances · log²(mn) · (c_mass · m/α² + c_floor)], where
    [instances] is the z-ladder × repeats fan-out ([4k] on the trivial
    branch).  Feed it to {!Mkc_sketch.Space.Budget} to watchdog a
    run.  It bounds one estimator: a {!Windowed} ring's held frozen
    epochs are each one estimator's state besides. *)

val record_metrics : ?registry:Mkc_obs.Registry.t -> t -> unit
(** Publish {!stats} into a metric registry (default
    {!Mkc_obs.Registry.global}): each counter is added both to the
    aggregate [estimate.oracle.<stat>] and to the per-instance
    [estimate.z<z>.rep<r>.<stat>].  Also publishes winner-attribution
    counters ([estimate.winner.<subroutine>]), per-guess acceptance
    outcomes ([estimate.z<z>.accepted]/[.rejected] and the
    [estimate.guess.*] totals), and sketch-health ratio gauges
    ([estimate.quality.memo.hit_ratio],
    [estimate.quality.f2.hh_recovery_rate]).  A no-op while
    {!Mkc_obs.Registry.enabled} is off.  Call after {!finalize} so
    finalize-time counters (heavy-hitter recoveries, winners) are
    included. *)

val merge_into : dst:t -> t -> unit
(** Fold a shard's oracle states in, instance by instance; raises
    [Invalid_argument] on a shape mismatch. *)

val ckpt_kind : string
(** The {!Mkc_stream.Checkpoint} kind tag, ["estimate"]. *)

val codec : Params.t -> t Mkc_stream.Checkpoint.codec
(** Checkpoint codec (kind {!ckpt_kind}, seed [base_seed]) for
    {!Mkc_stream.Pipeline.drive}'s checkpoints.  The payload is the params
    ({!Params.put}), the unsettled state in the {!freeze_inst} layout, then a
    work tail (per-layer counters and the LargeCommon memo keys), so a
    resumed run's answer, words and work counters equal the
    uninterrupted run's.  [restore] rejects a payload whose params
    describe a different instance ({!Params.same_instance}) and any
    malformed state.  [encode] packs every save into one writer the
    codec owns, so a codec encodes on one domain at a time. *)

val check_ceiling : Params.t -> (unit, string) Stdlib.result
(** [Error] naming the params when the instance {!create} would build
    takes over 2^28 words: its sketch budget ({!word_budget}) or
    LargeSet's O(m log m) per-instance tables, whichever is larger.
    {!decode} and the CLI refuse such params before allocating. *)

val decode : string -> (t, string) Stdlib.result
(** Rebuild an estimator from a bare {!codec} payload: decode the
    embedded params, {!create}, then overlay the state.  Checkpoint
    files are self-describing — the merge/validate CLI needs no
    instance flags.  The params are validated ({!Params.make}) and
    capped by {!check_ceiling} before anything is allocated. *)

val params : t -> Params.t

val sink : (t, result) Mkc_stream.Sink.sink
(** The whole estimator as a single {!Mkc_stream.Sink}, for one-slot
    {!Mkc_stream.Pipeline} drives. *)

(** {1 The (z, rep) instance}

    Figure 1's instances are independent until {!select}: each can be
    fed, frozen, thawed, merged and finalized on its own, on any
    domain, one domain per instance at a time. *)

type inst
(** One (z-guess, repeat) oracle instance with its universe reduction. *)

val insts : t -> inst array
(** The instances, in ladder order; empty on the trivial branch.  They
    are the estimator's own, not copies. *)

val fresh_inst : t -> int -> inst
(** A new instance built as {!create} builds instance [i] (same seeds),
    holding no edges. *)

val of_insts : t -> inst array -> t
(** An estimator of [t]'s params over the given instances
    (index-aligned with {!insts}), with no verdicts: e.g. a merged
    window's instances, finalized one by one and then {!select}ed.  On
    the trivial branch the instances are ignored.  Raises
    [Invalid_argument] on a length mismatch. *)

val inst_sink : (inst, unit) Mkc_stream.Sink.sink
(** One instance as a sink: what {!shards} packs.  Its [finalize] does
    nothing; {!finalize_inst} is the instance's finalize. *)

val finalize_inst : inst -> Solution.outcome option
(** The instance's {!Oracle.finalize}.  With the registry or the trace
    on, it records one [estimate.finalize_inst] span on the domain that
    ran it. *)

val freeze_inst : Mkc_sketch.Packed.writer -> inst -> string
(** Settle the F2 trackers as {!finalize_inst} leaves them, then pack
    the instance's mergeable state (pending CountSketch deltas flushed)
    into the writer (reset first) and copy it out: the same bytes
    whether or not the instance was finalized first, and with no params,
    samplers, memos, scratch or work counters.  For a finished state
    only: a settle counts as a prune.  One writer kept across freezes
    grows to the largest state only once.  The instances' states, in
    ladder order, are the state layout of a checkpoint payload. *)

val thaw_inst : into:inst -> string -> (unit, string) Stdlib.result
(** Overlay a {!freeze_inst} state onto [into], which must be the same
    instance of the same params.  Work counters and finalize-time
    records (heavy-hitter recoveries) read empty afterwards, while
    memos and scratch (pure functions of the seeds) stay warm: [into]
    is a merge source for {!merge_inst}, one scratch instance can be
    thawed into again and again, and thawing a frozen fresh instance
    resets [into] to a fresh one.  A malformed state is an [Error] (and
    leaves [into] partly overwritten). *)

val merge_inst : dst:inst -> inst -> unit
(** Fold one instance's state into the same instance of another
    estimator, as {!merge_into} does for each. *)

val shards : t -> Mkc_stream.Sink.any array
(** The z-ladder × repeats fan-out as a data-driven array of mutually
    independent sinks — the estimator's own (guess, repeat) oracle
    instances, which {!feed} and {!feed_planned} drive one after
    another.
    Driving every shard over the full stream (in any interleaving, e.g.
    {!Mkc_stream.Pipeline.drive}) leaves this estimator in exactly the
    state of edge-by-edge {!feed}; then {!finalize} as usual.  Empty on
    the trivial branch, which ignores the stream. *)

val shard_costs : t -> float array
(** Relative per-edge feed costs, index-aligned with {!shards}: unit
    weights, since every instance runs the same subroutine mix (the
    regime split depends only on the shared [s] and [alpha]).  For
    {!Mkc_stream.Pipeline.drive}'s [costs]; empty on the trivial
    branch. *)
