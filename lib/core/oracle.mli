(** The (α, δ, η)-oracle for Max k-Cover (Definition 3.4, Figure 2,
    Theorem 4.1).

    Runs in parallel, in one pass over the edge stream:
    - {!Large_common} (always) — case I;
    - {!Large_set} with [w = k] when [sα ≥ 2k] (then OPT_large carries
      half the optimum unconditionally, Claim 4.3), else with [w = α] —
      case II;
    - {!Small_set} only when [sα < 2k] — case III.

    [finalize] returns the subroutine outcome with the largest estimate.
    Contract (Definition 3.4): with probability ≥ 1 − δ the returned
    value is at least [OPT/Õ(α)] whenever [OPT ≥ |U|/η], and w.h.p. it
    never exceeds OPT.  Total space Õ(m/α²). *)

type t

val create : Params.t -> seed:Mkc_hashing.Splitmix.t -> t
val feed : t -> Mkc_stream.Edge.t -> unit

val feed_planned :
  t ->
  Mkc_stream.Chunk_plan.t ->
  red:int array ->
  Mkc_stream.Edge.t array ->
  pos:int ->
  len:int ->
  unit
(** Chunk-deduplicated ingestion (bit-for-bit ≡ {!feed}): each
    subroutine makes its hash decisions once per distinct set/element id
    of the plan and replays the chunk in edge order.  [red.(j)] is the
    (universe-reduced) element value of the plan's j-th distinct raw
    element — {!Estimate} fills it with one batched hash pass per
    instance; standalone oracle sinks pass the identity table. *)

val finalize : t -> Solution.outcome option
(** [None] ⇔ every subroutine reported infeasible. *)

val finalize_all : t -> Solution.outcome option list
(** Per-subroutine outcomes [\[large_common; large_set; small_set?\]] —
    the fig2 bench uses this to build the regime/winner matrix. *)

val cost_hint : t -> float
(** Static relative per-edge feed cost of this oracle's subroutine mix
    (units: one Large_common feed ≈ 1.0), from the profiled planned-path
    ns/edge ratios.  Seeds the pool scheduler's cost-aware bin packing;
    refined online from measured busy-ns in adaptive mode. *)

val words : t -> int

val words_breakdown : t -> (string * int) list
(** Per-subroutine word counts under canonical dot-namespaced keys
    ([oracle.large_common.l0], [oracle.large_set.f2_contributing], …;
    sorted, duplicates merged) — the E1 bench uses this to separate the
    α-dependent Õ(m/α²) mass from the Ω̃(1) floor.  In the heavy regime
    the absent subroutine appears as [("oracle.small_set", 0)]. *)

val stats : t -> (string * int) list
(** Work counters, dot-namespaced like {!words_breakdown}: ["edges"]
    consumed; ["sampler_evals"] — the headline decision count, actual
    set-sampling hash evaluations (LargeCommon memo misses, O(distinct
    set ids) under chunked ingestion, not O(edges)); plus each
    subroutine's {e stats} list ([oracle] prefix omitted — keys are
    [large_common.sampler_evals], [large_set.hh_recoveries], …).
    ["large_set.hh_recoveries"] is only populated by [finalize]. *)

val sink : (t, Solution.outcome option) Mkc_stream.Sink.sink
(** The oracle as a {!Mkc_stream.Sink} (one z-guess instance of the
    {!Estimate} fan-out, or standalone). *)

val settle : t -> unit
(** {!Large_set.settle}: trim the F2 trackers as {!finalize} leaves
    them.  Counts as a prune, so only a final state settles. *)

val freeze : Mkc_sketch.Packed.writer -> t -> unit
(** The subroutines' {!Large_common.freeze}, {!Large_set.freeze} and
    (outside the heavy regime) {!Small_set.freeze} states, in that
    order.  The params decide the regime, so the state carries no
    tag for it. *)

val thaw : Mkc_sketch.Packed.reader -> t -> unit
(** Overlay a {!freeze} state onto an oracle of the same params and
    seed, zeroing its work counters: the result is a merge source. *)

val freeze_work : Mkc_sketch.Packed.writer -> t -> unit
(** The edge counter and the subroutines' [freeze_work] tails, in
    {!freeze} order. *)

val thaw_work : Mkc_sketch.Packed.reader -> t -> unit
(** Overlay a {!freeze_work} tail. *)

val merge_into : dst:t -> t -> unit
(** Fold a shard's subroutine states in; raises [Invalid_argument] on a
    regime mismatch. *)
