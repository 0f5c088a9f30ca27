(** SmallSet (Figure 5): the element-sampling subroutine of the
    (α, δ, η)-oracle, covering case III — optimal solutions whose
    coverage is mostly carried by many small sets
    ([|C(OPT_large)| < |C(OPT)|/2], only possible when [sα < 2k]).

    Rationale (Section 4.3): subsampling sets at rate Θ̃(1/α) preserves
    a ([Θ̃(k/α)])-cover with an Ω̃(1/α) fraction of OPT's coverage
    (Lemma 4.16 / Corollary 4.19); element sampling at a rate tuned by
    the coverage-scale guess [γ_g] then preserves constant-factor
    approximability (Lemma 2.5) while the stored sub-instance [(L, M)]
    fits in Õ(m/α²) words (Lemmas 4.20–4.21).  The sub-instance is
    solved offline at the end of the pass with the greedy algorithm
    (the "O(1)-approximation" of the pseudocode) and the sampled
    coverage is scaled back by the reciprocal sampling rate.

    A guess is accepted only if greedy's sampled coverage is Ω̃(k/α)
    (Figure 5's final filter) — this is what keeps the oracle from
    overestimating (Lemma 4.23).

    The witness is greedy's chosen set ids: at most [⌈c·k/α⌉ ≤ k]
    original set ids, directly available. *)

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
(** Chunk-deduplicated ingestion: nested element-sampling decisions once
    per distinct element, set-sample membership once per distinct set,
    then an in-order replay of the chunk — stored-pair sequences (hence
    cap/termination points) are bit-for-bit the per-edge ones.
    [red.(j)] must hold the (reduced) element value of the plan's j-th
    distinct element. *)

val finalize : t -> Solution.outcome option
val words : t -> int

val words_breakdown : t -> (string * int) list
(** [("samplers", _); ("store", _)] — hash seeds vs the live stored
    sub-instances. *)

val stats : t -> (string * int) list
(** Work counters: ["elem_sampler_evals"] (nested element-sampler hash
    evaluations — per edge in per-edge mode, per distinct element per
    chunk in planned mode), ["set_sampler_evals"] (set-sample membership
    evaluations), ["pairs_stored"] (total (set, element) pairs ever
    stored — monotone, unlike {!stored_pairs}; identical across modes)
    and ["dead_instances"] (sub-instances that overflowed the Lemma 4.21
    cap and were terminated). *)

val stored_pairs : t -> int
(** Total (set, element) pairs currently stored across all live
    sub-instances — the quantity bounded by Lemma 4.21 (diagnostics for
    the fig5 bench). *)

val budget : t -> int
(** The cover budget [⌈36k/(sα)⌉-style] used on sub-instances. *)

val cap : t -> int
(** The per-instance stored-pair cap (Lemma 4.21's Õ(m/α²) instantiated
    with the profile's polylog). *)

val freeze : Mkc_sketch.Packed.writer -> t -> unit
(** Per sub-instance: pair count, death flag and the store in set-id
    order, member lists verbatim (latest-first) — the state
    {!merge_into} reads from a source.  The samplers are re-created
    from params + seed. *)

val thaw : Mkc_sketch.Packed.reader -> t -> unit
(** Overlay a {!freeze} state onto an instance of the same params and
    seed, zeroing its work counters: the result is a merge source.
    Set ids must lie in [\[0, m)], members in [\[0, u)], and each
    sub-instance must be consistent (non-empty lists, [pairs] counting
    them within the cap, nothing stored when dead). *)

val freeze_work : Mkc_sketch.Packed.writer -> t -> unit
(** The work counters — a checkpoint's tail. *)

val thaw_work : Mkc_sketch.Packed.reader -> t -> unit
(** Overlay a {!freeze_work} tail. *)

val merge_into : dst:t -> t -> unit
(** Fold a shard in, instance by instance: member lists concatenate
    (the shard fed the later stream suffix first), pair counts sum, and
    a summed count over the cap kills the instance exactly as the
    single-stream run would. *)
