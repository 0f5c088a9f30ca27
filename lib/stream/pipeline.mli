(** Drivers that push an edge stream through {!Sink}s.

    Two ways to drive a sink, observationally identical on any fixed
    set of sinks (same seeds ⇒ bit-for-bit the same results):

    - {!run_seq} — one edge at a time through {!Sink.S.feed}, the
      literal streaming model and the reference the equivalence suites
      compare against;
    - {!drive} — the one chunk loop, through {!Sink.S.feed_planned}
      ({!run} and {!feed_all_parallel} are one-line calls of it).  The
      stream is cut into windows of [chunk × slots] edges and one
      shared read-only {!Chunk_plan} is built per window.  With one
      slot the plan is built in place and every sink is fed on the
      calling domain.  With more, mutually independent sinks (e.g.
      {!Mkc_core.Estimate.shards}'s z-guess × repeat oracle instances)
      are bin-packed by cost over a persistent {!Pool} of OCaml 5
      domains; the coordinator builds each window's plan one window
      ahead of the workers, and each worker replays its sink group
      against it.  Between windows, with every worker quiescent, the
      coordinator runs the caller's [on_window] hook (space sampling,
      telemetry, progress) and any due checkpoint save.

    Determinism: every sink is owned by exactly one slot per window and
    sees the full stream in order (windows are barriered — workers are
    awaited before the next window is dispatched), and no mutable state
    is shared between sinks, so the final state of each sink — and
    hence any finalize result — is identical to {!run_seq}'s,
    regardless of slot count or how shards were packed.  Parallelism
    changes wall-clock only, never output.

    Observability: when {!Mkc_obs.Registry.enabled} is on, the chunk
    loop records a [pipeline.chunk] span per window, bumps the counters
    [pipeline.chunks], [pipeline.edges] (stream edges) and
    [pipeline.sink_feed_edges] (edges × sinks — the feed work actually
    done), and records each window's feed latency into the
    [pipeline.chunk_feed_ns] histogram (mergeable log-linear buckets;
    p50/p99 survive shard-merge).  A one-slot drive records nothing
    else, so every one-slot drive leaves identical [pipeline.*] keys.  A
    pooled drive additionally records one [pipeline.domain] span per
    slot per window, the gauges [pipeline.domain_busy_ns] (total busy
    ns) and [pipeline.domains], and the per-window histograms
    [pipeline.pool.plan_build_ns] (chunk-plan construction) and
    [pipeline.pool.queue_wait_ns] (dispatch → pick-up latency, the
    load-balance term).  With the registry disabled every instrument
    is a single load-and-branch. *)

val default_chunk : int
(** 65536 edges.  Chunks are the deduplication window of the hash
    engine: each distinct set id / element value in a chunk has its
    sampler and reduction hashes evaluated once and fanned out to all
    its edges, so larger chunks amortize more — 64k edges of a stream
    over m=4k sets turn ~16 per-edge hash evaluations into one.  The
    chunk buffer itself is a view into the stream (no copy); only the
    plan scratch (~6 words/edge) scales with the chunk. *)

val run_seq : ('s, 'r) Sink.sink -> 's -> Stream_source.t -> 'r
(** Feed edge-by-edge, then finalize.  The reference driver batched
    modes are tested against. *)

val run : ?chunk:int -> ('s, 'r) Sink.sink -> 's -> Stream_source.t -> 'r
(** One sink through the chunk loop at one slot, then finalize. *)

(** {1 The persistent worker-domain pool} *)

module Pool : sig
  (** A set of worker domains spawned once and reused across chunk
      windows (and across drives): the per-window cost is a mutex
      handshake per worker, not a [Domain.spawn]/[join] pair.  One
      coordinator slot (the calling domain) plus [domains - 1]
      workers, each with a single-slot ticket mailbox.

      A pool is owned by the domain that created it; only that domain
      may drive or shut it down. *)

  type t

  val create : ?domains:int -> unit -> t
  (** Spawn [domains - 1] worker domains (default
      [Domain.recommended_domain_count ()]; [domains <= 1] makes a
      worker-less pool that drives everything on the coordinator). *)

  val size : t -> int
  (** Slot count including the coordinator ([domains] as created). *)

  val shutdown : t -> unit
  (** Quiesce and join every worker.  Idempotent. *)

  val with_pool : ?domains:int -> (t -> 'a) -> 'a
  (** [create], run, then {!shutdown} (also on exceptions). *)

  (** Drive statistics, accumulated over the pool's lifetime.  Worker
      arrays are indexed by worker (slot - 1); busy/wait are cumulative
      per worker — they never reset between windows or drives. *)
  type stats = {
    domains : int;
    windows : int;  (** chunk windows dispatched *)
    plan_build_ns : int;  (** total plan-build time *)
    plan_overlap_ns : int;
        (** the part of [plan_build_ns] spent while workers were
            replaying the previous window — the pipelining win *)
    window_wall_ns : int;  (** wall time inside the window loops *)
    coord_busy_ns : int;  (** coordinator sink-feeding time *)
    worker_busy_ns : int array;
    worker_wait_ns : int array;  (** dispatch → pick-up queue latency *)
  }

  val stats : t -> stats
  (** Read at quiescence (between drives). *)
end

(** {1 The chunk loop} *)

val default_checkpoint_every : int
(** 8 windows between checkpoint saves. *)

type 's checkpoint = {
  codec : 's Checkpoint.codec;  (** kind and seed pinned on resume *)
  every : int;  (** windows between saves; must be >= 1 *)
  save : string option;  (** where to save, atomically *)
  resume : string option;  (** a checkpoint to restore and continue from *)
}
(** Crash tolerance for a drive, over the typed state ['s] its sinks
    were derived from. *)

val drive :
  ?pool:Pool.t ->
  ?domains:int ->
  ?costs:float array ->
  ?chunk:int ->
  ?start:int ->
  ?checkpoint:'s checkpoint * 's ->
  ?on_save:(bytes:int -> unit) ->
  ?on_window:(pos:int -> len:int -> unit) ->
  Sink.any array ->
  Stream_source.t ->
  (unit, Checkpoint.error) result
(** Drive the sinks through one pass of the chunk loop (all sinks see
    window [i] before any sees window [i+1]), from edge [start]
    (default 0).  Finalization is the caller's: packed sinks share
    state with the typed handles used to build them.

    The slot count is that of [pool] if given (with [domains] as an
    optional cap), else [domains] (default
    [Domain.recommended_domain_count ()]) in a transient pool, capped
    by the number of sinks.  With one slot no pool is used or spawned.
    With more, the sinks are bin-packed (LPT, slot 0 biased by the
    coordinator's plan-build work) across the slots; relative to one
    slot this pays the same one grouping pass over the stream but
    makes every per-distinct-id hash decision once per [slots]×-wider
    window.  [costs] (per-sink relative weights; default uniform)
    seeds the packing.  Requires the sinks to be pairwise independent
    — no shared mutable state — which holds for all shard arrays
    exposed by this library.  Raises [Invalid_argument] if [costs] and
    the sinks differ in length.

    [on_window ~pos ~len] runs on the calling domain after each window
    [\[pos, pos+len)] has been fed to every sink, while every worker is
    quiescent — so it may read any sink's state (e.g. a run's space
    sample, which walks the whole composite's [words_breakdown]).

    With [~checkpoint:(spec, state)], where the sinks read and write
    [state]: on [spec.resume], first load and fully validate the
    checkpoint (kind and seed pinned by the codec; any mismatch or
    corruption is a named {!Checkpoint.error}), overlay it on [state]
    in place, and continue from the checkpointed position instead of
    [start].  On [spec.save], atomically save [state] every
    [spec.every] windows — after [on_window] — and once at
    end-of-stream, so the final file feeds the shard-merge workflow;
    [on_save ~bytes] observes each save (e.g. a run putting the held
    checkpoint's words on its space books).  A failed save stops further
    saves; the drive finishes the stream and returns the error.

    Resuming with the same [chunk] and effective slot count re-windows
    the suffix on the same grid, so a resumed run matches the
    uninterrupted one bit for bit (results, [words] and every work
    counter; the [test_checkpoint] and [test_pool] differential
    harnesses enforce this).  Results also match {!run_seq} on any
    grid.  Without [checkpoint] the result is always [Ok ()]. *)

val feed_all_parallel :
  ?pool:Pool.t ->
  ?domains:int ->
  ?costs:float array ->
  ?chunk:int ->
  ?start:int ->
  Sink.any array ->
  Stream_source.t ->
  unit
(** {!drive} without a checkpoint or hooks. *)
