(** The one streaming interface every single-pass consumer implements.

    A sink is created fully parameterized (all randomness fixed by
    seeds), then driven through the edge stream and finally collapsed
    into its result ({!S.finalize}).  It has two entry points:

    - {!S.feed} — one edge at a time.  This is the paper's algorithm as
      stated (Figures 3–5), kept as the readable spec that the
      equivalence suites check every other drive against;
    - {!S.feed_planned} — one chunk at a time, with a {!Chunk_plan}
      (the chunk's distinct ids and per-edge indices) built once by the
      driver and shared by every sink it drives.  This is the only path
      production drivers ({!Pipeline}) use.

    The two are REQUIRED to be observationally equivalent: for any split
    of the stream into chunks, [feed_planned] must leave the sink in
    exactly the state that edge-by-edge [feed] would.

    Implementations live next to their algorithms (e.g.
    {!Mkc_core.Estimate.sink}); this module only fixes the shape and
    provides the packing/adaptation glue and the space observer:

    - [('s, 'r) sink] — a first-class module pairing a state type with
      its result type;
    - {!any} / {!Any} — the existential packing used to drive a
      heterogeneous fleet of sinks over one stream (the unit of
      scheduling for {!Pipeline.drive});
    - {!Observed} — the space observer a drive samples between windows;
    - {!Set_arrival} — an adapter running a set-arrival algorithm
      (consume whole sets) on an edge stream whose edges arrive grouped
      by set (the canonical set-major order). *)

module type S = sig
  type t
  type result

  val feed : t -> Edge.t -> unit
  (** Consume one edge — the spec. *)

  val feed_planned : t -> Chunk_plan.t -> Edge.t array -> pos:int -> len:int -> unit
  (** Consume [edges.(pos .. pos+len-1)] in order, given a {!Chunk_plan}
      built over exactly that slice.  Must be equivalent to [len]
      successive {!feed} calls: implementations decide once per distinct
      id and restructure the work (instance-outer loops, batched sketch
      updates) but never reorder updates to any single structure.
      Sinks with no deduplicated path ignore the plan and loop. *)

  val finalize : t -> result
  (** Collapse the sink.  Sinks are single-shot: feeding after
      [finalize] is unspecified. *)

  val words : t -> int
  (** Retained 64-bit words (the space accounting of the paper). *)

  val words_breakdown : t -> (string * int) list
  (** [words] split by component, for the space experiments. *)
end

type ('s, 'r) sink = (module S with type t = 's and type result = 'r)
(** A sink implementation as a first-class module: ['s] is the mutable
    state, ['r] the finalize result. *)

type any = Any : ('s, 'r) sink * 's -> any
(** A sink with its result type hidden — the driveable unit.  Callers
    that packed the sink keep the typed state and finalize through it
    after driving. *)

val pack : ('s, 'r) sink -> 's -> any

(** Operations on packed sinks. *)
module Any : sig
  val feed : any -> Edge.t -> unit

  val feed_planned :
    any -> Chunk_plan.t -> Edge.t array -> pos:int -> len:int -> unit

  val words : any -> int
  val words_breakdown : any -> (string * int) list
end

val canonical_breakdown : (string * int) list -> (string * int) list
(** Canonicalize a {!S.words_breakdown}: duplicate keys merged by sum,
    result sorted by key.  Keys are dot-namespaced by convention
    (["oracle.large_common.l0"]), so the sorted list reads as a tree. *)

val prefix_breakdown : string -> (string * int) list -> (string * int) list
(** [prefix_breakdown p kvs] prepends [p ^ "."] to every key — how a
    composite sink namespaces the breakdowns of its children. *)

(** The space observer of one drive.  It wraps nothing: the drive
    calls {!window} from its between-windows hook
    ({!Pipeline.drive}'s [on_window]) and {!sample} once after
    finalize, and each sample reads the observed sink's
    [words_breakdown] into a {!Mkc_obs.Space_profile} — so the
    profile's final point equals the finalized sink's
    [words_breakdown] exactly, and observing cannot change what the
    sink computes.  Each sample is also fed to the optional
    {!Mkc_sketch.Space.Budget} watchdog (which may raise on overshoot
    in strict mode) and, when tracing is on, emitted as a
    ["space.words"] counter track.  With a pooled drive the observed
    sink is the whole composite (e.g. [pack Estimate.sink est], not its
    shards); between windows every worker is quiescent, so reading it
    is safe. *)
module Observed : sig
  type t

  val default_cadence : int
  (** 65536 edges between samples. *)

  val create : ?cadence:int -> ?budget:Mkc_sketch.Space.Budget.t -> any -> t
  (** Observe a packed sink.  Raises [Invalid_argument] if
      [cadence < 1]. *)

  val window : t -> len:int -> unit
  (** The drive fed another [len] edges: sample if the edges fed so
      far cross the cadence grid — at most one sample per window,
      realigned to the grid, so an oversized window does not trigger a
      burst.  At one slot a window is one {!S.feed_planned} call. *)

  val sample : t -> unit
  (** Record a sample now — after finalize, for the final point. *)

  val profile : t -> Mkc_obs.Space_profile.t

  val words_breakdown : t -> (string * int) list
  (** Canonicalized observed breakdown: the sink's breakdown plus the
      ["checkpoint"] key when checkpoint words are held.  Its sum is
      what each profile sample and budget check sees. *)

  val sampled_breakdown : t -> (string * int) list
  (** The breakdown the most recent sample recorded — the walk (and
      deferred-accumulator flush) that sample already paid for.  Inside
      a {!set_on_sample} callback this equals {!words_breakdown} at
      zero cost; the telemetry probes read it so a cadence sample walks
      the sketches exactly once.  Before the first sample it falls back
      to a fresh {!words_breakdown}. *)

  val note_checkpoint : t -> words:int -> unit
  (** Record the size of the most recent serialized checkpoint.  The
      words appear under a ["checkpoint"] breakdown key (and therefore
      in every subsequent profile sample and budget check): a
      checkpoint the process holds or writes is real space the paper's
      accounting must see.  Raises [Invalid_argument] on a negative
      size. *)

  val set_on_sample : t -> (edges:int -> words:int -> unit) -> unit
  (** Register a cadence fan-out callback, invoked on every sample
      (cadence crossings and the final sample) after the profile point
      is recorded and before the budget watchdog runs — so a
      strict-mode abort still delivers the final sample.  This is how
      [--telemetry] ties a {!Mkc_obs.Telemetry.Recorder} to the
      sampling cadence.  Last registration wins. *)

  val budget_evidence : Mkc_sketch.Space.Budget.t -> unit
  (** Publish the watchdog's verdict as the [space.*] gauges
      ({!Mkc_obs.Quality.record_budget}), where the snapshot and the
      run ledger read it. *)
end

(** Run a set-arrival algorithm (e.g. {!Mkc_coverage.Sieve},
    {!Mkc_coverage.Mv_set_arrival}) as an edge sink.

    Buffers the members of the current set and hands the completed set
    to [feed_set] when the set id changes (or at finalize), so it is
    only faithful on streams where each set's edges arrive
    contiguously — exactly the set-arrival orders those baselines
    require.  This is the adapter the baseline comparisons use to share
    the {!Pipeline} drivers with the edge-arrival algorithms. *)
module Set_arrival : sig
  type 'r t

  val create :
    feed_set:(int -> int array -> unit) ->
    finalize:(unit -> 'r) ->
    words:(unit -> int) ->
    'r t

  val feed : 'r t -> Edge.t -> unit
  val finalize : 'r t -> 'r

  val sink : unit -> ('r t, 'r) sink
  (** The first-class module instance over this adapter. *)
end
