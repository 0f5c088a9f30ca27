(** The one run path: drive a sink over a stream the way [mkc estimate]
    and [mkc report] do, and return what happened.

    Everything a run decides lives here — the one
    {!Mkc_stream.Pipeline.drive} call (one domain or pooled, with or
    without a checkpoint); the one sampler, which walks the whole
    sink's [words_breakdown] between windows on every mode and hands
    that one walk to the trace counter, the telemetry probes and log
    (the space curve's one durable record), the health rules and the
    space budget; the progress callback; abort clean-up; the drive's
    wall time; and the run-ledger record.  The CLI and the pipeline
    benchmark both drive through {!run}, so the number a benchmark
    reports is the number a user gets.

    {!run} never prints and never exits: an abort (a violated
    escalating health rule, a strict budget overshoot, a checkpoint
    error, an unopenable telemetry log or a health rule naming an
    unknown track) is an {!error}.  The telemetry log is flushed after
    every frame and closed on every path, so the samples up to an
    abort (or a kill) survive.  Writing the metrics snapshot and the
    trace file is the caller's: both read the global
    {!Mkc_obs.Registry} and {!Mkc_obs.Trace} state a run leaves
    behind. *)

type config = {
  domains : int;  (** > 1 feeds [shards] through the domain pool *)
  chunk : int;
  cadence : int;  (** the sampling cadence, edges (> 0 when anything samples) *)
  metrics : bool;  (** enable the registry and record the result's metrics *)
  trace : bool;  (** enable {!Mkc_obs.Trace} *)
  progress : (edges:int -> unit) option;
      (** called after every window with the stream position reached *)
}

val default : config
(** One domain, {!Mkc_stream.Pipeline.default_chunk}, a sample every
    65536 edges, nothing observed. *)

(** One sample, as every probe sees it: the stream position, the
    observed breakdown (canonical, the held checkpoint's words under
    ["checkpoint"]), its sum, and the stats totals read for it. *)
type sample = {
  at_ns : int;
  at_edges : int;
  breakdown : (string * int) list;
  words : int;
  totals : (string * int) list;
}

type probe = string * (sample -> int)
(** A telemetry track: its name and its value at a sample. *)

(** A track set, e.g. [Telemetry_probes.build est]. *)
type probes = {
  read_totals : unit -> (string * int) list;  (** read once per sample *)
  tracks : breakdown:(string * int) list -> probe array;
      (** the tracks, named from the sink's breakdown at the start of
          the run *)
}

(** Health rules ride on telemetry samples; a live view is
    [mkc top --follow] over the log. *)
type telemetry = {
  log : string option;  (** binary telemetry log to write *)
  rules : Mkc_obs.Health.rule list;  (** checked on every sample *)
  probes : probes;
}

(** A checkpointed run: the codec, saves every [every] chunk windows to
    [save], and an optional checkpoint to [resume] from. *)
type 's ckpt = 's Mkc_stream.Pipeline.checkpoint = {
  codec : 's Mkc_stream.Checkpoint.codec;
  every : int;
  save : string option;
  resume : string option;
}

(** The run-ledger record to append after a successful run.  Its label
    is the run's [label]; its stats are [edges], [edges_per_sec],
    [wall_s], [space_words] and [stats result]; its modes are [modes]
    followed by this run timed as [mode]; its digests and quality
    gauges are harvested from the registry, which a ledger run
    enables. *)
type 'r ledger = {
  path : string;
  params : (string * Mkc_obs.Json.t) list;
  mode : string;
  modes : Mkc_obs.Ledger.mode_stat list;  (** other timed modes of the same record *)
  stats : 'r -> (string * float) list;
}

type 'r outcome = {
  result : 'r;
  words : int;  (** the sink's words once finalized *)
  wall_ns : int;  (** drive wall time, finalize included *)
  samples : int;  (** telemetry samples recorded (0 without telemetry) *)
  appended : (unit, Mkc_obs.Ledger.error) result option;  (** the ledger append *)
}

type error =
  | Health_violation of string  (** an escalating rule fired *)
  | Budget_exceeded of { budget : int; words : int }  (** strict budget overshoot *)
  | Checkpoint of Mkc_stream.Checkpoint.error
  | Telemetry_log of string * Mkc_obs.Telemetry.error  (** the log could not be created *)
  | Health_rules of string  (** a rule names a track the probes lack *)

val error_to_string : error -> string

val run :
  config ->
  ?budget:Mkc_sketch.Space.Budget.t ->
  ?telemetry:telemetry ->
  ?shards:('s -> Mkc_stream.Sink.any array) ->
  ?ckpt:'s ckpt ->
  ?record_metrics:('r -> unit) ->
  ?ledger:'r ledger ->
  label:string ->
  ('s, 'r) Mkc_stream.Sink.sink ->
  's ->
  Mkc_stream.Stream_source.t ->
  ('r outcome, error) result
(** Drive [sink]/[state] over the stream and finalize.  With
    [domains > 1] the pairwise-independent [shards state] (default: the
    whole sink as one shard) are fed through the pool; otherwise the
    sink itself on the calling domain.  The whole sink is sampled when
    [trace], a [budget] or [telemetry] asks for it — on every mode the
    same way: at most once per window, realigned to the [cadence] grid
    so an oversized window does not trigger a burst, and once after
    finalize.  Raises [Invalid_argument] if it samples and
    [cadence < 1].  [metrics] alone samples nothing: the space curve's
    one durable record is the telemetry log's [space.*] tracks.
    [record_metrics] runs on the result, and the budget's verdict
    becomes the [space.*] gauges, when [metrics] or a [ledger] is on.
    Any other exception from the sink closes the telemetry log and
    propagates. *)
