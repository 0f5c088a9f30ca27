(** Versioned, machine-readable snapshot of an observability state:
    the merged registry metrics, frozen at the end of a run.

    The JSON schema is {!schema_version} ("mkc-obs/6"), an object with
    exactly the keys [schema], [created_ns] and [metrics].  A metric
    is [name], [kind] and either a [value] or, for a histogram,
    {!Histogram.to_json}'s fields (integer count, sum, min and max and
    the sparse log-linear buckets).  Every other fact
    of a run has one home elsewhere and is not copied here: individual
    spans live in the {!Trace} timeline (their latency histograms
    [span.<name>.ns] are metrics), and the sampled time series — the
    space-over-stream curve ([space.words] and one [space.<component>]
    track per breakdown key) included — lives in the {!Telemetry} log.
    The space watchdog's verdict is the [space.*] gauge group of
    {!Quality.record_budget}.

    {!of_json} re-validates every field, so consumers (CI, [bench])
    fail loudly on drift instead of silently mis-parsing: unknown
    top-level keys and snapshots stamped with any other schema, the
    retired "mkc-obs/1" to "mkc-obs/5" included, are rejected by name,
    and the [space.*] gauges, when present, must be complete and
    self-consistent.  Emission order is deterministic (metrics sorted
    by name), so snapshots taken under an injected {!Clock} source are
    golden-test stable. *)

type value = Registry.value = Counter of int | Gauge of float | Histogram of Histogram.t
(** The registry's own merged values: a snapshot holds the same
    {!Histogram.t} the registry recorded. *)

type metric = { mname : string; mvalue : value }
type t = { schema : string; created_ns : int; metrics : metric list }

val schema_version : string
(** Emission schema, ["mkc-obs/6"]. *)

val capture : ?now_ns:int -> Registry.t -> t
(** {!Registry.dump} stamped with [now_ns] (default {!Clock.now_ns})
    and {!schema_version}. *)

val to_json : t -> Json.t
val to_string : t -> string

val of_json : Json.t -> (t, string) result
(** Parse AND validate: schema version, field presence, kinds, types,
    histograms through {!Histogram.of_json} (integral numbers in either
    JSON spelling, so a [3.0] sum still reads), and the [space.*]
    budget gauges — all five of [space.budget_words],
    [space.peak_words], [space.headroom], [space.overshoots] and
    [space.samples] or none; integral non-negative counts;
    [overshoots <= samples]; [headroom = peak / budget] exactly (0 for
    a degenerate budget); a peak over budget implies an overshoot.
    The error names the offending field. *)

val validate : string -> (t, string) result
(** Parse a raw JSON string and validate it ({!Json.parse} ∘
    {!of_json}). *)
