(** Versioned, machine-readable snapshot of an observability state:
    merged metrics, recent spans, space-over-stream profiles, and
    per-track telemetry series summaries.

    The JSON schema is {!schema_version} ("mkc-obs/4", whose histogram
    buckets use the log-linear {!Histogram} layout); {!of_json}
    re-validates every field, so consumers (CI, [bench]) fail loudly on
    drift instead of silently mis-parsing.  Snapshots stamped with any
    other schema, the retired "mkc-obs/1" to "mkc-obs/3" included, are
    rejected by name.  Emission order is deterministic (metrics sorted
    by name, spans by start time), so snapshots taken under an injected
    {!Clock} source are golden-test stable. *)

type hist = {
  hcount : int;
  hsum : float;
  hmin : float;  (** 0 when empty *)
  hmax : float;
  hbuckets : (int * int) list;
      (** (bucket index, count), ascending, in the log-linear
          {!Histogram} layout. *)
}

type value = Counter of int | Gauge of float | Histogram of hist
type metric = { mname : string; mvalue : value }
type point = { at_edges : int; words : int; breakdown : (string * int) list }
type profile = { pname : string; cadence : int; points : point list }

type space = {
  budget_words : int;  (** theoretical budget derived from [Params] *)
  peak_words : int;  (** largest sampled [words] over the run *)
  headroom : float;  (** peak / budget; < 1.0 means within budget *)
  overshoots : int;  (** samples that exceeded the budget *)
  samples : int;  (** total watchdog samples *)
}

type track = {
  tname : string;  (** telemetry track name, e.g. ["space.words"] *)
  tcount : int;  (** samples committed (≥ 1 for a recorded track) *)
  tmin : int;
  tmax : int;
  tlast : int;  (** final committed value — what a replayed telemetry
                    log must reproduce exactly *)
}

type t = {
  schema : string;
  created_ns : int;
  space : space option;  (** absent when the run had no budget *)
  series : track list;  (** empty when absent *)
  metrics : metric list;
  spans : Span.span list;
  profiles : profile list;
}

val schema_version : string
(** Emission schema, ["mkc-obs/4"]. *)

val headroom_of : budget_words:int -> peak_words:int -> float
(** [peak / budget], or [0.] when the budget is degenerate ([<= 0]) —
    the exact value validation demands of a [space] section. *)

val tracks_of_series : Series.t -> track list
(** Summarize a live telemetry {!Series} into snapshot tracks (empty
    when no sample was ever committed), for {!capture}'s [series]
    argument. *)

val capture :
  ?spans:Span.span list ->
  ?profiles:(string * Space_profile.t) list ->
  ?space:space ->
  ?series:track list ->
  ?now_ns:int ->
  Registry.t ->
  t
(** Merge-read the registry (plus the given spans/profiles and
    optional space-watchdog verdict and telemetry-series summaries)
    into a snapshot.  [spans] defaults to [Span.recent ()]; [now_ns]
    defaults to {!Clock.now_ns}.  Always stamps {!schema_version}. *)

val to_json : t -> Json.t
val to_string : t -> string

val of_json : Json.t -> (t, string) result
(** Parse AND validate: schema version, field presence, kinds, types.
    The error names the offending field. *)

val validate : string -> (t, string) result
(** Parse a raw JSON string and validate it ({!Json.parse} ∘
    {!of_json}). *)
