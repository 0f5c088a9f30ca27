(** Named metric registry, sharded per domain.

    Ownership mirrors {!Mkc_stream.Pipeline.feed_all_parallel}'s pool: every write
    goes to a cell owned by the writing domain (found through
    domain-local storage, created lazily), so the hot path takes no
    lock and shares no mutable cell between domains.  Reads
    ({!read}/{!dump}) merge the per-domain cells — counters by sum,
    gauges by their registered mode, histograms by {!Histogram.merge},
    each a commutative monoid — so merged totals are exactly what a
    single-domain run would have produced, which is what makes
    sequential and domain-parallel ingestion comparable
    metric-for-metric.  [test/test_obs.ml] checks the merge laws.

    Writes racing with a merged read may be missed by that read (the
    usual monitoring staleness); totals are exact whenever the writers
    are quiescent, e.g. after [Domain.join] — the only point the
    library itself reads.

    All write operations are no-ops while the global switch is off
    (the default), costing one load and branch — instrumented hot
    paths stay within noise of uninstrumented ones. *)

type t

val create : unit -> t
(** A fresh, empty registry (used by tests and by callers that want
    isolated metric scopes). *)

val global : t
(** The default registry every built-in instrumentation site writes
    to. *)

val set_enabled : bool -> unit
(** Master switch for ALL registries' write paths (and {!Span}
    recording).  Off by default. *)

val enabled : unit -> bool

(** {1 Handles}

    Registering the same name twice returns an equivalent handle;
    re-registering a name as a different kind raises
    [Invalid_argument].  Handles are cheap and can be created eagerly
    or per call site. *)

type counter
type gauge
type histogram

val counter : t -> string -> counter
val gauge : ?mode:[ `Sum | `Max ] -> t -> string -> gauge
(** Default mode [`Sum], for quantities additive across domains (busy
    time, retained words); [`Max] merges high-water marks (wall time,
    peaks). *)

val histogram : t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit

val record : histogram -> int -> unit
(** Record one integer observation (see {!Histogram.record}). *)

val observe : histogram -> float -> unit
(** [record] after truncation to int — kept for float-valued call
    sites. *)

val observe_ns : histogram -> int -> unit

(** {1 Merged reads} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of Histogram.t

val read : t -> string -> value option
(** Merged-across-domains value of one metric; [None] if never
    registered. *)

val dump : t -> (string * value) list
(** Every registered metric, merged, sorted by name — the stable
    export order. *)

val reset : t -> unit
(** Zero every cell in every shard (metrics stay registered).  Call
    only while writers are quiescent. *)
