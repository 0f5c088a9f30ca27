(** Render a {!Snapshot} for people and scrapers.  Histograms are the
    registry's {!Histogram.t}: their exposition is
    {!Histogram.prometheus} and their quantiles {!Histogram.quantile}. *)

val prometheus : Snapshot.t -> string
(** Prometheus text exposition (version 0.0.4): one [# TYPE] line per
    metric, dots/dashes mapped to underscores, histograms as cumulative
    [_bucket{le="..."}] series plus [_sum]/[_count]. *)

val summary : Snapshot.t -> string
(** Human-readable multi-line summary: counters and gauges (the
    [space.*] budget gauges, [space.peak_words] included, when the run
    had a budget) and histogram count/p50/p99/max (span latencies are
    the [span.<name>.ns] histograms) — what [mkc --metrics] prints.
    The space-over-stream curve is the [--telemetry] log's. *)
