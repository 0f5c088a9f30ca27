(** The curated telemetry track set for an estimator run.

    {!build} assembles the probe array a
    {!Mkc_obs.Telemetry.Recorder} evaluates on each [Sink.Observed]
    cadence sample:

    - [pipeline.edges] / [pipeline.edges_per_sec] — stream progress
      and instantaneous throughput (delta over the previous sample);
    - [space.words] and one [space.<component>] track per
      [words_breakdown] key — the paper's Õ(m/α²) bound, live;
    - [gc.minor_words] / [gc.major_words] / [gc.heap_words] — from
      [Gc.quick_stat], the flat-memory discipline's regression canary;
    - [sketch.l0_occupancy] / [sketch.l0_prunes] /
      [sketch.f2_tracked] / [sketch.f2_prunes] — sketch health from
      {!Estimate.stats_totals};
    - [sketch.hh_recovery_ppm] / [sketch.memo_hit_ppm] — the quality
      ratios of [estimate.quality.*], scaled to integer
      parts-per-million (the series stores ints only).

    Ratio and recovery tracks read 0 until their denominators exist
    (heavy-hitter recovery only runs at finalize).  The pool executor's
    utilization ([pipeline.domain_busy_ns], [pipeline.pool.*]) has no
    track: it lives in the registry and the snapshot. *)

val build :
  breakdown:(unit -> (string * int) list) ->
  Estimate.t ->
  Mkc_obs.Telemetry.Recorder.probe array
(** [breakdown] should read the {e observed} breakdown — normally
    [Sink.Observed.sampled_breakdown], the walk the cadence sample
    already paid for, so probing adds no sketch walk of its own.  The
    [space.words] track is the sum of that breakdown (every sink's
    words are the sum of its components) and the [space.<component>]
    track names are fixed from [breakdown ()] at build time.
    Breakdown and stats reads are cached per sample timestamp, so the
    per-sample cost is one [breakdown] fetch and one
    {!Estimate.stats_totals} walk regardless of track count. *)

val build_windowed :
  breakdown:(unit -> (string * int) list) ->
  Windowed.t ->
  Mkc_obs.Telemetry.Recorder.probe array
(** {!build} for a windowed run: the same track set plus
    [window.epochs] / [window.rolled] (read from
    {!Windowed.live_epochs} and {!Windowed.rolled}, so they record with
    the registry disabled).  Sketch-health totals are the in-flight
    epoch's ({!Windowed.stats_totals}), re-read on every sample, since a
    roll resets them. *)
