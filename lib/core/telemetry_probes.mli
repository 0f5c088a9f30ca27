(** The curated telemetry track set for an estimator run.

    {!build} assembles the tracks {!Run} evaluates on each sample:

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
      parts-per-million (a sample row holds ints only).

    Every track reads the {!Run.sample} it is given — the breakdown
    walk and the totals read that sample already paid for — so probing
    adds no sketch walk of its own.  The [space.<component>] names are
    fixed from the sink's breakdown at the start of the run.  Ratio
    and recovery tracks read 0 until their denominators exist
    (heavy-hitter recovery only runs at finalize).  The pool executor's
    utilization ([pipeline.domain_busy_ns], [pipeline.pool.*]) has no
    track: it lives in the registry and the snapshot. *)

val build : Estimate.t -> Run.probes
(** The track set over {!Estimate.stats_totals}. *)

val build_windowed : Windowed.t -> Run.probes
(** {!build} for a windowed run: the same track set plus
    [window.epochs] / [window.rolled] (read from
    {!Windowed.live_epochs} and {!Windowed.rolled}, so they record with
    the registry disabled).  Sketch-health totals are the in-flight
    epoch's ({!Windowed.stats_totals}), read on every sample, since a
    roll resets them. *)
