let () =
  Alcotest.run "maxkcover"
    [
      ("hashing", Test_hashing.suite);
      ("sketch", Test_sketch.suite);
      ("stream", Test_stream.suite);
      ("pipeline", Test_pipeline.suite);
      ("chunk-engine", Test_chunk_engine.suite);
      ("workload", Test_workload.suite);
      ("coverage", Test_coverage.suite);
      ("baselines", Test_baselines.suite);
      ("core-units", Test_core_units.suite);
      ("estimate", Test_estimate.suite);
      ("lowerbound", Test_lowerbound.suite);
      ("paper-profile", Test_paper_profile.suite);
      ("properties", Test_props.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("api-surface", Test_api_surface.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("golden-compat", Test_golden_compat.suite);
      ("alloc", Test_alloc.suite);
      ("quality-stats", Test_quality_stats.suite);
      ("obs", Test_obs.suite);
      ("histogram", Test_histogram.suite);
      ("ledger", Test_ledger.suite);
      ("sentinel", Test_sentinel.suite);
      ("cli", Test_cli.suite);
      ("turnstile", Test_turnstile.suite);
      ("window", Test_window.suite);
      ("series", Test_series.suite);
      ("telemetry", Test_telemetry.suite);
      ("health", Test_health.suite);
      ("trace", Test_trace.suite);
      ("pool", Test_pool.suite);
      ("run", Test_run.suite);
    ]
