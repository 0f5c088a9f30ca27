(* Ingestion-throughput micro-benchmark for the Sink/Pipeline layer.

   Six ways to drive the same Estimate sink over the same edge stream:
     per-edge      Stream_source.iter + Sink.feed        (the old ingestion path)
     batched       Pipeline.feed_all_parallel ~domains:1 — the one-slot
                   chunk loop (Chunk_plan + feed_planned)
     parallel      Pipeline.feed_all_parallel over Estimate.shards through
                   the persistent pool (static cost-hint packing)
     parallel-4    the same at 4 domains with the adaptive scheduler —
                   the acceptance-criteria configuration
     instrumented  batched again, metrics enabled + Sink.Observed wrapper
                   (quantifies the observability overhead; runs after the
                   plain modes so they see the registry disabled)
     telemetry     instrumented again, plus a Telemetry.Recorder writing
                   the MKCTEL1 log on the Observed cadence — the
                   [--telemetry] overhead number the acceptance criteria
                   gate on (within 5% of batched)

   All runs use identical params/seeds, so their finalized results must
   be identical — the benchmark asserts this before reporting, and also
   asserts that the instrumented run's final space-profile point equals
   the sink's words_breakdown exactly.  Results go to stdout and to a
   JSON file (machine-readable; includes the mkc-obs/5 metrics snapshot
   of the instrumented run, the winner-attribution counts, the
   space-budget headroom, the estimate's opt_gap against greedy, and
   the memo-miss ratio sampler_evals/edges).

   The instrumented run also carries the Space.Budget watchdog;
   [budget_strict := true] (the CLI's --budget-strict) makes an
   overshoot fatal, which is how CI gates on space regressions.

   Two registry entries share this runner:
     pipeline        n=65536, m=4096 — the acceptance-criteria workload
     pipeline-smoke  n=4096,  m=512  — a few seconds; CI divergence gate *)

module Ss = Mkc_stream.Set_system
module P = Mkc_core.Params
module E = Mkc_core.Estimate

type timing = { mode : string; seconds : float; edges_per_sec : float }

let budget_strict = ref false

let time_ingest name f =
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  (name, dt)

let outcome_fingerprint (r : E.result) =
  let witness =
    match r.E.outcome with
    | None -> []
    | Some o -> List.sort compare (o.Mkc_core.Solution.witness ())
  in
  (r.E.estimate, r.E.z_guess, witness)

(* Oracle-level sampler evaluations actually performed (memo misses),
   summed over every (z, repeat) instance.  Both ingestion paths go
   through the same decision memo, so both pay about one evaluation
   per distinct set id per instance, not one per (instance, edge). *)
let total_sampler_evals e =
  List.fold_left
    (fun acc (_inst, stats) ->
      acc + (try List.assoc "sampler_evals" stats with Not_found -> 0))
    0 (E.stats e)

let run_with ~label ~json_out ~n ~m ~k ~set_size ~alpha ~seed () =
  Exp_util.header
    (Printf.sprintf "%s: per-edge vs batched vs domain-parallel ingestion" label);
  let sys = Mkc_workload.Random_inst.uniform ~n ~m ~set_size ~seed in
  let src = Mkc_stream.Stream_source.of_system ~seed:(seed + 1) sys in
  let edges = Mkc_stream.Stream_source.length src in
  (* Host context for the throughput numbers: [domains] is what the
     2-domain "parallel" mode requests; [domains_recommended] is what
     the host actually offers — on a single-core box every parallel
     figure is a time-sharing measurement, and readers of the JSON can
     tell. *)
  let domains_recommended = Domain.recommended_domain_count () in
  let domains = max 2 (min 4 domains_recommended) in
  Format.printf
    "stream: %d edges (n=%d, m=%d), k=%d, alpha=%g, %d domains (host recommends %d)@."
    edges n m k alpha domains domains_recommended;
  let params = P.make ~m ~n ~k ~alpha ~seed () in
  let fresh () = E.create params in
  let e_seq = fresh () and e_batch = fresh () and e_par = fresh () in
  let e_par4 = fresh () in
  let timings =
    [
      time_ingest "per-edge" (fun () ->
          Mkc_stream.Stream_source.iter (E.feed e_seq) src);
      time_ingest "batched" (fun () ->
          Mkc_stream.Pipeline.feed_all_parallel ~domains:1
            [| Mkc_stream.Sink.pack E.sink e_batch |]
            src);
      time_ingest "parallel" (fun () ->
          Mkc_stream.Pipeline.feed_all_parallel ~domains
            ~schedule:Mkc_stream.Pipeline.Static ~costs:(E.shard_costs e_par)
            (E.shards e_par) src);
      (* The acceptance-criteria configuration: 4 domains, adaptive
         re-packing from measured busy-ns. *)
      time_ingest "parallel-4" (fun () ->
          Mkc_stream.Pipeline.feed_all_parallel ~domains:4
            ~schedule:Mkc_stream.Pipeline.Adaptive ~costs:(E.shard_costs e_par4)
            (E.shards e_par4) src);
    ]
  in
  (* Telemetry mode: the batched drive through an Observed wrapper plus
     a live Telemetry.Recorder evaluating the standard probe set and
     writing the binary log on every cadence sample — exactly what the
     CLI's --telemetry costs on top of batched ingestion.  Runs with the
     registry still disabled, like a plain [mkc estimate --telemetry]:
     the probes read structural sketch stats, not registry counters. *)
  let module T = Mkc_obs.Telemetry in
  (* edges/16 is exactly the CLI default cadence (65536) on the full
     acceptance workload, and still yields a real sample train on the
     CI smoke size. *)
  let tel_cadence = max 1 (edges / 16) in
  let tel_path = Filename.remove_extension json_out ^ ".mkctel" in
  let telemetry_drive path =
    let e = fresh () in
    let sm, ob = Mkc_stream.Sink.Observed.observe ~cadence:tel_cadence E.sink e in
    let probes =
      Mkc_core.Telemetry_probes.build
        ~breakdown:(fun () -> Mkc_stream.Sink.Observed.sampled_breakdown ob)
        e
    in
    let writer =
      match T.Writer.create path ~tracks:(Array.map fst probes) with
      | Ok w -> w
      | Error err -> failwith ("pipeline bench: telemetry writer: " ^ T.error_to_string err)
    in
    let recorder = T.Recorder.create ~writer ~capacity:512 probes in
    Mkc_stream.Sink.Observed.set_on_sample ob (fun ~edges:at ~words:_ ->
        T.Recorder.sample recorder ~at_edges:at);
    let any = Mkc_stream.Sink.pack sm ob in
    let _, dt =
      time_ingest "telemetry" (fun () ->
          Mkc_stream.Pipeline.feed_all_parallel ~domains:1 [| any |] src)
    in
    let r = E.finalize e in
    Mkc_stream.Sink.Observed.sample ob;
    T.Recorder.close recorder;
    (dt, r, ob, recorder)
  in
  let dt_tel, r_tel, ob_tel, recorder = telemetry_drive tel_path in
  (* Best-of-three, interleaved, for the gated pair: the 5%-overhead
     acceptance gate compares two multi-second timings, and single
     draws on a shared machine flicker by more than the gate width.
     Interleaving (T B T B) also cancels slow drift.  The re-drive
     telemetry logs are scratch; the validated one above is kept. *)
  let batched_redrive () =
    let e = fresh () in
    let _, dt =
      time_ingest "batched" (fun () ->
          Mkc_stream.Pipeline.feed_all_parallel ~domains:1
            [| Mkc_stream.Sink.pack E.sink e |]
            src)
    in
    (dt, outcome_fingerprint (E.finalize e))
  in
  let scratch = tel_path ^ ".rerun" in
  let telemetry_redrive () =
    let dt, r, _, _ = telemetry_drive scratch in
    Sys.remove scratch;
    if outcome_fingerprint r <> outcome_fingerprint r_tel then
      failwith "pipeline bench: telemetry re-drive disagrees!";
    dt
  in
  let dt_batch2, fp_batch2 = batched_redrive () in
  let dt_tel2 = telemetry_redrive () in
  let dt_batch3, fp_batch3 = batched_redrive () in
  let dt_tel3 = telemetry_redrive () in
  (* Every timed draw per mode, kept (not just the min): repeats and
     best/median land in the JSON and the run ledger, because the
     sentinel's noise band is exactly this best-vs-median spread. *)
  let draws =
    List.map
      (fun (name, dt) ->
        if name = "batched" then (name, [ dt; dt_batch2; dt_batch3 ]) else (name, [ dt ]))
      timings
    @ [ ("telemetry", [ dt_tel; dt_tel2; dt_tel3 ]) ]
  in
  let timings =
    List.map (fun (name, ds) -> (name, List.fold_left Float.min infinity ds)) draws
  in
  (* The log must round-trip, untorn, with its final space.words sample
     equal to the sink's observed words — the durable log and the live
     accounting may never disagree. *)
  (match T.read tel_path with
  | Error e -> failwith ("pipeline bench: telemetry log unreadable: " ^ T.error_to_string e)
  | Ok log ->
      (match log.T.torn with
      | Some e -> failwith ("pipeline bench: telemetry log torn: " ^ T.error_to_string e)
      | None -> ());
      let words_sum =
        List.find (fun s -> s.T.t_name = "space.words") (T.summarize log)
      in
      if words_sum.T.t_count < 2 then
        failwith "pipeline bench: telemetry log has fewer than 2 samples!";
      if words_sum.T.t_last <> Mkc_stream.Sink.Observed.words ob_tel then
        failwith "pipeline bench: telemetry final space.words <> observed words!");
  (* Instrumented mode: same batched drive, but through an Observed
     wrapper with the metric registry live.  Runs after the plain modes
     so they measure the disabled (one load-and-branch) path. *)
  let e_obs = fresh () in
  Mkc_obs.Registry.set_enabled true;
  let budget =
    Mkc_sketch.Space.Budget.create ~strict:!budget_strict (E.word_budget params)
  in
  let sm, ob = Mkc_stream.Sink.Observed.observe ~cadence:65536 ~budget E.sink e_obs in
  let obs_any = Mkc_stream.Sink.pack sm ob in
  let t_instrumented =
    time_ingest "instrumented" (fun () ->
        Mkc_stream.Pipeline.feed_all_parallel ~domains:1 [| obs_any |] src)
  in
  let timings = timings @ [ t_instrumented ] in
  let draws = draws @ [ (fst t_instrumented, [ snd t_instrumented ]) ] in
  let r_obs = E.finalize e_obs in
  Mkc_stream.Sink.Observed.sample ob;
  E.record_metrics e_obs;
  let profile = Mkc_stream.Sink.Observed.profile ob in
  (match Mkc_obs.Space_profile.final profile with
  | None -> failwith "pipeline bench: instrumented run recorded no space profile!"
  | Some final ->
      let wb = Mkc_stream.Sink.canonical_breakdown (E.words_breakdown e_obs) in
      if final.Mkc_obs.Space_profile.words <> E.words e_obs then
        failwith "pipeline bench: space-profile final total <> words!";
      if final.Mkc_obs.Space_profile.breakdown <> wb then
        failwith "pipeline bench: space-profile final breakdown <> words_breakdown!");
  (* Ground truth for this workload is the offline greedy baseline; the
     estimate/greedy gap is the end-to-end quality number (the paper's
     guarantee is a 1/Õ(α) fraction of OPT ≥ greedy/(1 - 1/e)). *)
  let greedy = (Mkc_coverage.Greedy.run sys ~k).Mkc_coverage.Greedy.coverage in
  Mkc_obs.Quality.record_relative_error "estimate.quality.vs_greedy" ~truth:greedy
    ~estimate:(int_of_float r_obs.E.estimate);
  let module B = Mkc_sketch.Space.Budget in
  Mkc_stream.Sink.Observed.budget_evidence budget;
  let winners = E.winners e_obs in
  let snapshot =
    Mkc_obs.Snapshot.capture ~profiles:[ ("estimate", profile) ] Mkc_obs.Registry.global
  in
  (* Harvested while the registry is still live: the instrumented
     drive's latency digests and quality gauges, bound for the run
     ledger below. *)
  let run_digests, run_quality = Mkc_obs.Ledger.harvest Mkc_obs.Registry.global in
  Mkc_obs.Registry.set_enabled false;
  let results =
    List.map
      (fun e -> outcome_fingerprint (E.finalize e))
      [ e_seq; e_batch; e_par; e_par4 ]
    @ [ fp_batch2; fp_batch3; outcome_fingerprint r_obs; outcome_fingerprint r_tel ]
  in
  (match results with
  | a :: rest ->
      if List.exists (fun r -> r <> a) rest then
        failwith "pipeline bench: ingestion modes disagree!"
  | [] -> assert false);
  let estimate, z_guess, _ = List.hd results in
  Format.printf "all modes agree: estimate %.0f (z-guess %d)@." estimate z_guess;
  let rel_err =
    if greedy = 0 then 0.0
    else abs_float (estimate -. float_of_int greedy) /. float_of_int greedy
  in
  (* OPT lies in [G, G/(1-1/e)] for the greedy coverage G; opt_gap is 1
     when the estimate does too, else how far outside it, as a factor
     (the benchmark's definition). *)
  let g = float_of_int greedy and one_minus_inv_e = 1.0 -. exp (-1.0) in
  let opt_gap =
    if greedy = 0 || estimate <= 0.0 then 1.0
    else Float.max 1.0 (Float.max (g /. estimate) (estimate *. one_minus_inv_e /. g))
  in
  Format.printf "greedy baseline: %d (opt_gap %.3f)@." greedy opt_gap;
  if opt_gap > 1.0 then
    Format.printf
      "warning: estimate %.0f lies outside OPT's certified interval [%d, %.0f] (opt_gap \
       %.3f)@."
      estimate greedy (g /. one_minus_inv_e) opt_gap;
  Format.printf "winners:%s@."
    (String.concat ""
       (List.map (fun (who, c) -> Printf.sprintf " %s=%d" who c) winners));
  Format.printf "space budget: %d words, peak %d, headroom %.2f@." (B.budget budget)
    (B.peak budget) (B.headroom budget);
  (* Sampler hash evaluations (memo misses) on each path; both memoize,
     so the two are close and far below one per edge. *)
  let evals_batched = total_sampler_evals e_batch in
  let evals_seq = total_sampler_evals e_seq in
  let eval_ratio = float_of_int evals_batched /. float_of_int (max 1 edges) in
  Format.printf
    "sampler memo misses: %d chunked, %d per-edge (chunked = %.1f%% of %d edges)@."
    evals_batched evals_seq (100.0 *. eval_ratio) edges;
  let timings =
    List.map
      (fun (mode, seconds) ->
        { mode; seconds; edges_per_sec = float_of_int edges /. seconds })
      timings
  in
  (* Repeat statistics per mode: best (= the headline number above),
     ceil-rank median, and the repeat count — the sentinel's
     noise-band inputs. *)
  let mode_stats =
    List.map
      (fun (mode, ds) ->
        let sorted = List.sort compare ds in
        let nrep = List.length sorted in
        let best = List.hd sorted in
        let median = List.nth sorted ((nrep - 1) / 2) in
        {
          Mkc_obs.Ledger.ms_mode = mode;
          ms_repeats = nrep;
          ms_best_s = best;
          ms_median_s = median;
          ms_edges_per_sec = float_of_int edges /. best;
        })
      draws
  in
  List.iter
    (fun t ->
      Format.printf "  %-12s  %6.3fs  %10.0f edges/s@." t.mode t.seconds t.edges_per_sec)
    timings;
  let eps mode = (List.find (fun t -> t.mode = mode) timings).edges_per_sec in
  let telemetry_overhead_pct = 100.0 *. (1.0 -. (eps "telemetry" /. eps "batched")) in
  Format.printf "telemetry overhead vs batched: %.1f%% (%d samples in %s)@."
    telemetry_overhead_pct
    (Mkc_obs.Series.total (T.Recorder.series recorder))
    tel_path;
  (* The CI speedup gate reads these: parallel throughput over batched,
     honest only when the host actually has the cores (see
     domains_recommended). *)
  let speedup = eps "parallel" /. eps "batched" in
  let speedup4 = eps "parallel-4" /. eps "batched" in
  Format.printf
    "parallel speedup vs batched: %.2fx (static, %d domains), %.2fx (adaptive, 4 domains)@."
    speedup domains speedup4;
  let oc = open_out json_out in
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"edges\": %d,\n  \"n\": %d,\n  \"m\": %d,\n  \"k\": %d,\n  \"alpha\": %g,\n  \"domains\": %d,\n  \"estimate\": %.0f,\n"
       edges n m k alpha domains estimate);
  Buffer.add_string b
    (Printf.sprintf
       "  \"domains_requested\": %d,\n  \"domains_recommended\": %d,\n  \"schedule\": \
        \"static\",\n  \"schedule_parallel4\": \"adaptive\",\n"
       domains domains_recommended);
  Buffer.add_string b
    (Printf.sprintf
       "  \"parallel_speedup_vs_batched\": %.4f,\n  \
        \"parallel4_speedup_vs_batched\": %.4f,\n"
       speedup speedup4);
  Buffer.add_string b
    (Printf.sprintf
       "  \"sampler_evals\": %d,\n  \"sampler_evals_per_edge_path\": %d,\n  \"sampler_evals_ratio\": %.6f,\n"
       evals_batched evals_seq eval_ratio);
  Buffer.add_string b "  \"modes\": [\n";
  List.iteri
    (fun i (ms : Mkc_obs.Ledger.mode_stat) ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"mode\": %S, \"seconds\": %.6f, \"repeats\": %d, \"best_s\": %.6f, \
            \"median_s\": %.6f, \"edges_per_sec\": %.0f }%s\n"
           ms.ms_mode ms.ms_best_s ms.ms_repeats ms.ms_best_s ms.ms_median_s
           ms.ms_edges_per_sec
           (if i = List.length mode_stats - 1 then "" else ",")))
    mode_stats;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"telemetry_overhead_pct\": %.3f,\n  \"telemetry_log\": %S,\n"
       telemetry_overhead_pct tel_path);
  Buffer.add_string b
    (Printf.sprintf
       "  \"greedy\": %d,\n  \"estimate_vs_greedy_rel_error\": %.6f,\n  \"opt_gap\": %.6f,\n"
       greedy rel_err opt_gap);
  Buffer.add_string b "  \"winners\": {";
  List.iteri
    (fun i (who, c) ->
      Buffer.add_string b
        (Printf.sprintf "%s %S: %d" (if i = 0 then "" else ",") who c))
    winners;
  Buffer.add_string b " },\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"space\": { \"budget_words\": %d, \"peak_words\": %d, \"headroom\": %.6f, \
        \"overshoots\": %d, \"samples\": %d },\n"
       (B.budget budget) (B.peak budget) (B.headroom budget) (B.overshoots budget)
       (B.samples budget));
  Buffer.add_string b
    (Printf.sprintf "  \"metrics_snapshot\": %s\n" (Mkc_obs.Snapshot.to_string snapshot));
  Buffer.add_string b "}\n";
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "wrote %s@." json_out;
  (* The JSON file is overwritten per run; the run ledger accumulates.
     Every bench run appends a record here so bench-diff always has a
     baseline to compare against. *)
  let entry =
    {
      Mkc_obs.Ledger.e_label = label;
      e_created_ns = int_of_float (Unix.gettimeofday () *. 1e9);
      e_host = Mkc_obs.Ledger.host_fingerprint ();
      e_params =
        [
          ("alpha", Mkc_obs.Json.Float alpha);
          ("domains", Mkc_obs.Json.Int domains);
          ("k", Mkc_obs.Json.Int k);
          ("m", Mkc_obs.Json.Int m);
          ("n", Mkc_obs.Json.Int n);
          ("seed", Mkc_obs.Json.Int seed);
          ("set_size", Mkc_obs.Json.Int set_size);
        ];
      e_stats =
        [
          ("edges", float_of_int edges);
          ("estimate", estimate);
          ("headroom", B.headroom budget);
          ("telemetry_overhead_pct", telemetry_overhead_pct);
        ];
      e_modes = mode_stats;
      e_digests = run_digests;
      e_quality = run_quality;
    }
  in
  let ledger_path = "ledger.mkcledg" in
  match Mkc_obs.Ledger.append ledger_path entry with
  | Ok () -> Format.printf "appended run record to %s@." ledger_path
  | Error e ->
      failwith ("pipeline bench: ledger append: " ^ Mkc_obs.Ledger.error_to_string e)

let run () =
  run_with ~label:"pipeline" ~json_out:"BENCH_pipeline.json" ~n:65536 ~m:4096 ~k:32
    ~set_size:256 ~alpha:8.0 ~seed:11 ()

(* CI-sized smoke run: same modes, same agreement assertions, a few
   seconds of wall clock.  Exists so CI can gate on cross-mode
   divergence without paying for the full workload. *)
let run_smoke () =
  run_with ~label:"pipeline-smoke" ~json_out:"BENCH_pipeline_smoke.json" ~n:4096
    ~m:512 ~k:16 ~set_size:64 ~alpha:8.0 ~seed:11 ()

