(* Ingestion-throughput benchmark for the Sink/Pipeline layer.

   Six ways to drive the same Estimate over the same edge stream.  Every
   mode but the reference is one Mkc_core.Run config — the run path
   [mkc estimate] takes — timed by Run's own wall clock (finalize
   included):
     per-edge      Stream_source.iter + Estimate.feed, the literal
                   streaming model and the agreement reference
     batched       one domain, plain
     parallel      Estimate.shards over the domain pool
     parallel-4    the same at 4 domains
     telemetry     batched plus the [--telemetry] recorder writing the
                   MKCTEL1 log — the overhead number the acceptance
                   criteria gate on (within 5% of batched)
     instrumented  batched with metrics on and the space budget (strict
                   under [--budget-strict]); runs last, so the others
                   see the registry disabled, and appends the run record
                   with every mode's timings to ledger.mkcledg

   All runs use identical params and seeds, so their finalized results
   must be identical: the benchmark asserts this before reporting, and
   also that the telemetry log's final space.words equals the run's
   words and its final space.<component> row the sink's
   words_breakdown.  Results go to stdout and to a
   JSON file (timings, speedups, winner counts, budget headroom, the
   estimate's opt_gap against greedy, the memo-miss ratio
   sampler_evals/edges).

   Two registry entries share this runner:
     pipeline        n=65536, m=4096 — the acceptance-criteria workload
     pipeline-smoke  n=4096,  m=512  — a few seconds; CI divergence gate *)

module P = Mkc_core.Params
module E = Mkc_core.Estimate
module Run = Mkc_core.Run
module B = Mkc_sketch.Space.Budget
module T = Mkc_obs.Telemetry

let fail fmt = Printf.ksprintf (fun msg -> failwith ("pipeline bench: " ^ msg)) fmt

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

(* Best, ceil-rank median and count of a mode's timed draws — the
   sentinel's noise-band inputs. *)
let mode_stat ~edges mode draws =
  let sorted = List.sort compare draws in
  let best = List.hd sorted in
  {
    Mkc_obs.Ledger.ms_mode = mode;
    ms_repeats = List.length sorted;
    ms_best_s = best;
    ms_median_s = List.nth sorted ((List.length sorted - 1) / 2);
    ms_edges_per_sec = float_of_int edges /. best;
  }

let run_with ~label ~json_out ~n ~m ~k ~set_size ~alpha ~seed ~budget_strict () =
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
  (* Ground truth for this workload is the offline greedy baseline; the
     estimate/greedy gap is the end-to-end quality number (the paper's
     guarantee is a 1/Õ(α) fraction of OPT ≥ greedy/(1 - 1/e)). *)
  let greedy = lazy (Mkc_coverage.Greedy.run sys ~k).Mkc_coverage.Greedy.coverage in
  let fingerprints = ref [] in
  (* One mode: a fresh estimator through one Run config. *)
  let drive ?(cfg = Run.default) ?budget ?telemetry ?ledger () =
    let e = E.create params in
    let record_metrics (r : E.result) =
      E.record_metrics e;
      Mkc_obs.Quality.record_relative_error "estimate.quality.vs_greedy"
        ~truth:(Lazy.force greedy) ~estimate:(int_of_float r.estimate)
    in
    match
      Run.run cfg ?budget
        ?telemetry:(Option.map (fun t -> t e) telemetry)
        ~shards:E.shards ~record_metrics ?ledger ~label E.sink e src
    with
    | Error err -> fail "%s" (Run.error_to_string err)
    | Ok o ->
        fingerprints := outcome_fingerprint o.result :: !fingerprints;
        (e, o)
  in
  (* Only timings and a few counters outlive each mode, so no earlier
     mode's estimator weighs on a later one's heap. *)
  let seconds (_, (o : _ Run.outcome)) = float_of_int o.wall_ns /. 1e9 in
  let dt_seq, evals_seq =
    let e = E.create params in
    let t0 = Unix.gettimeofday () in
    Mkc_stream.Stream_source.iter (E.feed e) src;
    fingerprints := [ outcome_fingerprint (E.finalize e) ];
    (Unix.gettimeofday () -. t0, total_sampler_evals e)
  in
  let dt_batched, evals_batched =
    let ((e, _) as d) = drive () in
    (seconds d, total_sampler_evals e)
  in
  let dt_parallel = seconds (drive ~cfg:{ Run.default with domains } ()) in
  let dt_parallel4 = seconds (drive ~cfg:{ Run.default with domains = 4 } ()) in
  (* Telemetry mode: exactly what the CLI's --telemetry costs on top of
     batched ingestion, with the registry still disabled like a plain
     [mkc estimate --telemetry] (the probes read structural sketch
     stats, not registry counters).  edges/16 is the CLI default
     cadence (65536) on the full acceptance workload and still yields a
     real sample train on the CI smoke size. *)
  let tel_path = Filename.remove_extension json_out ^ ".mkctel" in
  let telemetry path e =
    { Run.log = Some path; rules = []; probes = Mkc_core.Telemetry_probes.build e }
  in
  let tel_drive path =
    let ((e, o) as d) =
      drive ~cfg:{ Run.default with cadence = max 1 (edges / 16) } ~telemetry:(telemetry path) ()
    in
    (seconds d, (o.words, Mkc_stream.Sink.canonical_breakdown (E.words_breakdown e)), o.samples)
  in
  let dt_tel, (tel_words, tel_breakdown), tel_samples = tel_drive tel_path in
  (* Best-of-three, interleaved, for the gated pair: the 5%-overhead
     acceptance gate compares two multi-second timings, and single
     draws on a shared machine flicker by more than the gate width.
     Interleaving (T B T B) also cancels slow drift.  The re-drive
     telemetry logs are scratch; the validated one above is kept. *)
  let scratch = tel_path ^ ".rerun" in
  let tel_redrive () =
    let dt, _, _ = tel_drive scratch in
    Sys.remove scratch;
    dt
  in
  let dt_batched2 = seconds (drive ()) in
  let dt_tel2 = tel_redrive () in
  let dt_batched3 = seconds (drive ()) in
  let dt_tel3 = tel_redrive () in
  (* The log must round-trip, untorn, with its final space.words sample
     equal to the run's words and its final space.<component> row equal
     to the sink's canonical words_breakdown — the log is the one
     durable record of the space curve, and it may never disagree with
     the live accounting. *)
  (match T.read tel_path with
  | Error e -> fail "telemetry log unreadable: %s" (T.error_to_string e)
  | Ok log ->
      Option.iter (fun e -> fail "telemetry log torn: %s" (T.error_to_string e)) log.T.torn;
      let summaries = T.summarize log in
      let words = List.find (fun s -> s.T.t_name = "space.words") summaries in
      if words.T.t_count < 2 then fail "telemetry log has fewer than 2 samples!";
      if words.T.t_last <> tel_words then
        fail "telemetry final space.words <> the run's words!";
      let components =
        List.filter_map
          (fun s ->
            match String.split_on_char '.' s.T.t_name with
            | [ "space"; "words" ] -> None
            | "space" :: key -> Some (String.concat "." key, s.T.t_last)
            | _ -> None)
          summaries
      in
      if components <> tel_breakdown then
        fail "telemetry final space.<component> row <> words_breakdown!");
  let mode_stats =
    List.map
      (fun (mode, draws) -> mode_stat ~edges mode draws)
      [
        ("per-edge", [ dt_seq ]);
        ("batched", [ dt_batched; dt_batched2; dt_batched3 ]);
        ("parallel", [ dt_parallel ]);
        ("parallel-4", [ dt_parallel4 ]);
        ("telemetry", [ dt_tel; dt_tel2; dt_tel3 ]);
      ]
  in
  let eps mode =
    (List.find (fun (ms : Mkc_obs.Ledger.mode_stat) -> ms.ms_mode = mode) mode_stats)
      .ms_edges_per_sec
  in
  let telemetry_overhead_pct = 100.0 *. (1.0 -. (eps "telemetry" /. eps "batched")) in
  (* Instrumented mode, last: the registry goes live here, so the plain
     modes above measured the disabled (one load-and-branch) path. *)
  let budget = B.create ~strict:budget_strict (E.word_budget params) in
  let ledger_path = "ledger.mkcledg" in
  let ledger =
    {
      Run.path = ledger_path;
      params =
        [
          ("alpha", Mkc_obs.Json.Float alpha);
          ("domains", Mkc_obs.Json.Int domains);
          ("k", Mkc_obs.Json.Int k);
          ("m", Mkc_obs.Json.Int m);
          ("n", Mkc_obs.Json.Int n);
          ("seed", Mkc_obs.Json.Int seed);
          ("set_size", Mkc_obs.Json.Int set_size);
        ];
      mode = "instrumented";
      modes = mode_stats;
      stats =
        (fun r ->
          [
            ("estimate", r.E.estimate);
            ("headroom", B.headroom budget);
            ("telemetry_overhead_pct", telemetry_overhead_pct);
          ]);
    }
  in
  let ((e_obs, o_obs) as instrumented) =
    drive ~cfg:{ Run.default with metrics = true } ~budget ~ledger ()
  in
  Mkc_obs.Registry.set_enabled false;
  let mode_stats = mode_stats @ [ mode_stat ~edges "instrumented" [ seconds instrumented ] ] in
  (match !fingerprints with
  | a :: rest -> if List.exists (fun r -> r <> a) rest then fail "ingestion modes disagree!"
  | [] -> assert false);
  let estimate, z_guess, _ = List.hd !fingerprints in
  Format.printf "all modes agree: estimate %.0f (z-guess %d)@." estimate z_guess;
  let greedy = Lazy.force greedy in
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
  let winners = E.winners e_obs in
  Format.printf "winners:%s@."
    (String.concat "" (List.map (fun (who, c) -> Printf.sprintf " %s=%d" who c) winners));
  Format.printf "space budget: %d words, peak %d, headroom %.2f@." (B.budget budget)
    (B.peak budget) (B.headroom budget);
  (* Sampler hash evaluations (memo misses) on each path; both memoize,
     so the two are close and far below one per edge. *)
  let eval_ratio = float_of_int evals_batched /. float_of_int (max 1 edges) in
  Format.printf
    "sampler memo misses: %d chunked, %d per-edge (chunked = %.1f%% of %d edges)@."
    evals_batched evals_seq (100.0 *. eval_ratio) edges;
  List.iter
    (fun (ms : Mkc_obs.Ledger.mode_stat) ->
      Format.printf "  %-12s  %6.3fs  %10.0f edges/s@." ms.ms_mode ms.ms_best_s
        ms.ms_edges_per_sec)
    mode_stats;
  Format.printf "telemetry overhead vs batched: %.1f%% (%d samples in %s)@."
    telemetry_overhead_pct tel_samples tel_path;
  (* The CI speedup gate reads these: parallel throughput over batched,
     honest only when the host actually has the cores (see
     domains_recommended). *)
  let speedup = eps "parallel" /. eps "batched" in
  let speedup4 = eps "parallel-4" /. eps "batched" in
  Format.printf
    "parallel speedup vs batched: %.2fx (%d domains), %.2fx (4 domains)@."
    speedup domains speedup4;
  let open Mkc_obs.Json in
  let json =
    Object
      [
        ("edges", Int edges);
        ("n", Int n);
        ("m", Int m);
        ("k", Int k);
        ("alpha", Float alpha);
        ("domains", Int domains);
        ("estimate", Float estimate);
        ("domains_requested", Int domains);
        ("domains_recommended", Int domains_recommended);
        ("parallel_speedup_vs_batched", Float speedup);
        ("parallel4_speedup_vs_batched", Float speedup4);
        ("sampler_evals", Int evals_batched);
        ("sampler_evals_per_edge_path", Int evals_seq);
        ("sampler_evals_ratio", Float eval_ratio);
        ( "modes",
          Array
            (List.map
               (fun (ms : Mkc_obs.Ledger.mode_stat) ->
                 Object
                   [
                     ("mode", String ms.ms_mode);
                     ("seconds", Float ms.ms_best_s);
                     ("repeats", Int ms.ms_repeats);
                     ("best_s", Float ms.ms_best_s);
                     ("median_s", Float ms.ms_median_s);
                     ("edges_per_sec", Float ms.ms_edges_per_sec);
                   ])
               mode_stats) );
        ("telemetry_overhead_pct", Float telemetry_overhead_pct);
        ("telemetry_log", String tel_path);
        ("greedy", Int greedy);
        ("estimate_vs_greedy_rel_error", Float rel_err);
        ("opt_gap", Float opt_gap);
        ("winners", Object (List.map (fun (who, c) -> (who, Int c)) winners));
        ( "space",
          Object
            [
              ("budget_words", Int (B.budget budget));
              ("peak_words", Int (B.peak budget));
              ("headroom", Float (B.headroom budget));
              ("overshoots", Int (B.overshoots budget));
              ("samples", Int (B.samples budget));
            ] );
      ]
  in
  let oc = open_out json_out in
  output_string oc (to_string json ^ "\n");
  close_out oc;
  Format.printf "wrote %s@." json_out;
  (* The JSON file is overwritten per run; the run ledger accumulates,
     so bench-diff always has a baseline to compare against. *)
  match o_obs.appended with
  | Some (Ok ()) -> Format.printf "appended run record to %s@." ledger_path
  | Some (Error e) -> fail "ledger append: %s" (Mkc_obs.Ledger.error_to_string e)
  | None -> assert false

let run ~budget_strict () =
  run_with ~label:"pipeline" ~json_out:"BENCH_pipeline.json" ~n:65536 ~m:4096 ~k:32
    ~set_size:256 ~alpha:8.0 ~seed:11 ~budget_strict ()

(* CI-sized smoke run: same modes, same agreement assertions, a few
   seconds of wall clock.  Exists so CI can gate on cross-mode
   divergence without paying for the full workload. *)
let run_smoke ~budget_strict () =
  run_with ~label:"pipeline-smoke" ~json_out:"BENCH_pipeline_smoke.json" ~n:4096 ~m:512
    ~k:16 ~set_size:64 ~alpha:8.0 ~seed:11 ~budget_strict ()
