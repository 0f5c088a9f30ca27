(* Mkc_core.Run, the one run path behind the CLI and the pipeline bench:
   every drive it picks answers like Pipeline.run_seq, and every abort
   comes back as a typed error with its evidence intact — never an
   exception, never a torn telemetry log. *)

module Src = Mkc_stream.Stream_source
module Pipe = Mkc_stream.Pipeline
module P = Mkc_core.Params
module E = Mkc_core.Estimate
module Run = Mkc_core.Run

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let instance () =
  let n = 512 and m = 128 and k = 4 and seed = 3 in
  let pl = Mkc_workload.Planted.few_large ~n ~m ~k ~seed in
  let src =
    Src.of_array (Mkc_stream.Set_system.edge_stream ~seed:(seed + 7) pl.Mkc_workload.Planted.system)
  in
  (src, P.make ~m ~n ~k ~alpha:4.0 ~seed ())

let fingerprint (r : E.result) =
  let witness =
    match r.E.outcome with
    | None -> []
    | Some o -> List.sort compare (o.Mkc_core.Solution.witness ())
  in
  (r.E.estimate, r.E.z_guess, witness)

(* Metrics and ledger runs switch the global registry on; put it back. *)
let with_registry_restored f =
  Fun.protect
    ~finally:(fun () ->
      Mkc_obs.Registry.set_enabled false;
      Mkc_obs.Registry.reset Mkc_obs.Registry.global)
    f

let run_estimate ?budget ?telemetry ?ckpt ?ledger params cfg src =
  let e = E.create params in
  ( e,
    Run.run cfg ?budget
      ?telemetry:(Option.map (fun t -> t e) telemetry)
      ~shards:E.shards ~finalize:E.finalize ?ckpt ?ledger ~label:"estimate" E.sink e src
  )

let telemetry ?(rules = []) log e =
  { Run.log = Some log; rules; probes = Mkc_core.Telemetry_probes.build e }

let get = function
  | Ok (o : _ Run.outcome) -> o
  | Error e -> Alcotest.failf "run failed: %s" (Run.error_to_string e)

let test_every_drive_matches_run_seq () =
  with_registry_restored (fun () ->
      let src, params = instance () in
      let e0 = E.create params in
      let r0 = Pipe.run_seq E.sink e0 src in
      let progressed = ref 0 and pooled_progressed = ref 0 in
      List.iter
        (fun (name, cfg) ->
          let e, o = run_estimate params cfg src in
          let o = get o in
          checkb (name ^ ": same answer") true (fingerprint o.result = fingerprint r0);
          checki (name ^ ": words are the sink's") (E.words e) o.words;
          checki (name ^ ": same words") (E.words e0) o.words)
        [
          ("plain", { Run.default with chunk = 700 });
          ("metrics", { Run.default with chunk = 700; metrics = true; cadence = 512 });
          ( "progress",
            { Run.default with chunk = 700; progress = Some (fun ~edges -> progressed := edges) }
          );
          ("pooled", { Run.default with domains = 2; chunk = 700 });
          ("pooled metrics", { Run.default with domains = 2; chunk = 700; metrics = true });
          ( "pooled progress",
            {
              Run.default with
              domains = 2;
              chunk = 700;
              progress = Some (fun ~edges -> pooled_progressed := edges);
            } );
        ];
      checki "progress saw every edge" (Src.length src) !progressed;
      checki "pooled progress saw every edge" (Src.length src) !pooled_progressed)

(* One observer per run: a pooled run's telemetry log samples the whole
   sink on the same window grid as a one-domain run of the same
   [chunk] windows, ending at the sink's breakdown; metrics
   alone observe nothing. *)
let test_profiles_per_drive () =
  with_registry_restored (fun () ->
      let src, params = instance () in
      let logged cfg =
        let log = Filename.temp_file "mkc_run" ".mkctel" in
        Fun.protect
          ~finally:(fun () -> Sys.remove log)
          (fun () ->
            let e, o = run_estimate ~telemetry:(telemetry log) params cfg src in
            checkb "samples counted" true ((get o).samples > 0);
            match Mkc_obs.Telemetry.read log with
            | Ok t -> (e, t)
            | Error err ->
                Alcotest.failf "log unreadable: %s" (Mkc_obs.Telemetry.error_to_string err))
      in
      (* (track key, column) of every space.* track *)
      let space (t : Mkc_obs.Telemetry.log) =
        List.filter_map
          (fun (i, name) ->
            match String.split_on_char '.' name with
            | "space" :: key -> Some (String.concat "." key, i)
            | _ -> None)
          (List.mapi (fun i n -> (i, n)) (Array.to_list t.tracks))
      in
      let final_is_breakdown label (e, (t : Mkc_obs.Telemetry.log)) =
        let last = List.nth t.samples (List.length t.samples - 1) in
        checkb (label ^ ": final row is the breakdown") true
          (List.filter_map
             (fun (k, i) -> if k = "words" then None else Some (k, last.values.(i)))
             (space t)
          = Mkc_stream.Sink.canonical_breakdown (E.words_breakdown e))
      in
      let rows (_, (t : Mkc_obs.Telemetry.log)) =
        let words = List.assoc "words" (space t) in
        List.map (fun (s : Mkc_obs.Telemetry.sample) -> (s.s_edges, s.values.(words))) t.samples
      in
      let one = logged { Run.default with chunk = 400; cadence = 512 } in
      let pooled = logged { Run.default with domains = 2; chunk = 400; cadence = 512 } in
      final_is_breakdown "one domain" one;
      final_is_breakdown "pooled" pooled;
      checkb "pooled samples the one-domain rows on the same window grid" true
        (rows one = rows pooled);
      (* Only an observer reads the breakdown mid-run: count the reads. *)
      let reads = ref 0 in
      let counting : (E.t, E.result) Mkc_stream.Sink.sink =
        let (module S) = E.sink in
        (module struct
          include S

          let words_breakdown t =
            incr reads;
            S.words_breakdown t
        end)
      in
      let sampled ?budget cfg =
        reads := 0;
        ignore (get (Run.run cfg ?budget ~label:"estimate" counting (E.create params) src));
        !reads
      in
      let cfg = { Run.default with metrics = true; cadence = 512 } in
      checki "metrics alone: nothing sampled" 0 (sampled cfg);
      checkb "a budget: sampled" true
        (sampled ~budget:(Mkc_sketch.Space.Budget.create ~strict:false max_int) cfg > 0))

(* Each sample's space.words is the breakdown walked at that sample,
   whatever the clock reads: under a constant clock every row still
   follows the sink, and the last one is the run's words. *)
let test_samples_follow_the_sink_under_a_frozen_clock () =
  let src, params = instance () in
  (* the sum of every breakdown walk, newest first *)
  let walks = ref [] in
  let walked : (E.t, E.result) Mkc_stream.Sink.sink =
    let (module S) = E.sink in
    (module struct
      include S

      let words_breakdown t =
        let bd = S.words_breakdown t in
        walks := List.fold_left (fun acc (_, w) -> acc + w) 0 bd :: !walks;
        bd
    end)
  in
  let log = Filename.temp_file "mkc_run" ".mkctel" in
  Fun.protect
    ~finally:(fun () ->
      Mkc_obs.Clock.use_wall_clock ();
      Sys.remove log)
    (fun () ->
      Mkc_obs.Clock.set_source (fun () -> 42);
      let e = E.create params in
      let o =
        get
          (Run.run
             { Run.default with chunk = 400; cadence = 512 }
             ~telemetry:(telemetry log e) ~label:"estimate" walked e src)
      in
      let t =
        match Mkc_obs.Telemetry.read log with
        | Ok t -> t
        | Error err -> Alcotest.failf "log unreadable: %s" (Mkc_obs.Telemetry.error_to_string err)
      in
      let col = Option.get (Array.find_index (String.equal "space.words") t.tracks) in
      let logged = List.map (fun (s : Mkc_obs.Telemetry.sample) -> s.values.(col)) t.samples in
      let n = List.length logged in
      checki "one sample per counted row" o.samples n;
      (* one walk names the tracks, then one walk per sample *)
      checki "one breakdown walk per sample" (n + 1) (List.length !walks);
      Alcotest.(check (list int))
        "each sample is its own walk" (List.rev (List.filteri (fun i _ -> i < n) !walks)) logged;
      checki "the last sample is the run's words" o.words (List.nth logged (n - 1));
      checkb "the words move during the run" true
        (List.sort_uniq compare logged <> [ List.hd logged ]))

(* The sampler takes at most one sample per window: a cadence below
   the chunk is coarsened to the windows, one sample each, plus the one
   after finalize — on one domain and pooled alike. *)
let test_cadence_below_chunk () =
  let src, params = instance () in
  let chunk = 400 in
  let windows = (Src.length src + chunk - 1) / chunk in
  List.iter
    (fun domains ->
      let log = Filename.temp_file "mkc_run" ".mkctel" in
      Fun.protect
        ~finally:(fun () -> Sys.remove log)
        (fun () ->
          let _, o =
            run_estimate ~telemetry:(telemetry log) params
              { Run.default with domains; chunk; cadence = 64 }
              src
          in
          let label = Printf.sprintf "%d domains" domains in
          checki (label ^ ": one sample per window, one after finalize") (windows + 1)
            (get o).samples;
          match Mkc_obs.Telemetry.read log with
          | Ok t -> checki (label ^ ": the log holds them") (windows + 1) (List.length t.samples)
          | Error e -> Alcotest.failf "log unreadable: %s" (Mkc_obs.Telemetry.error_to_string e)))
    [ 1; 2 ]

(* The CLI cannot reach this case (its budget is the theoretical one):
   a strict budget overshoot is an error value, and the telemetry log
   the run opened is closed with the samples up to the abort. *)
let test_budget_overshoot_is_an_error () =
  let src, params = instance () in
  let log = Filename.temp_file "mkc_run" ".mkctel" in
  let tripped what r =
    match r with
    | Error (Run.Budget_exceeded { budget; words }) ->
        checki (what ^ ": budget named") 1 budget;
        checkb (what ^ ": words over budget") true (words > 1)
    | Error e -> Alcotest.failf "%s: wrong error: %s" what (Run.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: a 1-word strict budget must abort" what
  in
  let log_intact what =
    match Mkc_obs.Telemetry.read log with
    | Error e ->
        Alcotest.failf "%s: log unreadable: %s" what (Mkc_obs.Telemetry.error_to_string e)
    | Ok t ->
        checkb (what ^ ": log untorn") true (t.torn = None);
        checkb (what ^ ": log holds the sample that tripped the budget") true (t.samples <> [])
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      let budget = Mkc_sketch.Space.Budget.create ~strict:true 1 in
      let _, r =
        run_estimate ~budget ~telemetry:(telemetry log) params
          { Run.default with chunk = 256; cadence = 256 }
          src
      in
      tripped "estimate" r;
      log_intact "estimate";
      (* The windowed drive ([mkc estimate --window]) goes through the
         same observer. *)
      let w = Mkc_core.Windowed.create params ~window:2 ~epoch_edges:1000 () in
      let r =
        Run.run
          { Run.default with chunk = 256; cadence = 256 }
          ~budget:(Mkc_sketch.Space.Budget.create ~strict:true 1)
          ~telemetry:
            { Run.log = Some log; rules = []; probes = Mkc_core.Telemetry_probes.build_windowed w }
          ~label:"estimate" Mkc_core.Windowed.sink w src
      in
      tripped "windowed" r;
      log_intact "windowed");
  (* A non-strict budget only records the overshoot: a checkpoint saved
     while over it still resumes to the uninterrupted answer. *)
  let path = Filename.temp_file "mkc_run" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r0 = Pipe.run_seq E.sink (E.create params) src in
      let cfg = { Run.default with chunk = 500; cadence = 500 } in
      let half = Src.of_array (Array.sub (Src.to_array src) 0 2000) in
      let ckpt resume save = { Run.codec = E.codec params; every = 1; save; resume } in
      let budget = Mkc_sketch.Space.Budget.create ~strict:false 1 in
      ignore (get (snd (run_estimate ~budget ~ckpt:(ckpt None (Some path)) params cfg half)));
      checkb "over budget while saving" true (Mkc_sketch.Space.Budget.overshoots budget > 0);
      let o = get (snd (run_estimate ~ckpt:(ckpt (Some path) None) params cfg src)) in
      checkb "resumed answer" true (fingerprint o.result = fingerprint r0))

let test_health_violation_is_an_error () =
  with_registry_restored (fun () ->
      let src, params = instance () in
      let log = Filename.temp_file "mkc_run" ".mkctel" in
      Fun.protect
        ~finally:(fun () -> Sys.remove log)
        (fun () ->
          let rule =
            match Mkc_obs.Health.parse "cap=space.words>1!" with
            | Ok r -> r
            | Error msg -> Alcotest.fail msg
          in
          let _, r =
            run_estimate ~telemetry:(telemetry ~rules:[ rule ] log) params Run.default src
          in
          (match r with
          | Error (Run.Health_violation msg) ->
              checkb "names the rule" true (String.starts_with ~prefix:"cap" msg)
          | Error e -> Alcotest.failf "wrong error: %s" (Run.error_to_string e)
          | Ok _ -> Alcotest.fail "an escalated rule must abort");
          match Mkc_obs.Telemetry.read log with
          | Ok t -> checkb "log untorn" true (t.torn = None)
          | Error e -> Alcotest.failf "log unreadable: %s" (Mkc_obs.Telemetry.error_to_string e));
      (* A rule naming a track the probes lack is refused before any feed. *)
      let rule =
        match Mkc_obs.Health.parse "x=no.such.track>1" with Ok r -> r | Error m -> Alcotest.fail m
      in
      let e = E.create (snd (instance ())) in
      match
        Run.run Run.default
          ~telemetry:
            { Run.log = None; rules = [ rule ]; probes = Mkc_core.Telemetry_probes.build e }
          ~label:"estimate" E.sink e src
      with
      | Error (Run.Health_rules _) -> ()
      | _ -> Alcotest.fail "an unknown track must be a Health_rules error")

let test_checkpoint_error_is_an_error () =
  let src, params = instance () in
  let ckpt =
    { Run.codec = E.codec params; every = 1; save = None; resume = Some "no/such/ckpt.json" }
  in
  match snd (run_estimate ~ckpt params Run.default src) with
  | Error (Run.Checkpoint _) -> ()
  | _ -> Alcotest.fail "a missing resume file must be a Checkpoint error"

let test_checkpointed_resume_matches () =
  let src, params = instance () in
  let path = Filename.temp_file "mkc_run" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r0 = Pipe.run_seq E.sink (E.create params) src in
      let cfg = { Run.default with chunk = 500 } in
      let half = Src.of_array (Array.sub (Src.to_array src) 0 2000) in
      let ckpt resume save = { Run.codec = E.codec params; every = 1; save; resume } in
      ignore (get (snd (run_estimate ~ckpt:(ckpt None (Some path)) params cfg half)));
      let o = get (snd (run_estimate ~ckpt:(ckpt (Some path) None) params cfg src)) in
      checkb "resumed answer" true (fingerprint o.result = fingerprint r0))

(* A pooled run is observed like a one-domain run: a strict budget trips
   at the first sample over it, not at finalize, and an escalating
   health rule aborts — both as error values. *)
let test_pooled_aborts_are_errors () =
  with_registry_restored (fun () ->
      let src, params = instance () in
      let cfg = { Run.default with domains = 2; chunk = 128; cadence = 256 } in
      let budget = Mkc_sketch.Space.Budget.create ~strict:true 1 in
      (match snd (run_estimate ~budget params cfg src) with
      | Error (Run.Budget_exceeded { budget = 1; _ }) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Run.error_to_string e)
      | Ok _ -> Alcotest.fail "a 1-word strict budget must abort a pooled run");
      checki "tripped at the first window sample" 1 (Mkc_sketch.Space.Budget.samples budget);
      let log = Filename.temp_file "mkc_run" ".mkctel" in
      Fun.protect
        ~finally:(fun () -> Sys.remove log)
        (fun () ->
          let rule =
            match Mkc_obs.Health.parse "cap=space.words>1!" with
            | Ok r -> r
            | Error msg -> Alcotest.fail msg
          in
          (match snd (run_estimate ~telemetry:(telemetry ~rules:[ rule ] log) params cfg src) with
          | Error (Run.Health_violation msg) ->
              checkb "names the rule" true (String.starts_with ~prefix:"cap" msg)
          | Error e -> Alcotest.failf "wrong error: %s" (Run.error_to_string e)
          | Ok _ -> Alcotest.fail "an escalated rule must abort a pooled run");
          match Mkc_obs.Telemetry.read log with
          | Ok t -> checkb "log untorn, with the sample" true (t.torn = None && t.samples <> [])
          | Error e -> Alcotest.failf "log unreadable: %s" (Mkc_obs.Telemetry.error_to_string e)))

(* Progress reports the stream position after every window, on one
   domain and pooled, and a resumed run starts from the checkpoint's
   position. *)
let test_progress_on_resumed_run () =
  let src, params = instance () in
  let n = Src.length src in
  let half = Src.of_array (Array.sub (Src.to_array src) 0 1000) in
  List.iter
    (fun domains ->
      let path = Filename.temp_file "mkc_run" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let seen = ref [] in
          let cfg =
            {
              Run.default with
              domains;
              chunk = 500;
              progress = Some (fun ~edges -> seen := edges :: !seen);
            }
          in
          let ckpt resume save = { Run.codec = E.codec params; every = 1; save; resume } in
          ignore (get (snd (run_estimate ~ckpt:(ckpt None (Some path)) params cfg half)));
          let label = Printf.sprintf "%d domain(s)" domains in
          Alcotest.(check (list int)) (label ^ ": prefix positions") [ 1000; 500 ] !seen;
          seen := [];
          ignore (get (snd (run_estimate ~ckpt:(ckpt (Some path) None) params cfg src)));
          checki (label ^ ": resumed run's first report") 1500 (List.hd (List.rev !seen));
          checki (label ^ ": resumed run's last report") n (List.hd !seen)))
    [ 1; 2 ]

let test_ledger_record () =
  with_registry_restored (fun () ->
      let src, params = instance () in
      let path = Filename.temp_file "mkc_run" ".mkcledg" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let prior =
            {
              Mkc_obs.Ledger.ms_mode = "per-edge";
              ms_repeats = 1;
              ms_best_s = 1.0;
              ms_median_s = 1.0;
              ms_edges_per_sec = 1.0;
            }
          in
          let ledger =
            {
              Run.path;
              params = [ ("k", Mkc_obs.Json.Int 4) ];
              mode = "sequential";
              modes = [ prior ];
              stats = (fun r -> [ ("estimate", r.E.estimate) ]);
            }
          in
          let o = get (snd (run_estimate ~ledger params Run.default src)) in
          checkb "appended" true (o.appended = Some (Ok ()));
          match Mkc_obs.Ledger.read path with
          | Error e -> Alcotest.failf "ledger: %s" (Mkc_obs.Ledger.error_to_string e)
          | Ok { entries = [ e ]; _ } ->
              Alcotest.(check string) "label" "estimate" e.e_label;
              Alcotest.(check (list string))
                "modes" [ "per-edge"; "sequential" ]
                (List.map (fun (m : Mkc_obs.Ledger.mode_stat) -> m.ms_mode) e.e_modes);
              Alcotest.(check (float 0.0))
                "space_words stat" (float_of_int o.words)
                (List.assoc "space_words" e.e_stats);
              Alcotest.(check (float 0.0))
                "edges stat" (float_of_int (Src.length src)) (List.assoc "edges" e.e_stats);
              checkb "caller stats kept" true (List.mem_assoc "estimate" e.e_stats)
          | Ok _ -> Alcotest.fail "expected exactly one record"))

let suite =
  [
    Alcotest.test_case "every drive answers like run_seq" `Quick
      test_every_drive_matches_run_seq;
    Alcotest.test_case "space profiles: one per run, pooled on the same grid (telemetry rows)"
      `Quick
      test_profiles_per_drive;
    Alcotest.test_case "pooled budget overshoot and health rule are errors" `Quick
      test_pooled_aborts_are_errors;
    Alcotest.test_case "progress reports positions, pooled and resumed" `Quick
      test_progress_on_resumed_run;
    Alcotest.test_case "samples follow the sink under a frozen clock" `Quick
      test_samples_follow_the_sink_under_a_frozen_clock;
    Alcotest.test_case "strict budget overshoot is an error, log intact" `Quick
      test_budget_overshoot_is_an_error;
    Alcotest.test_case "health violation and unknown track are errors" `Quick
      test_health_violation_is_an_error;
    Alcotest.test_case "checkpoint failure is an error" `Quick test_checkpoint_error_is_an_error;
    Alcotest.test_case "checkpointed run resumes to the same answer" `Quick
      test_checkpointed_resume_matches;
    Alcotest.test_case "ledger record carries modes and stats" `Quick test_ledger_record;
    Alcotest.test_case "a cadence below the chunk samples once per window" `Quick
      test_cadence_below_chunk;
  ]
