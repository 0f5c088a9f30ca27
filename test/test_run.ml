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
      ~shards:E.shards ?ckpt ?ledger ~label:"estimate" E.sink e src
  )

let telemetry ?(rules = []) log e =
  {
    Run.log = Some log;
    rules;
    probes = (fun ~breakdown -> Mkc_core.Telemetry_probes.build ~breakdown e);
    live = None;
  }

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
          ("observed", { Run.default with chunk = 700; metrics = true; cadence = 512 });
          ( "progress",
            { Run.default with chunk = 700; progress = Some (fun ~edges -> progressed := edges) }
          );
          ("pooled", { Run.default with domains = 2; chunk = 700 });
          ("pooled observed", { Run.default with domains = 2; chunk = 700; metrics = true });
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

(* One observer per run: a pooled run keeps one profile of the whole
   sink, sampled on the same window grid as a one-domain run of the
   same [chunk × slots] windows, ending at the sink's breakdown. *)
let test_profiles_per_drive () =
  with_registry_restored (fun () ->
      let src, params = instance () in
      let profiles cfg =
        let e, o = run_estimate params cfg src in
        (e, (get o).profiles)
      in
      let final_is_breakdown label (e, ps) =
        match ps with
        | [ (_, p) ] -> (
            match Mkc_obs.Space_profile.final p with
            | Some pt ->
                checkb (label ^ ": final point is the breakdown") true
                  (pt.Mkc_obs.Space_profile.breakdown
                  = Mkc_stream.Sink.canonical_breakdown (E.words_breakdown e))
            | None -> Alcotest.failf "%s: empty profile" label)
        | _ -> Alcotest.failf "%s: expected one profile" label
      in
      let one = profiles { Run.default with metrics = true; chunk = 400; cadence = 512 } in
      let pooled =
        profiles { Run.default with domains = 2; metrics = true; chunk = 200; cadence = 512 }
      in
      Alcotest.(check (list string)) "one domain: the label" [ "estimate" ] (List.map fst (snd one));
      Alcotest.(check (list string)) "pooled: the label" [ "estimate" ] (List.map fst (snd pooled));
      final_is_breakdown "one domain" one;
      final_is_breakdown "pooled" pooled;
      let points (_, ps) =
        List.map
          (fun pt -> (pt.Mkc_obs.Space_profile.at_edges, pt.Mkc_obs.Space_profile.words))
          (Mkc_obs.Space_profile.points (snd (List.hd ps)))
      in
      checkb "pooled samples the one-domain points on the same window grid" true
        (points one = points pooled);
      Alcotest.(check (list string)) "no metrics: no profiles" []
        (List.map fst (snd (profiles Run.default))))

(* The CLI cannot reach this case (its budget is the theoretical one):
   a strict budget overshoot is an error value, and the telemetry log
   the run opened is closed with the samples up to the abort. *)
let test_budget_overshoot_is_an_error () =
  let src, params = instance () in
  let log = Filename.temp_file "mkc_run" ".mkctel" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      let budget = Mkc_sketch.Space.Budget.create ~strict:true 1 in
      let _, r =
        run_estimate ~budget ~telemetry:(telemetry log) params
          { Run.default with chunk = 256; cadence = 256 }
          src
      in
      (match r with
      | Error (Run.Budget_exceeded { budget; words }) ->
          checki "budget named" 1 budget;
          checkb "words over budget" true (words > 1)
      | Error e -> Alcotest.failf "wrong error: %s" (Run.error_to_string e)
      | Ok _ -> Alcotest.fail "a 1-word strict budget must abort");
      match Mkc_obs.Telemetry.read log with
      | Error e -> Alcotest.failf "log unreadable: %s" (Mkc_obs.Telemetry.error_to_string e)
      | Ok t ->
          checkb "log untorn" true (t.torn = None);
          checkb "log holds the sample that tripped the budget" true (t.samples <> []))

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
            {
              Run.log = None;
              rules = [ rule ];
              probes = (fun ~breakdown -> Mkc_core.Telemetry_probes.build ~breakdown e);
              live = None;
            }
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
              chunk = 500 / domains;
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
    Alcotest.test_case "space profiles: one per run, pooled on the same grid" `Quick
      test_profiles_per_drive;
    Alcotest.test_case "pooled budget overshoot and health rule are errors" `Quick
      test_pooled_aborts_are_errors;
    Alcotest.test_case "progress reports positions, pooled and resumed" `Quick
      test_progress_on_resumed_run;
    Alcotest.test_case "strict budget overshoot is an error, log intact" `Quick
      test_budget_overshoot_is_an_error;
    Alcotest.test_case "health violation and unknown track are errors" `Quick
      test_health_violation_is_an_error;
    Alcotest.test_case "checkpoint failure is an error" `Quick test_checkpoint_error_is_an_error;
    Alcotest.test_case "checkpointed run resumes to the same answer" `Quick
      test_checkpointed_resume_matches;
    Alcotest.test_case "ledger record carries modes and stats" `Quick test_ledger_record;
  ]
