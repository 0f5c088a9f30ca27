(* Tests for Mkc_obs.Trace — the Chrome trace_event / Perfetto JSON
   timeline exporter — and the Space.Budget watchdog it ships with.

   Claims checked:
     1. recording while disabled is a no-op; enabled events survive the
        ring and read back oldest-first, bounded by ring_capacity;
     2. the JSON emission is byte-stable given fixed events (timestamps
        chosen as multiples of 500 ns so the microsecond floats print
        exactly), loads as a valid trace, and renumbers domain ids
        densely;
     3. tracing an Estimate run changes nothing about the computation
        (same estimate/witness/words as an untraced run, property
        tested), and the exported timeline of a real run validates;
     4. Space.Budget tracks peak/samples/overshoots, reports headroom,
        and in strict mode raises on the first overshoot — after
        counting it. *)

module Src = Mkc_stream.Stream_source
module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module P = Mkc_core.Params
module E = Mkc_core.Estimate
module Obs = Mkc_obs
module Budget = Mkc_sketch.Space.Budget

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Run [f] with tracing enabled against a clean ring, restoring the
   disabled default and an empty ring no matter how [f] exits. *)
let with_trace f =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
    f

let fingerprint (r : E.result) =
  let witness =
    match r.E.outcome with
    | None -> []
    | Some o -> List.sort compare (o.Mkc_core.Solution.witness ())
  in
  (r.E.estimate, r.E.z_guess, witness)

(* --- 1. ring behaviour --- *)

let test_disabled_noop () =
  Obs.Trace.clear ();
  checkb "switch starts off" true (not (Obs.Trace.enabled ()));
  Obs.Trace.complete "quiet" ~start_ns:1 ~dur_ns:1;
  Obs.Trace.counter "quiet.c" ~at_ns:1 5;
  checkb "disabled records nothing" true (Obs.Trace.events () = [])

let test_ring_bounded () =
  with_trace (fun () ->
      for i = 0 to Obs.Trace.ring_capacity + 99 do
        Obs.Trace.counter "tick" ~at_ns:i i
      done;
      let evs = Obs.Trace.events () in
      checki "ring keeps the newest capacity events" Obs.Trace.ring_capacity
        (List.length evs);
      (* the survivors are the most recent ones, sorted by time *)
      match evs with
      | Obs.Trace.Counter { at_ns; _ } :: _ -> checki "oldest survivor" 100 at_ns
      | _ -> Alcotest.fail "expected counter events")

let test_events_sorted () =
  with_trace (fun () ->
      Obs.Trace.complete "b" ~start_ns:2000 ~dur_ns:10;
      Obs.Trace.complete "a" ~start_ns:1000 ~dur_ns:10;
      Obs.Trace.counter "a" ~at_ns:1000 7;
      match Obs.Trace.events () with
      | [ Obs.Trace.Complete { name = "a"; _ }; Obs.Trace.Counter { name = "a"; _ };
          Obs.Trace.Complete { name = "b"; _ } ]
      | [ Obs.Trace.Counter { name = "a"; _ }; Obs.Trace.Complete { name = "a"; _ };
          Obs.Trace.Complete { name = "b"; _ } ] ->
          ()
      | l -> Alcotest.failf "unexpected order (%d events)" (List.length l))

(* --- 2. golden JSON emission --- *)

(* Timestamps are multiples of 500 ns, so every microsecond float below
   is exactly representable and prints as x.0 / x.5. *)
let golden =
  "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
   \"args\":{\"name\":\"mkc\"}},\
   {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
   \"args\":{\"name\":\"domain 0\"}},\
   {\"name\":\"pipeline.chunk\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.0,\"dur\":2.5},\
   {\"name\":\"estimate.z4.rep0\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.0,\"dur\":0.5},\
   {\"name\":\"pipeline.edges\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":2.5,\
   \"args\":{\"value\":5}}]"

let test_golden_export () =
  with_trace (fun () ->
      Obs.Trace.complete "pipeline.chunk" ~start_ns:1000 ~dur_ns:2500;
      Obs.Trace.complete "estimate.z4.rep0" ~start_ns:2000 ~dur_ns:500;
      Obs.Trace.counter "pipeline.edges" ~at_ns:3500 5;
      let s = Obs.Trace.to_string ~events:(Obs.Trace.events ()) () in
      checks "byte-stable trace JSON" golden s;
      match Obs.Trace.validate s with
      | Ok n -> checki "golden validates, metadata included" 5 n
      | Error e -> Alcotest.failf "golden trace rejected: %s" e)

let test_multi_domain_tids () =
  with_trace (fun () ->
      List.map
        (fun t ->
          Domain.spawn (fun () -> Obs.Trace.complete "work" ~start_ns:t ~dur_ns:100))
        [ 1000; 2000 ]
      |> List.iter Domain.join;
      let s = Obs.Trace.to_string ~events:(Obs.Trace.events ()) () in
      (match Obs.Trace.validate s with
      | Ok n -> checki "two spans + three metadata events" 5 n
      | Error e -> Alcotest.failf "multi-domain trace rejected: %s" e);
      (* dense renumbering: whatever the real domain ids were, the
         emitted trace names threads "domain 0" and "domain 1" *)
      let contains sub =
        let ls = String.length s and lb = String.length sub in
        let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
        go 0
      in
      checkb "thread 0 named" true (contains "domain 0");
      checkb "thread 1 named" true (contains "domain 1");
      checkb "no raw domain ids leak" true (not (contains "domain 2")))

let test_validate_rejects () =
  let reject what s =
    match Obs.Trace.validate s with
    | Ok _ -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  reject "a non-array" "{}";
  reject "an event without a phase" "[{\"name\":\"x\",\"pid\":1,\"tid\":0}]";
  reject "a complete event without dur"
    "[{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.0}]";
  reject "a negative timestamp"
    "[{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":-1.0,\"dur\":1.0}]";
  reject "a counter without a value"
    "[{\"name\":\"x\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1.0,\"args\":{}}]";
  reject "an unknown phase"
    "[{\"name\":\"x\",\"ph\":\"Q\",\"pid\":1,\"tid\":0,\"ts\":1.0}]"

(* --- 3. tracing is transparent to the computation --- *)

let run_estimate ~seed =
  let sys = Mkc_workload.Random_inst.uniform ~n:64 ~m:24 ~set_size:12 ~seed in
  let src = Src.of_system ~seed:(seed + 1) sys in
  let params = P.make ~m:24 ~n:64 ~k:3 ~alpha:4.0 ~seed:5 () in
  let est = E.create params in
  let r = Pipe.run ~chunk:64 E.sink est src in
  (fingerprint r, E.words est, E.words_breakdown est)

let prop_traced_equals_untraced =
  QCheck.Test.make ~name:"traced run ≡ untraced run (random streams)" ~count:20
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1000))
    (fun seed ->
      let bare = run_estimate ~seed in
      let traced = with_trace (fun () -> run_estimate ~seed) in
      bare = traced)

let test_real_run_trace_validates () =
  with_trace (fun () ->
      let sys = Mkc_workload.Random_inst.uniform ~n:256 ~m:64 ~set_size:16 ~seed:9 in
      let src = Src.of_system ~seed:10 sys in
      let params = P.make ~m:64 ~n:256 ~k:4 ~alpha:4.0 ~seed:5 () in
      let est = E.create params in
      ignore (Pipe.run ~chunk:128 E.sink est src);
      let evs = Obs.Trace.events () in
      checkb "a real run records spans" true (evs <> []);
      let names =
        List.map
          (function Obs.Trace.Complete { name; _ } -> name | Obs.Trace.Counter { name; _ } -> name)
          evs
      in
      checkb "per-chunk pipeline spans present" true (List.mem "pipeline.chunk" names);
      checkb "per-instance oracle spans present" true
        (List.exists (fun n -> String.length n >= 10 && String.sub n 0 10 = "estimate.z") names);
      checkb "edge-throughput counter present" true (List.mem "pipeline.edges" names);
      match Obs.Trace.validate (Obs.Trace.to_string ~events:evs ()) with
      | Ok n -> checkb "export validates" true (n > List.length evs)
      | Error e -> Alcotest.failf "real-run trace rejected: %s" e)

(* --- 4. the space-budget watchdog --- *)

let test_budget_tracking () =
  let b = Budget.create 100 in
  checkb "lenient by default" true (not (Budget.strict b));
  checki "budget stored" 100 (Budget.budget b);
  Budget.observe b 40;
  Budget.observe b 70;
  Budget.observe b 60;
  checki "peak is the high-water mark" 70 (Budget.peak b);
  checki "samples counted" 3 (Budget.samples b);
  checki "no overshoots within budget" 0 (Budget.overshoots b);
  checkb "headroom = peak/budget" true (Budget.headroom b = 0.7);
  Budget.observe b 150;
  Budget.observe b 120;
  checki "overshoots counted, not fatal" 2 (Budget.overshoots b);
  checki "peak keeps growing" 150 (Budget.peak b);
  (* the space.* gauges carry the same verdict, in the form snapshot
     validation demands *)
  let reg = Obs.Registry.global in
  Obs.Registry.reset reg;
  Obs.Registry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Registry.set_enabled false;
      Obs.Registry.reset reg)
    (fun () ->
      Sink.Observed.budget_evidence b;
      let gauge name =
        match Obs.Registry.read reg name with
        | Some (Obs.Registry.Gauge g) -> g
        | _ -> Alcotest.failf "gauge %s not published" name
      in
      checkb "space.budget_words" true (gauge "space.budget_words" = 100.0);
      checkb "space.peak_words" true (gauge "space.peak_words" = 150.0);
      checkb "space.overshoots" true (gauge "space.overshoots" = 2.0);
      checkb "space.samples" true (gauge "space.samples" = 5.0);
      checkb "space.headroom" true (gauge "space.headroom" = 1.5);
      match Obs.Snapshot.validate (Obs.Snapshot.to_string (Obs.Snapshot.capture reg)) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "snapshot with budget gauges rejected: %s" e);
  Alcotest.check_raises "budget must be positive"
    (Invalid_argument "Space.Budget.create: budget must be positive") (fun () ->
      ignore (Budget.create 0))

let test_budget_strict_raises () =
  let b = Budget.create ~strict:true 100 in
  Budget.observe b 99;
  (match Budget.observe b 101 with
  | () -> Alcotest.fail "strict overshoot did not raise"
  | exception Budget.Exceeded { budget; words } ->
      checki "exception carries the budget" 100 budget;
      checki "exception carries the words" 101 words);
  (* the overshoot is recorded before the raise, so post-mortem
     telemetry sees it *)
  checki "overshoot counted before raising" 1 (Budget.overshoots b);
  checki "peak updated before raising" 101 (Budget.peak b);
  checki "both samples counted" 2 (Budget.samples b)

(* Mutated trace JSON validates or is a named error. *)
let fuzz_trace_json =
  Mutation.text_fuzz ~name:"fuzz: mutated trace JSON validates or names the fault" ~seed:22
    ~valid:golden
    ~decode:(fun s () -> Result.map ignore (Obs.Trace.validate s))
    ~named:(fun msg -> msg <> "")

let suite =
  [
    Alcotest.test_case "trace: disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "trace: ring is bounded" `Quick test_ring_bounded;
    Alcotest.test_case "trace: events sorted by time" `Quick test_events_sorted;
    Alcotest.test_case "trace: golden Perfetto JSON" `Quick test_golden_export;
    Alcotest.test_case "trace: multi-domain tid renumbering" `Quick
      test_multi_domain_tids;
    Alcotest.test_case "trace: validator rejects malformed events" `Quick
      test_validate_rejects;
    Alcotest.test_case "trace: real run exports a valid timeline" `Quick
      test_real_run_trace_validates;
    Alcotest.test_case "budget: peak/samples/headroom tracking" `Quick
      test_budget_tracking;
    Alcotest.test_case "budget: strict mode raises after counting" `Quick
      test_budget_strict_raises;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_traced_equals_untraced ]
  @ [ fuzz_trace_json ]
