(* Tests for Mkc_obs and the Sink.Observed instrumentation layer.

   The load-bearing claims:
     1. the registry's merge algebra is a commutative monoid, so per-domain
        shard merges equal a single sequential history;
     2. a Registry populated from several domains reads back exactly
        what the same writes from one domain would have produced;
     3. observing a run (Sink.Observed sampling between windows, on
        one domain or pooled, checkpointed or not) changes nothing about
        the computation — same result, same words, same work counters —
        and the telemetry log's final space.words equals the observed
        breakdown (the sink's plus the held checkpoint) exactly;
     4. pooled and one-domain ingestion agree metric-for-metric
        on the invariant counters;
     5. the mkc-obs/6 JSON snapshot is byte-stable under an injected
        clock and survives a parse→validate round trip, while tampered
        snapshots (the space.* budget gauges included) are rejected, the
        retired mkc-obs/1 through mkc-obs/5 schemas by name;
     6. the Prometheus exposition handles hostile metric names and
        non-finite gauge values, and bucket counts stay monotone under
        histogram merges. *)

module Edge = Mkc_stream.Edge
module Ss = Mkc_stream.Set_system
module Src = Mkc_stream.Stream_source
module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module P = Mkc_core.Params
module E = Mkc_core.Estimate
module Run = Mkc_core.Run
module Obs = Mkc_obs
module H = Mkc_obs.Histogram

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let instance () =
  let n = 512 and m = 128 and k = 4 and seed = 3 in
  let pl = Mkc_workload.Planted.few_large ~n ~m ~k ~seed in
  let sys = pl.Mkc_workload.Planted.system in
  let src = Src.of_array (Ss.edge_stream ~seed:(seed + 7) sys) in
  (src, P.make ~m ~n ~k ~alpha:4.0 ~seed ())

let fingerprint (r : E.result) =
  let witness =
    match r.E.outcome with
    | None -> []
    | Some o -> List.sort compare (o.Mkc_core.Solution.witness ())
  in
  (r.E.estimate, r.E.z_guess, witness)

(* Compare histograms on their meaningful fields (vmin/vmax are
   unspecified at count = 0). *)
let hist_eq (a : H.t) (b : H.t) =
  a.H.count = b.H.count
  && a.H.sum = b.H.sum
  && a.H.buckets = b.H.buckets
  && (a.H.count = 0 || (a.H.vmin = b.H.vmin && a.H.vmax = b.H.vmax))

let hist_of values =
  let h = H.create () in
  List.iter (H.record h) values;
  h

(* Run [f] with metrics enabled, then restore the disabled default no
   matter how [f] exits. *)
let with_metrics f =
  Obs.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Registry.set_enabled false) f

(* --- Registry merge algebra --- *)

let test_merge_scalars () =
  (* [first] is written on this domain, [second] on another; the read
     merges the two shards. *)
  let merged first second =
    let r = Obs.Registry.create () in
    let c = Obs.Registry.counter r "c" and s = Obs.Registry.gauge r "s" in
    let m = Obs.Registry.gauge ~mode:`Max r "m" in
    let write (n, v) =
      Obs.Registry.add c n;
      Obs.Registry.set s v;
      Obs.Registry.set m v
    in
    with_metrics (fun () ->
        write first;
        Domain.join (Domain.spawn (fun () -> write second)));
    List.map (fun name -> Obs.Registry.read r name) [ "c"; "s"; "m" ]
  in
  match (merged (3, 1.5) (4, 2.5), merged (4, 2.5) (3, 1.5)) with
  | ( [ Some (Counter c); Some (Gauge s); Some (Gauge m) ],
      [ Some (Counter c'); Some (Gauge s'); Some (Gauge m') ] ) ->
      checki "counters merge by sum" 7 c;
      checkb "sum gauge" true (s = 4.0);
      checkb "max gauge" true (m = 2.5);
      checkb "merges commute" true (c' = c && s' = s && m' = m)
  | _ -> Alcotest.fail "registry reads lost a metric or its kind"

let test_histogram_buckets () =
  checki "negatives clamp to bucket 0" 0 (H.bucket_of (-5));
  checki "values below 16 get exact buckets" 3 (H.bucket_of 3);
  checki "the layouts agree on the seam: 31 is bucket 31" 31 (H.bucket_of 31);
  checki "octave 2 halves resolution: 33 shares bucket 32" 32 (H.bucket_of 33);
  checki "1024 lands at its octave base" 112 (H.bucket_of 1024);
  checki "bucket bound is the largest value mapping there" 1087
    (H.bound_of_bucket 112);
  let h = hist_of [ 1; 3; 3; 1024 ] in
  checkb "nonzero buckets" true
    (H.nonzero_buckets h = [ (1, 1); (3, 2); (112, 1) ]);
  checki "median is exact below 16" 3 (H.quantile h 0.5);
  checki "top quantile capped at the observed max" 1024 (H.quantile h 1.0);
  checki "empty quantile is 0" 0 (H.quantile (H.create ()) 0.5)

let test_histogram_monoid () =
  let xs = [ 1; 2; 3 ] and ys = [ 4; 100 ] and zs = [ 7 ] in
  let a () = hist_of xs and b () = hist_of ys and c () = hist_of zs in
  let zero () = H.create () in
  checkb "left identity" true (hist_eq (H.merge (zero ()) (a ())) (a ()));
  checkb "right identity" true (hist_eq (H.merge (a ()) (zero ())) (a ()));
  checkb "commutative" true
    (hist_eq (H.merge (a ()) (b ())) (H.merge (b ()) (a ())));
  checkb "associative" true
    (hist_eq
       (H.merge (H.merge (a ()) (b ())) (c ()))
       (H.merge (a ()) (H.merge (b ()) (c ()))));
  checkb "merge equals one sequential history" true
    (hist_eq (H.merge (a ()) (b ())) (hist_of (xs @ ys)));
  let dst = a () in
  H.merge_into ~dst (b ());
  checkb "merge_into agrees with merge" true (hist_eq dst (hist_of (xs @ ys)))

(* --- Registry: sharded writes merge to the sequential answer --- *)

let test_registry_disabled_noop () =
  let r = Obs.Registry.create () in
  checkb "switch starts off" true (not (Obs.Registry.enabled ()));
  let c = Obs.Registry.counter r "c" in
  Obs.Registry.add c 5;
  Obs.Registry.incr c;
  checkb "writes while disabled are dropped" true
    (Obs.Registry.read r "c" = Some (Obs.Registry.Counter 0));
  checkb "unregistered name reads None" true (Obs.Registry.read r "nope" = None)

let test_registry_domain_merge () =
  with_metrics (fun () ->
      (* The same write sequence, once from three spawned domains and
         once from this domain alone, must read back identically for
         counters and histograms (order-insensitive merges). *)
      let ops = [ (1, 2.0); (2, 16.0); (3, 5.0) ] in
      let par = Obs.Registry.create () in
      List.map
        (fun (inc, obs) ->
          Domain.spawn (fun () ->
              Obs.Registry.add (Obs.Registry.counter par "c") inc;
              Obs.Registry.observe (Obs.Registry.histogram par "h") obs))
        ops
      |> List.iter Domain.join;
      let seq = Obs.Registry.create () in
      List.iter
        (fun (inc, obs) ->
          Obs.Registry.add (Obs.Registry.counter seq "c") inc;
          Obs.Registry.observe (Obs.Registry.histogram seq "h") obs)
        ops;
      checkb "sharded dump = sequential dump" true
        (Obs.Registry.dump par = Obs.Registry.dump seq);
      (* Gauges merge by their registered mode across domains. *)
      let g = Obs.Registry.create () in
      List.map
        (fun v ->
          Domain.spawn (fun () ->
              Obs.Registry.set (Obs.Registry.gauge ~mode:`Sum g "busy") v;
              Obs.Registry.set (Obs.Registry.gauge ~mode:`Max g "peak") v))
        [ 1.0; 2.0; 3.0 ]
      |> List.iter Domain.join;
      checkb "sum gauge adds across domains" true
        (Obs.Registry.read g "busy" = Some (Obs.Registry.Gauge 6.0));
      checkb "max gauge high-water marks" true
        (Obs.Registry.read g "peak" = Some (Obs.Registry.Gauge 3.0));
      let r = Obs.Registry.create () in
      ignore (Obs.Registry.counter r "x");
      Alcotest.check_raises "re-registering under a different kind"
        (Invalid_argument "Registry: \"x\" re-registered as a different kind")
        (fun () -> ignore (Obs.Registry.gauge r "x")))

let test_registry_reset () =
  with_metrics (fun () ->
      let r = Obs.Registry.create () in
      Obs.Registry.add (Obs.Registry.counter r "c") 9;
      Obs.Registry.reset r;
      checkb "reset zeroes but keeps registration" true
        (Obs.Registry.read r "c" = Some (Obs.Registry.Counter 0)))

(* --- Spans and the injectable clock --- *)

let test_clock_monotone () =
  let t = ref 100 in
  Obs.Clock.set_source (fun () -> !t);
  Fun.protect ~finally:Obs.Clock.use_wall_clock (fun () ->
      checki "injected source" 100 (Obs.Clock.now_ns ());
      t := 50;
      checkb "clamped against going backwards" true (Obs.Clock.now_ns () >= 100);
      t := 200;
      checki "advances again" 200 (Obs.Clock.now_ns ()))

(* A span has two homes: the [span.<name>.ns] latency histogram and,
   when tracing, a complete event on the Trace timeline. *)
let test_span_ring () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
    (fun () ->
      with_metrics (fun () ->
          let r = Obs.Registry.create () in
          Obs.Span.record ~registry:r "work" ~start_ns:10 ~dur_ns:5;
          Obs.Span.record ~registry:r "work" ~start_ns:20 ~dur_ns:7;
          (match Obs.Trace.events () with
          | [ Obs.Trace.Complete a; Obs.Trace.Complete b ] ->
              checks "span name" "work" a.name;
              checkb "oldest first" true (a.start_ns < b.start_ns);
              checki "duration kept" 7 b.dur_ns
          | l -> Alcotest.failf "expected 2 trace events, got %d" (List.length l));
          match Obs.Registry.read r "span.work.ns" with
          | Some (Obs.Registry.Histogram h) ->
              checki "latency histogram count" 2 h.H.count;
              checki "latency histogram sum" 12 h.H.sum
          | _ -> Alcotest.fail "span histogram not registered"));
  (* Both switches off: record is a no-op for the trace and the registry. *)
  let r = Obs.Registry.create () in
  Obs.Span.record ~registry:r "quiet" ~start_ns:1 ~dur_ns:1;
  Obs.Span.finish (Obs.Span.start ~registry:r "quiet");
  checkb "no trace events while disabled" true (Obs.Trace.events () = []);
  checkb "no histogram while disabled" true (Obs.Registry.read r "span.quiet.ns" = None)

(* --- Canonical breakdowns --- *)

let test_canonical_breakdown () =
  checkb "sorts and merges duplicate keys" true
    (Sink.canonical_breakdown [ ("b", 1); ("a", 2); ("b", 3) ]
    = [ ("a", 2); ("b", 4) ]);
  checkb "prefix is dot-joined" true
    (Sink.prefix_breakdown "oracle" [ ("l0", 1); ("sampler", 2) ]
    = [ ("oracle.l0", 1); ("oracle.sampler", 2) ])

let test_estimate_breakdown_keys () =
  let src, params = instance () in
  let est = E.create params in
  ignore (Pipe.run_seq E.sink est src);
  let wb = E.words_breakdown est in
  let keys = List.map fst wb in
  checkb "keys are sorted" true (keys = List.sort compare keys);
  checkb "keys are unique" true
    (List.length keys = List.length (List.sort_uniq compare keys));
  checkb "universe reduction is accounted" true
    (List.mem_assoc "universe_reduction" wb);
  checkb "large-common l0 under its dot namespace" true
    (List.mem_assoc "oracle.large_common.l0" wb);
  checki "breakdown sums to words" (E.words est)
    (List.fold_left (fun acc (_, w) -> acc + w) 0 wb)

(* --- Observing a run changes nothing --- *)

(* The observer samples between windows on every drive mode.  Over
   domains {1, 2} × checkpoint {off, on}, an observed run (metrics,
   telemetry) must answer like an unobserved one with the same words
   and work counters; its final profile point must be the finalized
   sink's breakdown (plus the final checkpoint it holds), and the
   telemetry log's final space.words the same total. *)
let prop_observed_run_equals_bare =
  let gen = QCheck.Gen.(triple (int_range 0 1000) (int_range 1 100) (int_range 0 3)) in
  let arb =
    QCheck.make
      ~print:(fun (seed, cadence, mode) ->
        Printf.sprintf "seed %d, cadence %d, domains %d, checkpoint %b" seed cadence
          (1 + (mode land 1)) (mode >= 2))
      gen
  in
  QCheck.Test.make ~name:"Observed sink ≡ bare sink (random streams, domains × checkpoint)"
    ~count:20 arb (fun (seed, cadence, mode) ->
      let sys = Mkc_workload.Random_inst.uniform ~n:64 ~m:24 ~set_size:12 ~seed in
      let src = Src.of_system ~seed:(seed + 1) sys in
      let params = P.make ~m:24 ~n:64 ~k:3 ~alpha:4.0 ~seed:5 () in
      let domains = 1 + (mode land 1) in
      let tmp suffix = Filename.temp_file "mkc_obs" suffix in
      let ckpt_path = tmp ".ckpt" and log = tmp ".mkctel" in
      Fun.protect
        ~finally:(fun () ->
          List.iter Sys.remove [ ckpt_path; log ];
          Obs.Registry.set_enabled false;
          Obs.Registry.reset Obs.Registry.global)
        (fun () ->
          let ckpt =
            if mode >= 2 then
              Some { Run.codec = E.codec params; every = 1; save = Some ckpt_path; resume = None }
            else None
          in
          let run cfg ?telemetry e =
            match Run.run cfg ?telemetry ~shards:E.shards ?ckpt ~label:"estimate" E.sink e src with
            | Ok o -> o
            | Error err -> Alcotest.failf "run: %s" (Run.error_to_string err)
          in
          let cfg = { Run.default with domains; chunk = 32 } in
          let bare = E.create params in
          let o0 = run cfg bare in
          let obs = E.create params in
          let telemetry =
            {
              Run.log = Some log;
              rules = [];
              probes = (fun ~breakdown -> Mkc_core.Telemetry_probes.build ~breakdown obs);
            }
          in
          let o1 = run { cfg with metrics = true; cadence } ~telemetry obs in
          let held =
            if mode >= 2 then
              [ ("checkpoint", Mkc_stream.Checkpoint.words_of_bytes (Unix.stat ckpt_path).st_size) ]
            else []
          in
          let total =
            List.fold_left (fun acc (_, w) -> acc + w) 0 (held @ E.words_breakdown obs)
          in
          let telemetry_ok =
            match Obs.Telemetry.read log with
            | Error _ -> false
            | Ok t -> (
                let track = ref (-1) in
                Array.iteri (fun i n -> if n = "space.words" then track := i) t.tracks;
                match List.rev t.samples with
                | last :: _ -> !track >= 0 && last.values.(!track) = total
                | [] -> false)
          in
          fingerprint o0.result = fingerprint o1.result
          && o0.words = o1.words
          && E.words obs = o1.words
          && E.stats bare = E.stats obs
          && telemetry_ok))

let test_observed_cadence_grid () =
  (* A sink whose words grow per edge; drive it window by window and
     check the sample schedule: at most one sample per window,
     realigned to the cadence grid, plus the final sample. *)
  let module Count = struct
    type t = int ref
    type result = int

    let feed t (_ : Edge.t) = incr t
    let feed_planned t _ _ ~pos:_ ~len = t := !t + len
    let finalize t = !t
    let words t = !t
    let words_breakdown t = [ ("count", !t) ]
  end in
  let m : (int ref, int) Sink.sink = (module Count) in
  let count = ref 0 in
  let ob = Sink.Observed.create ~cadence:10 (Sink.pack m count) in
  let samples = ref [] in
  Sink.Observed.set_on_sample ob (fun ~edges ~words -> samples := (edges, words) :: !samples);
  let edges = Array.init 25 (fun i -> Edge.make ~set:0 ~elt:i) in
  Pipe.drive ~chunk:7
    ~on_window:(fun ~pos:_ ~len -> Sink.Observed.window ob ~len)
    [| Sink.pack m count |] (Src.of_array edges)
  |> Result.get_ok;
  checki "the sink saw every edge" 25 (Count.finalize count);
  Sink.Observed.sample ob;
  (* windows land at 7,14,21,25 edges; cadence 10 samples at 14 (first
     crossing of 10, grid realigns to 20) and 21, then the final sample
     at 25 *)
  checkb "cadence-grid samples plus the final one" true
    (List.rev !samples = [ (14, 14); (21, 21); (25, 25) ]);
  Alcotest.check_raises "cadence must be positive"
    (Invalid_argument "Sink.Observed.create: cadence must be >= 1") (fun () ->
      ignore (Sink.Observed.create ~cadence:0 (Sink.pack m (ref 0))))

(* --- Parallel vs sequential ingestion: same metrics --- *)

let test_parallel_metrics_equal_seq () =
  with_metrics (fun () ->
      let read_feed_edges () =
        match Obs.Registry.read Obs.Registry.global "pipeline.sink_feed_edges" with
        | Some (Obs.Registry.Counter n) -> n
        | _ -> 0
      in
      let src, params = instance () in
      let est1 = E.create params in
      let b0 = read_feed_edges () in
      Pipe.feed_all_parallel ~domains:1 (E.shards est1) src;
      let seq_delta = read_feed_edges () - b0 in
      let est2 = E.create params in
      let b1 = read_feed_edges () in
      Pipe.feed_all_parallel ~domains:3 (E.shards est2) src;
      let par_delta = read_feed_edges () - b1 in
      checki "sink_feed_edges invariant across drivers" seq_delta par_delta;
      checkb "drivers agree on the result" true
        (fingerprint (E.finalize est1) = fingerprint (E.finalize est2));
      let r1 = Obs.Registry.create () and r2 = Obs.Registry.create () in
      E.record_metrics ~registry:r1 est1;
      E.record_metrics ~registry:r2 est2;
      checkb "work counters identical metric-for-metric" true
        (Obs.Registry.dump r1 = Obs.Registry.dump r2);
      checkb "per-instance counters present" true
        (List.exists
           (fun (name, _) -> String.starts_with ~prefix:"estimate.z" name)
           (Obs.Registry.dump r1)))

(* --- Snapshot: golden JSON, round trip, tamper rejection --- *)

(* mkc-obs/6 body: the recorded 3 lands in log-linear bucket 3 (values
   below 16 get exact buckets). *)
let golden_metrics =
  "\"metrics\":[{\"name\":\"c\",\"kind\":\"counter\",\"value\":5},\
   {\"name\":\"g\",\"kind\":\"gauge\",\"value\":2.5},\
   {\"name\":\"h\",\"kind\":\"histogram\",\"count\":1,\"sum\":3,\"min\":3,\
   \"max\":3,\"buckets\":[[3,1]]}"

let golden_profiles =
  "\"profiles\":[{\"name\":\"p\",\"cadence\":2,\
   \"points\":[{\"at_edges\":2,\"words\":3,\"breakdown\":[[\"a\",1],[\"b\",2]]}]}]}"

let golden = "{\"schema\":\"mkc-obs/6\",\"created_ns\":42," ^ golden_metrics ^ "]}"

(* The same snapshot as earlier mkc-obs/6 writers spelled it, with the
   histogram's sum, min and max as JSON floats: still valid, and
   re-emitted as [golden]. *)
let golden_float_spelled =
  "{\"schema\":\"mkc-obs/6\",\"created_ns\":42,\
   \"metrics\":[{\"name\":\"c\",\"kind\":\"counter\",\"value\":5},\
   {\"name\":\"g\",\"kind\":\"gauge\",\"value\":2.5},\
   {\"name\":\"h\",\"kind\":\"histogram\",\"count\":1,\"sum\":3.0,\"min\":3.0,\
   \"max\":3.0,\"buckets\":[[3,1]]}]}"

(* The same state with a budget: the watchdog's five space.* gauges. *)
let golden_space =
  "{\"schema\":\"mkc-obs/6\",\"created_ns\":42," ^ golden_metrics
  ^ ",{\"name\":\"space.budget_words\",\"kind\":\"gauge\",\"value\":8.0},\
     {\"name\":\"space.headroom\",\"kind\":\"gauge\",\"value\":0.5},\
     {\"name\":\"space.overshoots\",\"kind\":\"gauge\",\"value\":0.0},\
     {\"name\":\"space.peak_words\",\"kind\":\"gauge\",\"value\":4.0},\
     {\"name\":\"space.samples\",\"kind\":\"gauge\",\"value\":3.0}]}"

(* Legacy (v1–v3) body: the old 64-bucket log2 layout put 3 in
   bucket 1. *)
let golden_body_legacy =
  "\"metrics\":[{\"name\":\"c\",\"kind\":\"counter\",\"value\":5},\
   {\"name\":\"g\",\"kind\":\"gauge\",\"value\":2.5},\
   {\"name\":\"h\",\"kind\":\"histogram\",\"count\":1,\"sum\":3.0,\"min\":3.0,\
   \"max\":3.0,\"buckets\":[[1,1]]}],\
   \"spans\":[{\"name\":\"s\",\"start_ns\":10,\"dur_ns\":5,\"domain\":0}],\
   \"profiles\":[{\"name\":\"p\",\"cadence\":2,\
   \"points\":[{\"at_edges\":2,\"words\":3,\"breakdown\":[[\"a\",1],[\"b\",2]]}]}]}"

(* The retired v1 emission, byte for byte: now rejected by name. *)
let golden_v1 = "{\"schema\":\"mkc-obs/1\",\"created_ns\":42," ^ golden_body_legacy

(* Likewise the retired v2 emission (space section, no series). *)
let golden_v2 =
  "{\"schema\":\"mkc-obs/2\",\"created_ns\":42,\
   \"space\":{\"budget_words\":8,\"peak_words\":4,\"headroom\":0.5,\
   \"overshoots\":0,\"samples\":3}," ^ golden_body_legacy

(* And the retired v3 emission (log2 buckets). *)
let golden_v3 = "{\"schema\":\"mkc-obs/3\",\"created_ns\":42," ^ golden_body_legacy

(* And the retired v4 emission, which copied spans, the budget verdict
   and a telemetry series summary beside the metrics. *)
let golden_v4 =
  "{\"schema\":\"mkc-obs/4\",\"created_ns\":42,\
   \"space\":{\"budget_words\":8,\"peak_words\":4,\"headroom\":0.5,\
   \"overshoots\":0,\"samples\":3},\
   \"series\":[{\"name\":\"space.words\",\"count\":3,\"min\":1,\"max\":9,\"last\":4}],"
  ^ golden_metrics
  ^ "],\"spans\":[{\"name\":\"s\",\"start_ns\":10,\"dur_ns\":5,\"domain\":0}],"
  ^ golden_profiles

(* And the retired v5 emission, which copied the sampled space curve
   (now the telemetry log's space.* tracks) beside the metrics. *)
let golden_v5 =
  "{\"schema\":\"mkc-obs/5\",\"created_ns\":42," ^ golden_metrics ^ "]," ^ golden_profiles

let golden_registry ~budget =
  let r = Obs.Registry.create () in
  Obs.Registry.add (Obs.Registry.counter r "c") 5;
  Obs.Registry.set (Obs.Registry.gauge r "g") 2.5;
  Obs.Registry.observe (Obs.Registry.histogram r "h") 3.0;
  if budget then
    Obs.Quality.record_budget ~registry:r ~budget_words:8 ~peak_words:4 ~overshoots:0
      ~samples:3 ();
  r

let golden_snapshot ?(budget = false) () =
  Obs.Snapshot.capture ~now_ns:42 (golden_registry ~budget)

let test_snapshot_golden () =
  with_metrics (fun () ->
      checks "byte-stable emission" golden (Obs.Snapshot.to_string (golden_snapshot ()));
      checks "byte-stable emission with space gauges" golden_space
        (Obs.Snapshot.to_string (golden_snapshot ~budget:true ())))

let test_snapshot_round_trip () =
  with_metrics (fun () ->
      let s = Obs.Snapshot.to_string (golden_snapshot ()) in
      (match Obs.Json.parse s with
      | Ok (Obs.Json.Object kvs) ->
          checkb "exactly schema, created_ns, metrics" true
            (List.map fst kvs = [ "schema"; "created_ns"; "metrics" ])
      | _ -> Alcotest.fail "snapshot is not a JSON object");
      match Obs.Snapshot.validate s with
      | Error e -> Alcotest.failf "golden snapshot rejected: %s" e
      | Ok snap -> (
          checki "created_ns" 42 snap.Obs.Snapshot.created_ns;
          checks "schema is current" Obs.Snapshot.schema_version snap.Obs.Snapshot.schema;
          checki "metrics" 3 (List.length snap.Obs.Snapshot.metrics);
          checks "re-emission is a fixpoint" s (Obs.Snapshot.to_string snap);
          (match Obs.Snapshot.validate golden_float_spelled with
          | Error e -> Alcotest.failf "float-spelled snapshot rejected: %s" e
          | Ok snap ->
              checks "float spelling re-emits as integers" golden
                (Obs.Snapshot.to_string snap));
          match Obs.Snapshot.validate golden_space with
          | Error e -> Alcotest.failf "space snapshot rejected: %s" e
          | Ok snap ->
              checki "space gauges parsed" 8 (List.length snap.Obs.Snapshot.metrics);
              checks "space re-emission is a fixpoint" golden_space
                (Obs.Snapshot.to_string snap)))

(* The retired v1–v5 schemas are no longer read: each is rejected by
   its name, whatever sections it carries. *)
let test_snapshot_rejects_retired schema s () =
  match Obs.Snapshot.validate s with
  | Ok _ -> Alcotest.failf "retired %s snapshot accepted" schema
  | Error e ->
      checks (schema ^ " rejection names the schemas")
        (Printf.sprintf "snapshot: schema %S, expected %S" schema
           Obs.Snapshot.schema_version)
        e

(* First-occurrence substring replacement (avoids a Str dependency). *)
let replace_once ~sub ~by s =
  let ls = String.length s and lb = String.length sub in
  let rec find i =
    if i + lb > ls then invalid_arg "replace_once: substring not found"
    else if String.sub s i lb = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + lb) (ls - i - lb)

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec find i =
    i + lb <= ls && (String.sub s i lb = sub || find (i + 1))
  in
  find 0

let test_snapshot_rejects_tampering () =
  let reject what s =
    match Obs.Snapshot.validate s with
    | Ok _ -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  reject "a foreign schema" (replace_once ~sub:"mkc-obs/6" ~by:"mkc-obs/9" golden);
  (* v4's and v5's copied sections have no place in a v6 snapshot *)
  reject "a stray spans section"
    (replace_once ~sub:"\"metrics\":" ~by:"\"spans\":[],\"metrics\":" golden);
  reject "a stray profiles section"
    (replace_once ~sub:"\"metrics\":" ~by:"\"profiles\":[],\"metrics\":" golden);
  (* histogram bucket counts no longer sum to count *)
  reject "a bucket-sum mismatch"
    (replace_once ~sub:"\"buckets\":[[3,1]]" ~by:"\"buckets\":[[3,2]]" golden);
  (* a bucket index past the log-linear layout's end *)
  reject "a bucket index out of range"
    (replace_once ~sub:"\"buckets\":[[3,1]]" ~by:"\"buckets\":[[960,1]]" golden);
  reject "truncated JSON" (String.sub golden 0 (String.length golden - 1));
  (* the space.* gauges: headroom must equal peak/budget exactly *)
  let gauge name v =
    Printf.sprintf "{\"name\":\"space.%s\",\"kind\":\"gauge\",\"value\":%s}" name v
  in
  let tamper name v v' =
    replace_once ~sub:(gauge name v) ~by:(gauge name v') golden_space
  in
  reject "a headroom that disagrees with peak/budget" (tamper "headroom" "0.5" "0.25");
  (* a peak above budget with zero recorded overshoots is inconsistent *)
  reject "an overshooting peak with overshoots = 0"
    (replace_once ~sub:(gauge "headroom" "0.5") ~by:(gauge "headroom" "2.0")
       (tamper "peak_words" "4.0" "16.0"));
  reject "negative budget words" (tamper "budget_words" "8.0" "-8.0");
  reject "a fractional peak"
    (replace_once ~sub:(gauge "headroom" "0.5") ~by:(gauge "headroom" "0.5625")
       (tamper "peak_words" "4.0" "4.5"));
  reject "overshoots above samples" (tamper "overshoots" "0.0" "4.0");
  reject "negative overshoots" (tamper "overshoots" "0.0" "-1.0");
  reject "an incomplete gauge group"
    (replace_once ~sub:("," ^ gauge "samples" "3.0") ~by:"" golden_space);
  reject "a space gauge of the wrong kind"
    (replace_once ~sub:(gauge "samples" "3.0")
       ~by:"{\"name\":\"space.samples\",\"kind\":\"counter\",\"value\":3}" golden_space)

let test_json_parse () =
  let v =
    Obs.Json.Object
      [
        ("a", Obs.Json.Int 3);
        ("b", Obs.Json.Array [ Obs.Json.Float 2.5; Obs.Json.String "x\"y" ]);
        ("c", Obs.Json.Bool true);
        ("d", Obs.Json.Null);
      ]
  in
  (match Obs.Json.parse (Obs.Json.to_string v) with
  | Ok v' -> checkb "parse inverts to_string" true (v = v')
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  (match Obs.Json.parse "{\"a\": 1," with
  | Ok _ -> Alcotest.fail "accepted malformed JSON"
  | Error e ->
      checkb "error carries a byte offset" true
        (String.length e >= 7 && String.sub e 0 7 = "at byte"));
  checkb "integral float accessor" true
    (Obs.Json.to_int (Obs.Json.Float 3.0) = Some 3);
  checkb "non-integral float is not an int" true
    (Obs.Json.to_int (Obs.Json.Float 3.5) = None)

(* --- Prometheus exposition: hostile names, specials, monotone buckets --- *)

let snapshot_of_metrics metrics =
  {
    Obs.Snapshot.schema = Obs.Snapshot.schema_version;
    created_ns = 42;
    metrics;
  }

let prom_lines metrics =
  String.split_on_char '\n' (Obs.Export.prometheus (snapshot_of_metrics metrics))

let test_prometheus_sanitize () =
  let counter name v = { Obs.Snapshot.mname = name; mvalue = Obs.Snapshot.Counter v } in
  let lines = prom_lines [ counter "mkc.estimate-rate" 3 ] in
  checkb "dots and dashes map to underscores" true
    (List.mem "mkc_estimate_rate 3" lines);
  (* A leading digit is illegal in a Prometheus name; dropping it would
     collide "2xx" with "xx", so it gains a '_' prefix instead. *)
  let lines = prom_lines [ counter "2xx" 1; counter "xx" 2 ] in
  checkb "leading digit is prefixed" true (List.mem "_2xx 1" lines);
  checkb "plain name untouched" true (List.mem "xx 2" lines);
  let lines = prom_lines [ counter "" 7 ] in
  checkb "empty name becomes a bare underscore" true (List.mem "_ 7" lines);
  let lines = prom_lines [ counter "héllo wörld" 1 ] in
  (* 'é'/'ö' are two UTF-8 bytes each, hence two underscores *)
  checkb "non-ASCII bytes all map to underscores" true
    (List.mem "h__llo_w__rld 1" lines)

let test_prometheus_specials () =
  let gauge name v = { Obs.Snapshot.mname = name; mvalue = Obs.Snapshot.Gauge v } in
  let lines =
    prom_lines
      [ gauge "g_nan" Float.nan; gauge "g_pinf" Float.infinity;
        gauge "g_ninf" Float.neg_infinity; gauge "g_int" 3.0; gauge "g_frac" 0.25 ]
  in
  checkb "NaN spelled canonically" true (List.mem "g_nan NaN" lines);
  checkb "+Inf spelled canonically" true (List.mem "g_pinf +Inf" lines);
  checkb "-Inf spelled canonically" true (List.mem "g_ninf -Inf" lines);
  checkb "integral gauges print as integers" true (List.mem "g_int 3" lines);
  checkb "fractional gauges keep their fraction" true (List.mem "g_frac 0.25" lines);
  (* scrapers reject C-locale spellings *)
  List.iter
    (fun l ->
      checkb "no lowercase nan/inf leaks" false
        (contains ~sub:" nan" l || contains ~sub:" inf" l || contains ~sub:" -inf" l))
    lines

(* Cumulative bucket counts must be nondecreasing and end at _count —
   including for a histogram produced by merging shards with disjoint
   bucket support. *)
let test_prometheus_bucket_monotone () =
  let hist_metric h = { Obs.Snapshot.mname = "lat"; mvalue = Obs.Snapshot.Histogram h } in
  let merged = H.merge (hist_of [ 1; 1; 100 ]) (hist_of [ 3; 4; 1000 ]) in
  let lines = prom_lines [ hist_metric merged ] in
  let bucket_counts =
    List.filter_map
      (fun l ->
        if String.length l > 11 && String.sub l 0 11 = "lat_bucket{" then
          match String.rindex_opt l ' ' with
          | Some i ->
              Some (int_of_string (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> None
        else None)
      lines
  in
  checkb "at least the +Inf bucket plus one finite bucket" true
    (List.length bucket_counts >= 2);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  checkb "cumulative counts are nondecreasing" true (monotone bucket_counts);
  checki "+Inf bucket equals the total count" merged.H.count
    (List.nth bucket_counts (List.length bucket_counts - 1));
  checkb "_count line matches" true (List.mem "lat_count 6" lines)

(* --- Stream_source.load: malformed input names the line --- *)

let load_failure content =
  let path = Filename.temp_file "mkc_obs_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      match Src.load path with
      | (_ : Src.t) -> Alcotest.fail "malformed file loaded"
      | exception Failure msg -> msg)

let test_load_error_line_number () =
  let msg = load_failure "0 1\nbogus line\n" in
  checkb "names the 1-based line" true (contains ~sub:"malformed line 2" msg);
  checkb "names the offending token" true (contains ~sub:"token \"bogus\"" msg);
  let msg = load_failure "0 1\n2 x7\n" in
  checkb "points at the second field" true (contains ~sub:"token \"x7\"" msg);
  let msg = load_failure "0 1 2\n" in
  checkb "names a bad sign token" true (contains ~sub:"sign token \"2\"" msg);
  let msg = load_failure "0 1 -1 4\n" in
  checkb "reports a field-count mismatch" true
    (contains ~sub:"expected 2 or 3 fields, got 4" msg)

(* --- Stream_source.load_auto_dims: binary rejections name the path --- *)

let with_binary_stream mutate k =
  let path = Filename.temp_file "mkc_obs_edge" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let edges = Array.init 64 (fun i -> Edge.make ~set:(i mod 8) ~elt:(i mod 16)) in
      (match Mkc_stream.Edge_file.write path edges ~n:16 ~m:8 with
      | Ok (_ : int) -> ()
      | Error e ->
          Alcotest.failf "setup write: %s" (Mkc_stream.Edge_file.error_to_string e));
      mutate path;
      k path)

let patch_byte path ~pos f =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let pos = if pos < 0 then len + pos else pos in
  Bytes.set b pos (f (Bytes.get b pos));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let truncate_file path keep =
  let ic = open_in_bin path in
  let b = Bytes.create keep in
  really_input ic b 0 keep;
  close_in ic;
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let load_auto_failure mutate =
  with_binary_stream mutate (fun path ->
      match Src.load_auto_dims path with
      | (_ : Src.t * int * int) -> Alcotest.fail "corrupt binary stream loaded"
      | exception Failure msg ->
          (* every binary rejection must say which file and which loader *)
          checkb "failure names the loader" true
            (contains ~sub:"Stream_source.load_auto_dims" msg);
          checkb "failure names the file path" true (contains ~sub:path msg);
          msg)

let test_load_auto_rejection_matrix () =
  with_binary_stream
    (fun _ -> ())
    (fun path ->
      let src, _, _ = Src.load_auto_dims path in
      checki "intact binary stream loads" 64 (Src.length src));
  (* byte 8 is the format version (int64 LE) *)
  let msg = load_auto_failure (fun p -> patch_byte p ~pos:8 (fun _ -> '\xff')) in
  checkb "bad version is named" true (contains ~sub:"version" msg);
  (* a header cut short (but past the 8-byte magic sniff) *)
  let msg = load_auto_failure (fun p -> truncate_file p 20) in
  checkb "truncated header is named" true (contains ~sub:"truncated" msg);
  (* intact header, columns cut short *)
  let msg = load_auto_failure (fun p -> truncate_file p 700) in
  checkb "truncated columns are named" true (contains ~sub:"truncated" msg);
  (* same length, one flipped column byte: the body checksum catches it *)
  let msg =
    load_auto_failure (fun p ->
        patch_byte p ~pos:(-1) (fun c -> Char.chr (Char.code c lxor 1)))
  in
  checkb "flipped column byte is named" true (contains ~sub:"checksum" msg);
  (* a column value outside the declared universe bound *)
  let msg = load_auto_failure (fun p -> patch_byte p ~pos:48 (fun _ -> '\xee')) in
  checkb "out-of-range id or checksum damage is named" true
    (contains ~sub:"checksum" msg || contains ~sub:"out of range" msg
    || contains ~sub:"malformed" msg)

(* --- Mid-run space accounting is exact at chunk boundaries --- *)

let test_midrun_words_exact () =
  (* LargeSet's tracked halves are applied chunk by chunk and its
     deferred CountSketch deltas move no words term, so a batched run's
     mid-stream space sample must equal the per-edge run's at the same
     boundary — this is what makes the telemetry space.words track
     exact, not laggy. *)
  let src, params = instance () in
  let edges = Src.to_array src in
  let total = Array.length edges in
  let chunk = 97 in
  let batched = E.create params and peredge = E.create params in
  let plan = Mkc_stream.Chunk_plan.create () in
  let pos = ref 0 in
  while !pos < total do
    let len = min chunk (total - !pos) in
    Mkc_stream.Chunk_plan.build plan edges ~pos:!pos ~len;
    E.feed_planned batched plan edges ~pos:!pos ~len;
    for i = !pos to !pos + len - 1 do
      E.feed peredge edges.(i)
    done;
    pos := !pos + len;
    checki
      (Printf.sprintf "words agree at edge %d" !pos)
      (E.words peredge) (E.words batched);
    checkb
      (Printf.sprintf "breakdowns agree at edge %d" !pos)
      true
      (E.words_breakdown peredge = E.words_breakdown batched)
  done;
  checkb "reading words mid-run perturbed nothing" true
    (fingerprint (E.finalize batched) = fingerprint (E.finalize peredge))

(* Mutated snapshot JSON validates or is a named error: the golden
   space snapshot plus a latency histogram spanning many buckets. *)
let fuzz_snapshot_json =
  let valid =
    String.sub golden_space 0 (String.length golden_space - 2)
    ^ ",{\"name\":\"span.x.ns\",\"kind\":\"histogram\",\"count\":3,\
       \"sum\":5000001007,\"min\":7,\"max\":5000000000,\
       \"buckets\":[[7,1],[111,1],[466,1]]}]}"
  in
  Mutation.text_fuzz ~name:"fuzz: mutated snapshot JSON validates or names the fault" ~seed:23
    ~valid
    ~decode:(fun s () -> Result.map ignore (Obs.Snapshot.validate s))
    ~named:(fun msg -> msg <> "")

let suite =
  [
    Alcotest.test_case "metric: scalar merges" `Quick test_merge_scalars;
    Alcotest.test_case "metric: histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "metric: histogram monoid laws" `Quick test_histogram_monoid;
    Alcotest.test_case "registry: disabled writes are no-ops" `Quick
      test_registry_disabled_noop;
    Alcotest.test_case "registry: domain shards merge to sequential" `Quick
      test_registry_domain_merge;
    Alcotest.test_case "registry: reset" `Quick test_registry_reset;
    Alcotest.test_case "clock: injected source, monotone clamp" `Quick
      test_clock_monotone;
    Alcotest.test_case "span: ring + latency histogram" `Quick test_span_ring;
    Alcotest.test_case "sink: canonical breakdown" `Quick test_canonical_breakdown;
    Alcotest.test_case "estimate: dot-namespaced breakdown keys" `Quick
      test_estimate_breakdown_keys;
    Alcotest.test_case "observed: cadence grid sampling" `Quick
      test_observed_cadence_grid;
    Alcotest.test_case "pipeline: parallel metrics ≡ sequential" `Quick
      test_parallel_metrics_equal_seq;
    Alcotest.test_case "snapshot: golden JSON" `Quick test_snapshot_golden;
    Alcotest.test_case "snapshot: validate round trip" `Quick test_snapshot_round_trip;
    Alcotest.test_case "snapshot: rejects retired mkc-obs/1" `Quick
      (test_snapshot_rejects_retired "mkc-obs/1" golden_v1);
    Alcotest.test_case "snapshot: rejects retired mkc-obs/2" `Quick
      (test_snapshot_rejects_retired "mkc-obs/2" golden_v2);
    Alcotest.test_case "snapshot: rejects retired mkc-obs/3" `Quick
      (test_snapshot_rejects_retired "mkc-obs/3" golden_v3);
    Alcotest.test_case "snapshot: rejects retired mkc-obs/4" `Quick
      (test_snapshot_rejects_retired "mkc-obs/4" golden_v4);
    Alcotest.test_case "snapshot: rejects retired mkc-obs/5" `Quick
      (test_snapshot_rejects_retired "mkc-obs/5" golden_v5);
    Alcotest.test_case "snapshot: rejects tampering" `Quick
      test_snapshot_rejects_tampering;
    Alcotest.test_case "json: parse/print round trip" `Quick test_json_parse;
    Alcotest.test_case "prometheus: name sanitization" `Quick test_prometheus_sanitize;
    Alcotest.test_case "prometheus: NaN/Inf spellings" `Quick test_prometheus_specials;
    Alcotest.test_case "prometheus: merged buckets stay monotone" `Quick
      test_prometheus_bucket_monotone;
    Alcotest.test_case "stream_source: malformed line number" `Quick
      test_load_error_line_number;
    Alcotest.test_case "stream_source: binary rejection matrix names the path" `Quick
      test_load_auto_rejection_matrix;
    Alcotest.test_case "estimate: mid-run words exact at chunk boundaries" `Quick
      test_midrun_words_exact;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_observed_run_equals_bare ]
  @ [ fuzz_snapshot_json ]
