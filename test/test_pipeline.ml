(* Equivalence tests for the Sink/Pipeline ingestion layer.

   Every sink has two entry points, per-edge [feed] (the paper's spec)
   and chunked [feed_planned] (production), and every Pipeline driver
   but [run_seq] is one call of the chunk loop [drive].  The layer rests on three
   guarantees:
     1. the chunk loop ≡ edge-by-edge feed (any chunk size),
     2. domain-parallel shard ingestion ≡ sequential ingestion, both
        bit-for-bit: identical finalized results and identical space
        accounting, for every sink and every batched sketch;
     3. every one-slot drive ([run], [feed_all_parallel ~domains:1], a
        checkpointed and hooked [drive]) leaves the same [pipeline.*]
        instruments, and none of the pool's. *)

module Edge = Mkc_stream.Edge
module Ss = Mkc_stream.Set_system
module Src = Mkc_stream.Stream_source
module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module P = Mkc_core.Params
module E = Mkc_core.Estimate
module Sm = Mkc_hashing.Splitmix

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

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

(* --- estimate / report / full-range sinks --- *)

let test_estimate_batched_equivalence () =
  let src, params = instance () in
  let est0 = E.create params in
  let r0 = Pipe.run_seq E.sink est0 src in
  List.iter
    (fun chunk ->
      let est = E.create params in
      let r = Pipe.run ~chunk E.sink est src in
      checkb (Printf.sprintf "chunk %d: same result" chunk) true
        (fingerprint r = fingerprint r0);
      checki (Printf.sprintf "chunk %d: same words" chunk) (E.words est0) (E.words est);
      checkb (Printf.sprintf "chunk %d: same breakdown" chunk) true
        (E.words_breakdown est = E.words_breakdown est0))
    [ 1; 7; 1024 ]

let test_estimate_parallel_equivalence () =
  let src, params = instance () in
  let est0 = E.create params in
  let r0 = Pipe.run_seq E.sink est0 src in
  List.iter
    (fun domains ->
      let est = E.create params in
      Pipe.feed_all_parallel ~domains (E.shards est) src;
      let r = E.finalize est in
      checkb (Printf.sprintf "%d domains: bit-for-bit result" domains) true
        (fingerprint r = fingerprint r0);
      checki (Printf.sprintf "%d domains: same words" domains) (E.words est0)
        (E.words est))
    [ 2; 3 ]

let test_report_batched_and_parallel () =
  let src, params = instance () in
  let module R = Mkc_core.Report in
  let r0 = Pipe.run_seq R.sink (R.create params) src in
  let r1 = Pipe.run ~chunk:37 R.sink (R.create params) src in
  let rep2 = R.create params in
  Pipe.feed_all_parallel ~domains:2 (R.shards rep2) src;
  let r2 = R.finalize rep2 in
  checkb "batched: same sets" true (r1.R.sets = r0.R.sets);
  checkb "batched: same estimate" true (r1.R.estimate = r0.R.estimate);
  checkb "parallel: same sets" true (r2.R.sets = r0.R.sets);
  checkb "parallel: same estimate" true (r2.R.estimate = r0.R.estimate)

let test_full_range_sink_both_engines () =
  let src, _ = instance () in
  let module F = Mkc_core.Full_range in
  List.iter
    (fun alpha ->
      let p = P.make ~m:128 ~n:512 ~k:4 ~alpha ~seed:3 () in
      let r0 = Pipe.run_seq F.sink (F.create p) src in
      let r1 = Pipe.run ~chunk:97 F.sink (F.create p) src in
      let fr2 = F.create p in
      Pipe.feed_all_parallel ~domains:2 (F.shards fr2) src;
      let r2 = F.finalize fr2 in
      checkb (Printf.sprintf "alpha %g: batched" alpha) true (r1 = r0);
      checkb (Printf.sprintf "alpha %g: parallel" alpha) true (r2 = r0))
    [ 2.0; 8.0 ]

(* --- coverage baselines --- *)

let test_mcgregor_vu_sink () =
  let src, _ = instance () in
  let module Mv = Mkc_coverage.Mcgregor_vu in
  let mk () = Mv.create ~m:128 ~n:512 ~k:4 ~seed:3 () in
  let a = mk () in
  let ra = Pipe.run_seq Mv.sink a src in
  let b = mk () in
  let rb = Pipe.run ~chunk:11 Mv.sink b src in
  checkb "batched ≡ per-edge" true (ra = rb)

let baseline_system () =
  Ss.create ~n:12 ~m:4
    ~sets:[| [| 0; 1; 2; 3; 4 |]; [| 4; 5; 6 |]; [| 7; 8 |]; [| 0; 9; 10; 11 |] |]

let test_set_arrival_adapter_sieve () =
  let sys = baseline_system () in
  let module Sieve = Mkc_coverage.Sieve in
  let direct = Sieve.create ~n:(Ss.n sys) ~k:2 () in
  for i = 0 to Ss.m sys - 1 do
    Sieve.feed direct i (Ss.set sys i)
  done;
  let r0 = Sieve.result direct in
  (* canonical set-major edge order: each set arrives as one contiguous
     run, so the adapter reassembles exactly the direct arrivals *)
  let t = Sieve.create ~n:(Ss.n sys) ~k:2 () in
  let r1 =
    Pipe.run ~chunk:3 (Sink.Set_arrival.sink ()) (Sieve.edge_sink t)
      (Src.of_array (Ss.edges sys))
  in
  checkb "adapter ≡ direct set feed" true (r0 = r1)

let test_set_arrival_adapter_mv () =
  let sys = baseline_system () in
  let module M = Mkc_coverage.Mv_set_arrival in
  let direct = M.create ~k:2 () in
  for i = 0 to Ss.m sys - 1 do
    M.feed direct i (Ss.set sys i)
  done;
  let r0 = M.result direct in
  let t = M.create ~k:2 () in
  let r1 =
    Pipe.run ~chunk:5 (Sink.Set_arrival.sink ()) (M.edge_sink t)
      (Src.of_array (Ss.edges sys))
  in
  checkb "adapter ≡ direct set feed" true (r0 = r1)

(* --- instrument parity across the one-slot drives --- *)

module Reg = Mkc_obs.Registry

(* The [pipeline.*] registry entries a drive leaves: counters and
   gauges by value, histograms by observation count (their sums are
   timings). *)
let pipeline_instruments drive =
  Reg.reset Reg.global;
  Reg.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Reg.set_enabled false;
      Reg.reset Reg.global)
    (fun () ->
      drive ();
      List.filter_map
        (fun (key, v) ->
          if not (String.starts_with ~prefix:"pipeline." key) then None
          else
            Some
              ( key,
                match v with
                | Reg.Counter n -> float_of_int n
                | Reg.Gauge g -> g
                | Reg.Histogram h -> float_of_int h.Mkc_obs.Histogram.count ))
        (Reg.dump Reg.global))

let is_pool_instrument key =
  key = "pipeline.domains" || key = "pipeline.domain_busy_ns"
  || String.starts_with ~prefix:"pipeline.pool." key

let test_one_slot_instrument_parity () =
  let src, params = instance () in
  let chunk = 100 in
  let one e = [| Sink.pack E.sink e |] in
  let run =
    pipeline_instruments (fun () -> ignore (Pipe.run ~chunk E.sink (E.create params) src))
  in
  let fan =
    pipeline_instruments (fun () ->
        Pipe.feed_all_parallel ~domains:1 ~chunk (one (E.create params)) src)
  in
  let checkpointed =
    let path = Filename.temp_file "mkc_pipeline" ".ckpt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        pipeline_instruments (fun () ->
            let e = E.create params in
            let spec = { Pipe.codec = E.codec params; every = 1; save = Some path; resume = None } in
            match
              Pipe.drive ~chunk ~checkpoint:(spec, e) ~on_window:(fun ~pos:_ ~len:_ -> ())
                (one e) src
            with
            | Ok () -> ()
            | Error e -> Alcotest.failf "drive: %s" (Mkc_stream.Checkpoint.error_to_string e)))
  in
  let pooled =
    pipeline_instruments (fun () ->
        Pipe.feed_all_parallel ~domains:2 ~chunk (E.shards (E.create params)) src)
  in
  checkb "run ≡ feed_all_parallel ~domains:1" true (run = fan);
  checkb "run ≡ checkpointed, hooked drive" true (run = checkpointed);
  checkb "one chunk counted per chunk" true
    (List.assoc "pipeline.chunks" run
    = float_of_int ((Src.length src + chunk - 1) / chunk));
  List.iter
    (fun (key, v) ->
      if is_pool_instrument key then checkb (key ^ " untouched at one slot") true (v = 0.0))
    run;
  checkb "a pooled drive does set the pool gauges" true
    (List.assoc "pipeline.domains" pooled = 2.0)

(* --- property: batching/parallelism never changes the estimate --- *)

let prop_batched_equals_sequential =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 200)
           (pair (int_range 0 31) (int_range 0 63)))
        (int_range 1 64))
  in
  let arb =
    QCheck.make
      ~print:(fun (edges, chunk) ->
        Printf.sprintf "%d edges, chunk %d" (List.length edges) chunk)
      gen
  in
  QCheck.Test.make ~name:"feed_planned ≡ feed for Estimate (random streams)" ~count:30
    arb (fun (pairs, chunk) ->
      let edges =
        Array.of_list (List.map (fun (s, e) -> Edge.make ~set:s ~elt:e) pairs)
      in
      let src = Src.of_array edges in
      let params = P.make ~m:32 ~n:64 ~k:3 ~alpha:4.0 ~seed:5 () in
      let r0 = Pipe.run_seq E.sink (E.create params) src in
      let r1 = Pipe.run ~chunk E.sink (E.create params) src in
      let est2 = E.create params in
      Pipe.feed_all_parallel ~domains:2 (E.shards est2) src;
      let r2 = E.finalize est2 in
      fingerprint r0 = fingerprint r1 && fingerprint r0 = fingerprint r2)

let suite =
  [
    Alcotest.test_case "estimate: batched ≡ per-edge" `Quick test_estimate_batched_equivalence;
    Alcotest.test_case "estimate: parallel ≡ sequential" `Quick
      test_estimate_parallel_equivalence;
    Alcotest.test_case "report: batched/parallel ≡ per-edge" `Quick
      test_report_batched_and_parallel;
    Alcotest.test_case "full-range: both engines via sink" `Quick
      test_full_range_sink_both_engines;
    Alcotest.test_case "mcgregor-vu sink" `Quick test_mcgregor_vu_sink;
    Alcotest.test_case "set-arrival adapter: sieve" `Quick test_set_arrival_adapter_sieve;
    Alcotest.test_case "set-arrival adapter: mv" `Quick test_set_arrival_adapter_mv;
    Alcotest.test_case "one-slot drives leave identical instruments" `Quick
      test_one_slot_instrument_parity;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_batched_equals_sequential ]
