(* Equivalence and lifecycle tests for the persistent domain-pool
   executor (Pipeline.Pool behind Pipeline.drive).

   The executor's contract is that parallelism, cost weights, pool
   reuse, and crash-resume change wall-clock only, never
   output: every drive must match run_seq bit for bit — finalized
   result, words, words_breakdown — and the work counters that are
   window-grid-independent must match too (sampler_evals / memo_hits
   legitimately differ across chunk grids because wider windows
   deduplicate more, so those are filtered like test_checkpoint does). *)

module Edge = Mkc_stream.Edge
module Ss = Mkc_stream.Set_system
module Src = Mkc_stream.Stream_source
module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module Ck = Mkc_stream.Checkpoint
module P = Mkc_core.Params
module E = Mkc_core.Estimate

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

(* Work counters minus the chunk-grid-dependent memoization families. *)
let has_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let grid_free_stats est =
  List.map
    (fun (inst, stats) ->
      ( inst,
        List.filter
          (fun (k, _) ->
            not (has_suffix ~suffix:"sampler_evals" k || has_suffix ~suffix:"memo_hits" k))
          stats ))
    (E.stats est)

let with_tmp f =
  let path = Filename.temp_file "mkc_pool_ckpt" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* A checkpointed 2-domain drive over the estimator's shards, saving
   every window to [save] and/or resuming from [resume], then
   finalize. *)
let pooled_resumable ~chunk ?save ?resume p est src =
  Result.map
    (fun () -> E.finalize est)
    (Pipe.drive ~domains:2 ~chunk
       ~checkpoint:({ Pipe.codec = E.codec p; every = 1; save; resume }, est)
       (E.shards est) src)

(* The whole-observable comparison every test below reduces to. *)
let assert_matches label ~ref_est ~ref_r est r =
  checkb (label ^ ": bit-for-bit result") true (fingerprint r = fingerprint ref_r);
  checki (label ^ ": same words") (E.words ref_est) (E.words est);
  checkb (label ^ ": same breakdown") true
    (E.words_breakdown est = E.words_breakdown ref_est);
  checkb (label ^ ": same grid-free stats") true
    (grid_free_stats est = grid_free_stats ref_est)

(* --- pool drive ≡ run_seq across the domains × chunk matrix --- *)

let test_pool_equiv_matrix () =
  let src, p = instance () in
  let ref_est = E.create p in
  let ref_r = Pipe.run_seq E.sink ref_est src in
  List.iter
    (fun domains ->
      List.iter
        (fun chunk ->
          let est = E.create p in
          Pipe.feed_all_parallel ~domains ~chunk ~costs:(E.shard_costs est)
            (E.shards est) src;
          let r = E.finalize est in
          assert_matches
            (Printf.sprintf "%d domains, chunk %d" domains chunk)
            ~ref_est ~ref_r est r)
        [ 64; 257; 1024 ])
    [ 1; 2; 4 ]

(* --- pool lifecycle: reuse across drives, stats, shutdown --- *)

let test_pool_reuse_and_stats () =
  let src, p = instance () in
  let ref_est = E.create p in
  let ref_r = Pipe.run_seq E.sink ref_est src in
  let pool = Pipe.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Pipe.Pool.shutdown pool)
    (fun () ->
      checki "pool size" 3 (Pipe.Pool.size pool);
      let e1 = E.create p in
      Pipe.feed_all_parallel ~pool ~chunk:128 ~costs:(E.shard_costs e1) (E.shards e1) src;
      let r1 = E.finalize e1 in
      let s1 = Pipe.Pool.stats pool in
      (* second drive through the SAME pool, different chunk grid and no
         cost weights — workers are reused, not respawned *)
      let e2 = E.create p in
      Pipe.feed_all_parallel ~pool ~chunk:64 (E.shards e2) src;
      let r2 = E.finalize e2 in
      let s2 = Pipe.Pool.stats pool in
      (* a [domains] cap below the pool size also preserves output *)
      let e3 = E.create p in
      Pipe.feed_all_parallel ~pool ~domains:2 ~chunk:128 ~costs:(E.shard_costs e3)
        (E.shards e3) src;
      let r3 = E.finalize e3 in
      assert_matches "pooled drive 1" ~ref_est ~ref_r e1 r1;
      assert_matches "pooled drive 2 (unit weights)" ~ref_est ~ref_r e2 r2;
      assert_matches "pooled drive 3 (capped)" ~ref_est ~ref_r e3 r3;
      checkb "windows counted" true (s1.Pipe.Pool.windows > 0);
      checkb "windows accumulate across drives" true
        (s2.Pipe.Pool.windows > s1.Pipe.Pool.windows);
      checki "one stat slot per worker" 2 (Array.length s1.Pipe.Pool.worker_busy_ns);
      checki "one wait slot per worker" 2 (Array.length s1.Pipe.Pool.worker_wait_ns);
      let monotone a b = Array.for_all2 (fun x y -> y >= x) a b in
      checkb "busy gauges cumulative" true
        (monotone s1.Pipe.Pool.worker_busy_ns s2.Pipe.Pool.worker_busy_ns);
      checkb "wait gauges cumulative" true
        (monotone s1.Pipe.Pool.worker_wait_ns s2.Pipe.Pool.worker_wait_ns));
  (* shutdown is idempotent, including after with-protect already ran *)
  Pipe.Pool.shutdown pool

let test_pool_empty_and_errors () =
  let _, p = instance () in
  let empty = Src.of_array [||] in
  let est = E.create p in
  Pipe.feed_all_parallel ~domains:2 ~costs:(E.shard_costs est) (E.shards est) empty;
  let r = E.finalize est in
  let est0 = E.create p in
  let r0 = Pipe.run_seq E.sink est0 empty in
  checkb "empty stream: same result" true (fingerprint r = fingerprint r0);
  (* a costs vector that does not match the shard count is a caller bug *)
  let src, _ = instance () in
  let bad = E.create p in
  checkb "mismatched costs rejected" true
    (try
       Pipe.feed_all_parallel ~domains:2 ~costs:[| 1.0 |] (E.shards bad) src;
       false
     with Invalid_argument _ -> true)

(* --- crash-resume through the pooled checkpointed drive --- *)

let test_pool_resumable () =
  let src, p = instance () in
  let edges = Src.to_array src in
  let n = Array.length edges in
  let ref_est = E.create p in
  let ref_r = Pipe.run_seq E.sink ref_est src in
  let chunk = 96 in
  (* uninterrupted resumable run: same observables as run_seq *)
  with_tmp (fun path ->
      let e1 = E.create p in
      match pooled_resumable ~chunk ~save:path p e1 src with
      | Error e -> Alcotest.failf "uninterrupted: %s" (Ck.error_to_string e)
      | Ok r1 -> assert_matches "uninterrupted resumable" ~ref_est ~ref_r e1 r1);
  (* crash partway (not necessarily on the window grid: the prefix
     driver saves once more at its end-of-stream), resume, finish *)
  List.iter
    (fun (cut, label) ->
      with_tmp (fun path ->
          let interrupted = E.create p in
          (match
             pooled_resumable ~chunk ~save:path p interrupted
               (Src.of_array (Array.sub edges 0 cut))
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s prefix: %s" label (Ck.error_to_string e));
          let resumed = E.create p in
          match pooled_resumable ~chunk ~resume:path p resumed src with
          | Error e -> Alcotest.failf "%s resume: %s" label (Ck.error_to_string e)
          | Ok r -> assert_matches label ~ref_est ~ref_r resumed r))
    [
      (chunk * 2, "resume at a window boundary");
      (min n ((chunk * 2 * 3) + 17), "resume off the window grid");
      (chunk * 4, "resume at a later window boundary");
    ]

(* --- property: the matrix law on random streams --- *)

let prop_pool_equals_seq =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 200) (pair (int_range 0 31) (int_range 0 63)))
        (int_range 1 64) (int_range 0 3))
  in
  let arb =
    QCheck.make
      ~print:(fun (edges, chunk, pick) ->
        Printf.sprintf "%d edges, chunk %d, pick %d" (List.length edges) chunk pick)
      gen
  in
  QCheck.Test.make
    ~name:"pool feed_all_parallel ≡ run_seq (domains × chunk, random streams)"
    ~count:30 arb (fun (pairs, chunk, pick) ->
      let edges =
        Array.of_list (List.map (fun (s, e) -> Edge.make ~set:s ~elt:e) pairs)
      in
      let src = Src.of_array edges in
      let p = P.make ~m:32 ~n:64 ~k:3 ~alpha:4.0 ~seed:5 () in
      let domains = [| 1; 2; 4; 3 |].(pick) in
      let ref_est = E.create p in
      let r0 = Pipe.run_seq E.sink ref_est src in
      let est = E.create p in
      Pipe.feed_all_parallel ~domains ~chunk ~costs:(E.shard_costs est)
        (E.shards est) src;
      let r = E.finalize est in
      fingerprint r = fingerprint r0
      && E.words est = E.words ref_est
      && E.words_breakdown est = E.words_breakdown ref_est
      && grid_free_stats est = grid_free_stats ref_est)

(* Mid-run checkpoint + resume through the pooled checkpointed drive on
   random streams: crash at a pseudo-random cut, resume, and the result
   must match the sequential reference exactly. *)
let prop_pool_crash_resume =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 2 200) (pair (int_range 0 31) (int_range 0 63)))
        (int_range 1 48))
  in
  let arb =
    QCheck.make
      ~print:(fun (edges, chunk) ->
        Printf.sprintf "%d edges, chunk %d" (List.length edges) chunk)
      gen
  in
  QCheck.Test.make
    ~name:"pool crash at a checkpoint + resume ≡ run_seq (random streams)" ~count:15
    arb (fun (pairs, chunk) ->
      let edges =
        Array.of_list (List.map (fun (s, e) -> Edge.make ~set:s ~elt:e) pairs)
      in
      let n = Array.length edges in
      let src = Src.of_array edges in
      let p = P.make ~m:32 ~n:64 ~k:3 ~alpha:4.0 ~seed:5 () in
      let ref_est = E.create p in
      let r0 = Pipe.run_seq E.sink ref_est src in
      let cut = 1 + ((n * 7919) mod (n - 1)) in
      with_tmp (fun path ->
          let interrupted = E.create p in
          (match
             pooled_resumable ~chunk ~save:path p interrupted
               (Src.of_array (Array.sub edges 0 cut))
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "prefix: %s" (Ck.error_to_string e));
          let resumed = E.create p in
          match pooled_resumable ~chunk ~resume:path p resumed src with
          | Error e -> Alcotest.failf "resume: %s" (Ck.error_to_string e)
          | Ok r ->
              fingerprint r = fingerprint r0
              && E.words resumed = E.words ref_est
              && E.words_breakdown resumed = E.words_breakdown ref_est
              && grid_free_stats resumed = grid_free_stats ref_est))

(* --- a failing job: the exception reaches the coordinator --- *)

(* A sink that raises on its second window, but only on a worker domain
   (the test runs on the main one), so the failure is a worker's. *)
let boom_sink : (int ref, unit) Sink.sink =
  (module struct
    type t = int ref
    type result = unit

    let feed _ _ = ()

    let feed_planned t _ _ ~pos:_ ~len:_ =
      incr t;
      if !t = 2 && not (Domain.is_main_domain ()) then failwith "boom"

    let finalize _ = ()
    let words _ = 0
    let words_breakdown _ = []
  end)

let test_worker_exception () =
  let src =
    Src.of_array (Array.init 40_000 (fun i -> Edge.make ~set:(i mod 97) ~elt:(i mod 1009)))
  in
  let sinks () = Array.init 4 (fun _ -> Sink.pack boom_sink (ref 0)) in
  Alcotest.check_raises "the drive raises the worker's exception" (Failure "boom") (fun () ->
      Pipe.Pool.with_pool ~domains:2 (fun pool ->
          Pipe.feed_all_parallel ~pool ~chunk:1000 (sinks ()) src));
  (* the pool that saw the failure is still usable *)
  Pipe.Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "a drive on the pool raises it" (Failure "boom") (fun () ->
          Pipe.feed_all_parallel ~pool ~chunk:1000 (sinks ()) src);
      Alcotest.check_raises "parallel_for raises a worker's exception" (Failure "boom")
        (fun () ->
          Pipe.Pool.parallel_for pool 64 (fun _ ->
              if not (Domain.is_main_domain ()) then failwith "boom"));
      let seen = Array.make 64 0 in
      Pipe.Pool.parallel_for pool 64 (fun i -> seen.(i) <- seen.(i) + 1);
      checkb "the next round runs every index" true (Array.for_all (( = ) 1) seen);
      Alcotest.check_raises "the coordinator's own exception comes first" (Failure "mine")
        (fun () ->
          Pipe.Pool.parallel_for pool 2 (fun i ->
              failwith (if i = 0 then "mine" else "theirs"))))

(* Every index once, every slot busy when there are enough indices. *)
let test_parallel_for () =
  Pipe.Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun n ->
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          let doms = Array.make n (-1) in
          Pipe.Pool.parallel_for pool n (fun i ->
              Atomic.incr hits.(i);
              doms.(i) <- (Domain.self () :> int));
          checkb
            (Printf.sprintf "n=%d: every index exactly once" n)
            true
            (Array.for_all (fun a -> Atomic.get a = 1) hits);
          checki
            (Printf.sprintf "n=%d: min(slots, n) domains ran" n)
            (min 3 n)
            (List.length (List.sort_uniq compare (Array.to_list doms))))
        [ 0; 1; 2; 3; 7; 100 ])

(* --- property: finalize on a pool ≡ finalize on the calling domain --- *)

let shapes = [| "uniform"; "few-large"; "graph" |]

let shape_instance shape seed =
  match shape with
  | 0 ->
      let n = 1024 and m = 128 in
      let sys = Mkc_workload.Random_inst.uniform ~n ~m ~set_size:48 ~seed in
      (Src.of_array (Ss.edge_stream ~seed:(seed + 1) sys), P.make ~m ~n ~k:4 ~alpha:4.0 ~seed ())
  | 1 ->
      let n = 1024 and m = 128 in
      let pl = Mkc_workload.Planted.few_large ~n ~m ~k:8 ~seed in
      ( Src.of_array (Ss.edge_stream ~seed:(seed + 1) pl.Mkc_workload.Planted.system),
        P.make ~m ~n ~k:8 ~alpha:2.0 ~seed () )
  | _ ->
      let v = 512 in
      let sys = Mkc_workload.Graph_gen.power_law ~vertices:v ~edges:(8 * v) ~skew:1.2 ~seed in
      ( Mkc_workload.Graph_gen.in_arrival_stream sys ~seed:(seed + 1),
        P.make ~m:v ~n:v ~k:6 ~alpha:3.0 ~seed () )

let fed sink create p src =
  let t = create p in
  Pipe.feed_all_parallel ~domains:1 [| Sink.pack sink t |] src;
  t

(* Figure 1 by hand, on the estimator's own seeds: every (z, rep)
   oracle fed edge by edge and finalized in ladder order, then Theorem
   3.6's largest accepted estimate, else the largest one.  It shares no
   code with [E.finalize], so pairing an outcome with the wrong
   instance shows as another [z_guess] or provenance on either path. *)
let figure1 (p : P.t) src =
  let module Sm = Mkc_hashing.Splitmix in
  let root = Sm.create p.P.base_seed in
  let accepted = ref None and fallback = ref None in
  List.iter
    (fun z ->
      for rep = 0 to p.P.z_repeats - 1 do
        let sd = Sm.fork root ((z * 131) + rep) in
        let red = Mkc_core.Universe_reduction.create ~z ~seed:(Sm.fork sd 0) in
        let o = Mkc_core.Oracle.create (P.with_universe p z) ~seed:(Sm.fork sd 1) in
        Src.iter
          (fun e -> Mkc_core.Oracle.feed o (Mkc_core.Universe_reduction.apply_edge red e))
          src;
        match Mkc_core.Oracle.finalize o with
        | None -> ()
        | Some { Mkc_core.Solution.estimate; provenance; _ } -> (
            let slot =
              if estimate >= float_of_int z /. (p.P.accept_factor *. p.P.alpha) then accepted
              else fallback
            in
            match !slot with
            | Some (best, _, _) when best >= estimate -> ()
            | _ -> slot := Some (estimate, z, provenance))
      done)
    (E.guesses (E.create p));
  match (!accepted, !fallback) with Some r, _ | None, Some r -> Some r | None, None -> None

let prop_pooled_finalize =
  let arb =
    QCheck.make
      ~print:(fun (shape, seed) -> Printf.sprintf "%s, seed %d" shapes.(shape) seed)
      QCheck.Gen.(pair (int_range 0 2) (int_range 1 10_000))
  in
  QCheck.Test.make ~name:"pooled finalize ≡ one-domain finalize (estimate and report)"
    ~count:12 arb (fun (shape, seed) ->
      let src, p = shape_instance shape seed in
      Pipe.Pool.with_pool ~domains:2 (fun pool ->
          let a = fed E.sink E.create p src and b = fed E.sink E.create p src in
          let ra = E.finalize ~pool a and rb = E.finalize b in
          let provenance (r : E.result) =
            Option.map (fun o -> o.Mkc_core.Solution.provenance) r.E.outcome
          in
          let module R = Mkc_core.Report in
          let ca = fed R.sink R.create p src and cb = fed R.sink R.create p src in
          let qa = R.finalize ~pool ca and qb = R.finalize cb in
          let chosen (r : E.result) =
            Option.map (fun prov -> (r.E.estimate, r.E.z_guess, prov)) (provenance r)
          in
          chosen ra = figure1 p src
          && fingerprint ra = fingerprint rb
          && provenance ra = provenance rb
          && E.winners a = E.winners b
          && E.stats a = E.stats b
          && qa.R.estimate = qb.R.estimate
          && qa.R.sets = qb.R.sets
          && qa.R.provenance = qb.R.provenance))

let suite =
  [
    Alcotest.test_case "pool ≡ run_seq across domains × chunks" `Quick
      test_pool_equiv_matrix;
    Alcotest.test_case "pool reuse across drives + stats" `Quick
      test_pool_reuse_and_stats;
    Alcotest.test_case "empty stream and cost-vector errors" `Quick
      test_pool_empty_and_errors;
    Alcotest.test_case "pooled checkpoint/resume" `Quick test_pool_resumable;
    Alcotest.test_case "a worker's exception reaches the coordinator" `Quick
      test_worker_exception;
    Alcotest.test_case "parallel_for runs every index once" `Quick test_parallel_for;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_pool_equals_seq; prop_pool_crash_resume; prop_pooled_finalize ]
