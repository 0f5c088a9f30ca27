(* Bechamel micro-benchmarks: per-update cost of each streaming
   component — one Test.make per experiment area, all in one run. *)

open Bechamel
open Toolkit
module Sm = Mkc_hashing.Splitmix

let mk_edges n seed =
  let rng = Sm.create seed in
  Array.init n (fun _ ->
      Mkc_stream.Edge.make ~set:(Sm.below rng 2048) ~elt:(Sm.below rng 4096))

(* E10: sketch update costs *)
let test_l0_add =
  let sk = Mkc_sketch.L0_bjkst.create ~seed:(Sm.create 1) () in
  let i = ref 0 in
  Test.make ~name:"e10-l0-bjkst-add"
    (Staged.stage (fun () ->
         incr i;
         Mkc_sketch.L0_bjkst.add sk !i))

let test_kmv_add =
  let sk = Mkc_sketch.Kmv.create ~seed:(Sm.create 2) () in
  let i = ref 0 in
  Test.make ~name:"e10-kmv-add"
    (Staged.stage (fun () ->
         incr i;
         Mkc_sketch.Kmv.add sk !i))

let test_count_sketch_add =
  let cs = Mkc_sketch.Count_sketch.create ~width:1024 ~seed:(Sm.create 3) () in
  let i = ref 0 in
  Test.make ~name:"e10-count-sketch-add"
    (Staged.stage (fun () ->
         incr i;
         Mkc_sketch.Count_sketch.add cs (!i land 2047) 1))

let test_f2hh_add =
  let hh = Mkc_sketch.F2_heavy_hitter.create ~phi:0.01 ~seed:(Sm.create 4) () in
  let i = ref 0 in
  Test.make ~name:"e10-f2-heavy-hitter-add"
    (Staged.stage (fun () ->
         incr i;
         Mkc_sketch.F2_heavy_hitter.add hh (!i land 255) 1))

(* The F2-HeavyHitter candidate tracker's exact-count replay and top-cap
   prunes — what planned LargeSet pays per edge — in the shape of
   uniform-bin's Cntr_large: phi = 1/12, updates spread over 512
   supersets, so the table prunes without end. *)
let test_f2hh_tracked_churn =
  let hh = Mkc_sketch.F2_heavy_hitter.create ~phi:(1.0 /. 12.0) ~seed:(Sm.create 17) () in
  let i = ref 0 in
  Test.make ~name:"f2-hh-tracked-churn"
    (Staged.stage (fun () ->
         incr i;
         Mkc_sketch.F2_heavy_hitter.add_tracked hh ((!i * 2654435761) land 511) 1))

let test_f2c_add =
  let c = Mkc_sketch.F2_contributing.create ~gamma:0.05 ~r:512 ~indep:8 ~seed:(Sm.create 5) () in
  let i = ref 0 in
  Test.make ~name:"e10-f2-contributing-add"
    (Staged.stage (fun () ->
         incr i;
         Mkc_sketch.F2_contributing.add c (!i land 511) 1))

(* E1/E2: whole-pipeline per-edge cost *)
let test_estimate_feed =
  let p = Mkc_core.Params.make ~m:2048 ~n:4096 ~k:16 ~alpha:8.0 ~seed:6 () in
  let est = Mkc_core.Estimate.create p in
  let edges = mk_edges 65536 7 in
  let i = ref 0 in
  Test.make ~name:"e1-estimate-feed-edge"
    (Staged.stage (fun () ->
         incr i;
         Mkc_core.Estimate.feed est edges.(!i land 65535)))

let test_oracle_feed =
  let p = Mkc_core.Params.make ~m:2048 ~n:4096 ~k:16 ~alpha:8.0 ~seed:8 () in
  let o = Mkc_core.Oracle.create p ~seed:(Sm.create 9) in
  let edges = mk_edges 65536 10 in
  let i = ref 0 in
  Test.make ~name:"e6-oracle-feed-edge"
    (Staged.stage (fun () ->
         incr i;
         Mkc_core.Oracle.feed o edges.(!i land 65535)))

(* checkpoint codec: serialize / restore cost of a warmed estimator
   (the price of one [--checkpoint] save and one [--resume] load,
   minus the disk) *)
let checkpoint_env_of est p =
  {
    Mkc_stream.Checkpoint.kind = Mkc_core.Estimate.ckpt_kind;
    pos = 65536;
    seed = (Mkc_core.Estimate.codec p).Mkc_stream.Checkpoint.seed;
    payload = Mkc_core.Estimate.encode est;
  }

let test_checkpoint_encode =
  let p = Mkc_core.Params.make ~m:2048 ~n:4096 ~k:16 ~alpha:8.0 ~seed:13 () in
  let est = Mkc_core.Estimate.create p in
  Array.iter (Mkc_core.Estimate.feed est) (mk_edges 65536 14);
  Test.make ~name:"ckpt-encode-estimate"
    (Staged.stage (fun () ->
         ignore (Mkc_stream.Checkpoint.to_string (checkpoint_env_of est p))))

let test_checkpoint_restore =
  let p = Mkc_core.Params.make ~m:256 ~n:512 ~k:8 ~alpha:4.0 ~seed:15 () in
  let est = Mkc_core.Estimate.create p in
  Array.iter (Mkc_core.Estimate.feed est) (mk_edges 65536 16);
  let bytes = Mkc_stream.Checkpoint.to_string (checkpoint_env_of est p) in
  Test.make ~name:"ckpt-restore-estimate"
    (Staged.stage (fun () ->
         match Mkc_stream.Checkpoint.of_string bytes with
         | Error _ -> assert false
         | Ok env -> (
             let fresh = Mkc_core.Estimate.create p in
             match Mkc_core.Estimate.restore fresh env.Mkc_stream.Checkpoint.payload with
             | Ok () -> ()
             | Error _ -> assert false)))

(* hashing substrate *)
let test_poly_hash =
  let h = Mkc_hashing.Poly_hash.create ~indep:8 ~range:1024 ~seed:(Sm.create 11) in
  let i = ref 0 in
  Test.make ~name:"hash-poly8"
    (Staged.stage (fun () ->
         incr i;
         ignore (Mkc_hashing.Poly_hash.hash h !i)))

let test_tabulation_hash =
  let t = Mkc_hashing.Tabulation.create ~seed:(Sm.create 12) in
  let i = ref 0 in
  Test.make ~name:"hash-tabulation"
    (Staged.stage (fun () ->
         incr i;
         ignore (Mkc_hashing.Tabulation.hash64 t !i)))

let tests =
  Test.make_grouped ~name:"mkc" ~fmt:"%s %s"
    [
      test_poly_hash;
      test_tabulation_hash;
      test_l0_add;
      test_kmv_add;
      test_count_sketch_add;
      test_f2hh_add;
      test_f2hh_tracked_churn;
      test_f2c_add;
      test_estimate_feed;
      test_oracle_feed;
      test_checkpoint_encode;
      test_checkpoint_restore;
    ]

let benchmark () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  Analyze.merge ols instances results

let () = Bechamel_notty.Unit.add Instance.monotonic_clock (Measure.unit Instance.monotonic_clock)

let img (window, results) =
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results

let run () =
  Format.printf "@.=== micro-benchmarks (bechamel, per-call wall clock) ===@.";
  let results = benchmark () in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  img (window, results) |> Notty_unix.eol |> Notty_unix.output_image
