(* End-to-end tests for EstimateMaxCover (Figure 1 / Theorem 3.1) and the
   reporting algorithm (Theorem 3.2).  Instances are kept small so the
   whole file runs in seconds; the bench harness covers larger scales. *)

module Sm = Mkc_hashing.Splitmix
module Ss = Mkc_stream.Set_system
module P = Mkc_core.Params
module Est = Mkc_core.Estimate
module Rep = Mkc_core.Report
module Sol = Mkc_core.Solution

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let run_estimate ?(profile = P.Practical) sys ~k ~alpha ~seed =
  let p =
    P.make ~m:(Ss.m sys) ~n:(Ss.n sys) ~k ~alpha ~profile ~seed ()
  in
  let est = Est.create p in
  Array.iter (Est.feed est) (Ss.edge_stream ~seed:(seed + 1) sys);
  Est.finalize est

let run_report sys ~k ~alpha ~seed =
  let p = P.make ~m:(Ss.m sys) ~n:(Ss.n sys) ~k ~alpha ~seed () in
  let rep = Rep.create p in
  Array.iter (Rep.feed rep) (Ss.edge_stream ~seed:(seed + 1) sys);
  Rep.finalize rep

(* The practical-profile empirical guarantee we hold the code to:
   estimate ∈ [OPT/(slack·α), 2·OPT].  The paper's Õ(α) hides polylogs;
   slack is our practical polylog stand-in (documented in EXPERIMENTS.md). *)
let slack = 8.0

let check_alpha_approx ~opt ~alpha est =
  let opt = float_of_int opt in
  checkb
    (Printf.sprintf "estimate %.0f within [OPT/%.0fα, 2·OPT] of OPT=%.0f" est (slack *. alpha) opt)
    true
    (est >= opt /. (slack *. alpha) && est <= 2.0 *. opt)

(* ---------- trivial branch ---------- *)

let test_trivial_branch () =
  (* kα >= m: returns n/α with a k-set witness *)
  let sys = Mkc_workload.Random_inst.uniform ~n:100 ~m:16 ~set_size:10 ~seed:1 in
  let r = run_estimate sys ~k:8 ~alpha:4.0 ~seed:2 in
  checkb "n/α returned" true (Float.abs (r.Est.estimate -. 25.0) < 1e-9);
  match r.Est.outcome with
  | Some o ->
      checkb "trivial provenance" true (o.Sol.provenance = Sol.Trivial);
      checki "k witness sets" 8 (List.length (o.Sol.witness ()))
  | None -> Alcotest.fail "trivial branch must produce an outcome"

(* ---------- planted regimes ---------- *)

let test_estimate_few_large () =
  let pl = Mkc_workload.Planted.few_large ~n:1024 ~m:512 ~k:8 ~seed:3 in
  let r = run_estimate pl.system ~k:8 ~alpha:4.0 ~seed:4 in
  check_alpha_approx ~opt:pl.planted_coverage ~alpha:4.0 r.Est.estimate

let test_estimate_many_small () =
  let pl = Mkc_workload.Planted.many_small ~n:1024 ~m:512 ~k:64 ~seed:5 in
  let r = run_estimate pl.system ~k:64 ~alpha:8.0 ~seed:6 in
  check_alpha_approx ~opt:pl.planted_coverage ~alpha:8.0 r.Est.estimate

let test_estimate_common_heavy () =
  let pl = Mkc_workload.Planted.common_heavy ~n:1024 ~m:512 ~k:16 ~beta:4 ~seed:7 in
  (* certified lower bound; true OPT may be larger — compare against
     greedy as the OPT proxy *)
  let greedy = (Mkc_coverage.Greedy.run pl.system ~k:16).coverage in
  let opt = max pl.planted_coverage greedy in
  let r = run_estimate pl.system ~k:16 ~alpha:8.0 ~seed:8 in
  check_alpha_approx ~opt ~alpha:8.0 r.Est.estimate

let test_estimate_uniform_instance () =
  let sys = Mkc_workload.Random_inst.uniform ~n:512 ~m:512 ~set_size:12 ~seed:9 in
  let greedy = (Mkc_coverage.Greedy.run sys ~k:16).coverage in
  let r = run_estimate sys ~k:16 ~alpha:4.0 ~seed:10 in
  (* greedy ∈ [OPT·(1-1/e), OPT] so it's a fine OPT proxy *)
  check_alpha_approx ~opt:greedy ~alpha:4.0 r.Est.estimate

let test_estimate_graph_workload () =
  let g = Mkc_workload.Graph_gen.power_law ~vertices:512 ~edges:6000 ~skew:1.2 ~seed:11 in
  let greedy = (Mkc_coverage.Greedy.run g ~k:16).coverage in
  let stream = Mkc_workload.Graph_gen.in_arrival_stream g ~seed:12 in
  let p = P.make ~m:512 ~n:512 ~k:16 ~alpha:4.0 ~seed:13 () in
  let est = Est.create p in
  Mkc_stream.Stream_source.iter (Est.feed est) stream;
  let r = Est.finalize est in
  check_alpha_approx ~opt:greedy ~alpha:4.0 r.Est.estimate

(* ---------- order invariance ---------- *)

let test_estimate_order_invariant_quality () =
  (* different arrival orders must give comparable results (same seeds
     for the algorithm, different stream shuffles) *)
  let pl = Mkc_workload.Planted.few_large ~n:512 ~m:256 ~k:8 ~seed:14 in
  let p = P.make ~m:256 ~n:512 ~k:8 ~alpha:4.0 ~seed:15 () in
  let run stream_seed =
    let est = Est.create p in
    Array.iter (Est.feed est) (Ss.edge_stream ~seed:stream_seed pl.system);
    (Est.finalize est).Est.estimate
  in
  let e1 = run 100 and e2 = run 200 and e3 = run 300 in
  List.iter (fun e -> check_alpha_approx ~opt:pl.planted_coverage ~alpha:4.0 e) [ e1; e2; e3 ]

let test_estimate_set_arrival_order_also_works () =
  (* canonical (set-major) order is a legal edge-arrival order too *)
  let pl = Mkc_workload.Planted.few_large ~n:512 ~m:256 ~k:8 ~seed:16 in
  let p = P.make ~m:256 ~n:512 ~k:8 ~alpha:4.0 ~seed:17 () in
  let est = Est.create p in
  Array.iter (Est.feed est) (Ss.edges pl.system);
  check_alpha_approx ~opt:pl.planted_coverage ~alpha:4.0 (Est.finalize est).Est.estimate

(* ---------- guesses & structure ---------- *)

let test_guess_ladder_covers_n () =
  let p = P.make ~m:4096 ~n:3000 ~k:4 ~alpha:8.0 () in
  let est = Est.create p in
  let gs = Est.guesses est in
  checkb "top guess >= n" true (List.exists (fun z -> z >= 3000) gs);
  checkb "ladder increasing" true (List.sort compare gs = gs)

let test_estimate_empty_stream () =
  let p = P.make ~m:256 ~n:512 ~k:4 ~alpha:4.0 () in
  let est = Est.create p in
  let r = Est.finalize est in
  checkb "no coverage claimed on empty stream" true (r.Est.estimate <= 64.0)

(* ---------- space scaling (Theorem 3.1's headline) ---------- *)

let test_words_decrease_with_alpha () =
  let words alpha =
    let p = P.make ~m:8192 ~n:8192 ~k:64 ~alpha ~seed:18 () in
    Est.words (Est.create p)
  in
  let w2 = words 2.0 and w8 = words 8.0 and w32 = words 32.0 in
  checkb "α=2 > α=8 > α=32" true (w2 > w8 && w8 > w32);
  (* fitted decay should be clearly super-linear in α (target: ~α²) *)
  checkb "decay at least linear-and-a-half" true
    (float_of_int w2 /. float_of_int w32 > 16.0 /. 1.5)

let test_report_words_include_k () =
  let p = P.make ~m:512 ~n:512 ~k:64 ~alpha:8.0 ~seed:19 () in
  let rep = Rep.create p in
  checkb "report words >= estimate words" true (Rep.words rep >= 64)

(* ---------- reporting (Theorem 3.2) ---------- *)

let test_report_few_large () =
  let pl = Mkc_workload.Planted.few_large ~n:1024 ~m:512 ~k:8 ~seed:20 in
  let r = run_report pl.system ~k:8 ~alpha:4.0 ~seed:21 in
  checkb "at most k sets" true (List.length r.Rep.sets <= 8);
  let cov = Ss.coverage pl.system r.Rep.sets in
  checkb
    (Printf.sprintf "witness coverage %d >= OPT/(%.0f·α)" cov (2.0 *. slack))
    true
    (float_of_int cov >= float_of_int pl.planted_coverage /. (2.0 *. slack *. 4.0))

let test_report_many_small () =
  let pl = Mkc_workload.Planted.many_small ~n:1024 ~m:512 ~k:64 ~seed:22 in
  let r = run_report pl.system ~k:64 ~alpha:8.0 ~seed:23 in
  checkb "at most k sets" true (List.length r.Rep.sets <= 64);
  let cov = Ss.coverage pl.system r.Rep.sets in
  checkb "witness covers Ω(OPT/α̃)" true
    (float_of_int cov >= float_of_int pl.planted_coverage /. (2.0 *. slack *. 8.0))

let test_report_sets_are_valid_ids () =
  let pl = Mkc_workload.Planted.few_large ~n:512 ~m:128 ~k:4 ~seed:24 in
  let r = run_report pl.system ~k:4 ~alpha:4.0 ~seed:25 in
  List.iter (fun id -> checkb "valid id" true (id >= 0 && id < 128)) r.Rep.sets

let test_report_provenance_present () =
  let pl = Mkc_workload.Planted.few_large ~n:512 ~m:128 ~k:4 ~seed:26 in
  let r = run_report pl.system ~k:4 ~alpha:4.0 ~seed:27 in
  checkb "provenance recorded" true (r.Rep.provenance <> None)

let test_estimate_order_matrix () =
  (* a matrix of adversarial arrival orders: canonical set-major,
     element-major (footnote 2), reversed, and random — the guarantee is
     order-oblivious *)
  let pl = Mkc_workload.Planted.few_large ~n:512 ~m:256 ~k:8 ~seed:40 in
  let p = P.make ~m:256 ~n:512 ~k:8 ~alpha:4.0 ~seed:41 () in
  let canonical = Ss.edges pl.system in
  let element_major =
    let a = Array.copy canonical in
    Array.sort (fun (x : Mkc_stream.Edge.t) (y : Mkc_stream.Edge.t) ->
        compare (x.elt, x.set) (y.elt, y.set)) a;
    a
  in
  let reversed =
    let a = Array.copy canonical in
    let len = Array.length a in
    Array.init len (fun i -> a.(len - 1 - i))
  in
  let random = Ss.edge_stream ~seed:42 pl.system in
  List.iter
    (fun stream ->
      let est = Est.create p in
      Array.iter (Est.feed est) stream;
      check_alpha_approx ~opt:pl.planted_coverage ~alpha:4.0 (Est.finalize est).Est.estimate)
    [ canonical; element_major; reversed; random ]

(* ---------- edge cases ---------- *)

let test_estimate_duplicate_edges () =
  (* each pair repeated 3x in the stream: single-pass algorithms must be
     duplicate-tolerant (coverage counts distinct elements) *)
  let pl = Mkc_workload.Planted.few_large ~n:512 ~m:256 ~k:8 ~seed:30 in
  let base = Ss.edge_stream ~seed:31 pl.system in
  let tripled = Array.concat [ base; base; base ] in
  let p = P.make ~m:256 ~n:512 ~k:8 ~alpha:4.0 ~seed:32 () in
  let est = Est.create p in
  Array.iter (Est.feed est) tripled;
  check_alpha_approx ~opt:pl.planted_coverage ~alpha:4.0 (Est.finalize est).Est.estimate

let test_estimate_k_equals_m () =
  (* k = m triggers the trivial branch (kα ≥ m) *)
  let sys = Mkc_workload.Random_inst.uniform ~n:64 ~m:16 ~set_size:8 ~seed:33 in
  let r = run_estimate sys ~k:16 ~alpha:2.0 ~seed:34 in
  checkb "trivial estimate n/α" true (Float.abs (r.Est.estimate -. 32.0) < 1e-9)

let test_estimate_alpha_near_sqrt_m () =
  (* the upper end of the valid α range: α = Θ(√m) *)
  let pl = Mkc_workload.Planted.few_large ~n:2048 ~m:1024 ~k:8 ~seed:35 in
  let alpha = 32.0 (* = √1024 *) in
  let r = run_estimate pl.system ~k:8 ~alpha ~seed:36 in
  checkb "still sandwiched at α=√m" true
    (r.Est.estimate <= 2.0 *. float_of_int pl.planted_coverage
    && r.Est.estimate >= float_of_int pl.planted_coverage /. (slack *. alpha *. 4.0))

let test_estimate_singleton_universe () =
  let p = P.make ~m:8 ~n:1 ~k:1 ~alpha:1.0 ~seed:37 () in
  ignore (Est.finalize (Est.create p))

(* ---------- statistical success probability (Theorem 3.1's 3/4) ---------- *)

let test_success_probability () =
  let pl = Mkc_workload.Planted.few_large ~n:512 ~m:256 ~k:8 ~seed:60 in
  let trials = 12 and successes = ref 0 in
  for t = 1 to trials do
    let r = run_estimate pl.system ~k:8 ~alpha:4.0 ~seed:(100 * t) in
    let opt = float_of_int pl.planted_coverage in
    if r.Est.estimate >= opt /. (slack *. 4.0) && r.Est.estimate <= 2.0 *. opt then
      incr successes
  done;
  checkb
    (Printf.sprintf "success rate %d/%d >= 3/4" !successes trials)
    true
    (!successes * 4 >= trials * 3)

(* ---------- seed stability ---------- *)

let test_estimate_deterministic_given_seed () =
  let pl = Mkc_workload.Planted.few_large ~n:512 ~m:256 ~k:8 ~seed:28 in
  let run () = run_estimate pl.system ~k:8 ~alpha:4.0 ~seed:29 in
  let a = run () and b = run () in
  checkb "same seed, same estimate" true (a.Est.estimate = b.Est.estimate)

let suite =
  [
    Alcotest.test_case "trivial branch (kα ≥ m)" `Quick test_trivial_branch;
    Alcotest.test_case "estimate: few large" `Slow test_estimate_few_large;
    Alcotest.test_case "estimate: many small" `Slow test_estimate_many_small;
    Alcotest.test_case "estimate: common heavy" `Slow test_estimate_common_heavy;
    Alcotest.test_case "estimate: uniform" `Slow test_estimate_uniform_instance;
    Alcotest.test_case "estimate: graph in-arrival" `Slow test_estimate_graph_workload;
    Alcotest.test_case "order invariance" `Slow test_estimate_order_invariant_quality;
    Alcotest.test_case "set-arrival order works too" `Slow test_estimate_set_arrival_order_also_works;
    Alcotest.test_case "guess ladder covers n" `Quick test_guess_ladder_covers_n;
    Alcotest.test_case "empty stream" `Quick test_estimate_empty_stream;
    Alcotest.test_case "words decrease with α" `Quick test_words_decrease_with_alpha;
    Alcotest.test_case "report words include k" `Quick test_report_words_include_k;
    Alcotest.test_case "report: few large" `Slow test_report_few_large;
    Alcotest.test_case "report: many small" `Slow test_report_many_small;
    Alcotest.test_case "report: valid ids" `Slow test_report_sets_are_valid_ids;
    Alcotest.test_case "report: provenance" `Slow test_report_provenance_present;
    Alcotest.test_case "arrival-order matrix" `Slow test_estimate_order_matrix;
    Alcotest.test_case "duplicate edges tolerated" `Slow test_estimate_duplicate_edges;
    Alcotest.test_case "k = m trivial branch" `Quick test_estimate_k_equals_m;
    Alcotest.test_case "α near √m" `Slow test_estimate_alpha_near_sqrt_m;
    Alcotest.test_case "singleton universe" `Quick test_estimate_singleton_universe;
    Alcotest.test_case "success probability ≥ 3/4" `Slow test_success_probability;
    Alcotest.test_case "estimate deterministic" `Slow test_estimate_deterministic_given_seed;
  ]
