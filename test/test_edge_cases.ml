(* Edge cases and failure-injection tests across the stack: boundary
   sizes, out-of-range ids, empty structures, degenerate parameters. *)

module Sm = Mkc_hashing.Splitmix
module Ss = Mkc_stream.Set_system
module P = Mkc_core.Params

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- hashing ---------- *)

let test_splitmix_split_diverges () =
  let g = Sm.create 1 in
  let child = Sm.split g in
  checkb "parent and child diverge" false (Int64.equal (Sm.next g) (Sm.next child))

let test_poly_hash_range_one () =
  let h = Mkc_hashing.Poly_hash.create ~indep:3 ~range:1 ~seed:(Sm.create 2) in
  for x = 0 to 50 do
    checki "range 1 always hashes to 0" 0 (Mkc_hashing.Poly_hash.hash h x)
  done;
  checkb "keep always true at range 1" true (Mkc_hashing.Poly_hash.keep h 7)

let test_poly_hash_huge_keys () =
  let h = Mkc_hashing.Poly_hash.create ~indep:4 ~range:100 ~seed:(Sm.create 3) in
  let v = Mkc_hashing.Poly_hash.hash h max_int in
  checkb "max_int key handled" true (v >= 0 && v < 100)

let test_field_sub_wraps () =
  checki "0 - 1 = p - 1" (Mkc_hashing.Prime_field.p - 1) (Mkc_hashing.Prime_field.sub 0 1)

let test_pairwise_words () =
  let h = Mkc_hashing.Pairwise.create ~range:7 ~seed:(Sm.create 4) in
  checki "pairwise stores 3 words" 3 (Mkc_hashing.Pairwise.words h)

(* ---------- sketches ---------- *)

let test_count_sketch_turnstile () =
  (* inserts followed by exact deletions net to ~zero *)
  let cs = Mkc_sketch.Count_sketch.create ~width:256 ~seed:(Sm.create 5) () in
  for i = 0 to 99 do
    Mkc_sketch.Count_sketch.add cs i 10
  done;
  for i = 0 to 99 do
    Mkc_sketch.Count_sketch.add cs i (-10)
  done;
  checkb "empty after cancellation" true (Mkc_sketch.Count_sketch.f2_estimate cs = 0.0)

let test_hh_clamp_ablation () =
  (* with clamp off, a light candidate colliding with the giant can be
     reported with an inflated value; with clamp on it cannot exceed its
     exact count *)
  let mk clamp = Mkc_sketch.F2_heavy_hitter.create ~clamp ~phi:0.25 ~seed:(Sm.create 7) () in
  let feed hh =
    for _ = 1 to 10_000 do
      Mkc_sketch.F2_heavy_hitter.add hh 1 1
    done;
    Mkc_sketch.F2_heavy_hitter.add hh 2 1
  in
  let clamped = mk true and unclamped = mk false in
  feed clamped;
  feed unclamped;
  let freq_of hh id =
    List.find_opt
      (fun (h : Mkc_sketch.F2_heavy_hitter.hit) -> h.id = id)
      (Mkc_sketch.F2_heavy_hitter.candidates hh)
    |> Option.map (fun (h : Mkc_sketch.F2_heavy_hitter.hit) -> h.freq)
  in
  (match freq_of clamped 2 with
  | Some f -> checkb "clamped light candidate ≤ exact count" true (f <= 1.0)
  | None -> ());
  match freq_of clamped 1 with
  | Some f -> checkb "heavy candidate near exact" true (f >= 5000.0 && f <= 15000.0)
  | None -> Alcotest.fail "heavy candidate must be tracked"

let test_kmv_small_cap_boundary () =
  let sk = Mkc_sketch.Kmv.create ~cap:2 ~seed:(Sm.create 8) () in
  Mkc_sketch.Kmv.add sk 1;
  checkb "below cap exact" true (Mkc_sketch.Kmv.estimate sk = 1.0)

let test_reservoir_below_cap () =
  let r = Mkc_sketch.Sampler.Reservoir.create ~cap:10 ~seed:(Sm.create 9) in
  Mkc_sketch.Sampler.Reservoir.add r 42;
  Mkc_sketch.Sampler.Reservoir.add r 43;
  let c = Mkc_sketch.Sampler.Reservoir.contents r in
  checkb "keeps everything below cap" true (Array.to_list c = [ 42; 43 ])

let test_dyadic_bits_boundary () =
  let dy = Mkc_sketch.Dyadic_hh.create ~bits:1 ~phi:0.5 ~seed:(Sm.create 10) () in
  for _ = 1 to 100 do
    Mkc_sketch.Dyadic_hh.add dy 1 1
  done;
  let hits = Mkc_sketch.Dyadic_hh.hits dy in
  checkb "2-coordinate universe works" true
    (List.exists (fun (h : Mkc_sketch.Dyadic_hh.hit) -> h.id = 1) hits)

(* ---------- streams / workloads ---------- *)

let test_empty_stream_save_load () =
  let src = Mkc_stream.Stream_source.of_array [||] in
  let path = Filename.temp_file "mkc_empty" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mkc_stream.Stream_source.save src path;
      checki "empty roundtrip" 0
        (Mkc_stream.Stream_source.length (Mkc_stream.Stream_source.load path)))

let test_system_with_empty_sets_only () =
  let s = Ss.create ~n:4 ~m:3 ~sets:[| [||]; [||]; [||] |] in
  checki "zero total size" 0 (Ss.total_size s);
  checki "zero coverage" 0 (Ss.coverage s [ 0; 1; 2 ])

let test_planted_full_overlap_noise () =
  let pl =
    Mkc_workload.Planted.planted ~n:100 ~m:10 ~num_planted:2 ~coverage_fraction:0.5
      ~noise_size:5 ~noise_overlap:1.0 ~seed:11 ()
  in
  (* all noise inside the covered region: planted sets still optimal *)
  checki "planted coverage" 50 pl.planted_coverage;
  checkb "noise confined to covered region" true
    (Ss.coverage pl.system (List.init 10 Fun.id) = 50)

let test_planted_zero_overlap_noise () =
  let pl =
    Mkc_workload.Planted.planted ~n:100 ~m:10 ~num_planted:2 ~coverage_fraction:0.4
      ~noise_size:5 ~noise_overlap:0.0 ~seed:12 ()
  in
  (* noise entirely outside the planted region *)
  let noise_ids = List.filter (fun i -> not (List.mem i pl.planted_sets)) (List.init 10 Fun.id) in
  let covered = Ss.covered pl.system noise_ids in
  let planted_region_hit = ref false in
  for e = 0 to 39 do
    if covered.(e) then planted_region_hit := true
  done;
  checkb "noise avoids planted region" false !planted_region_hit

let test_graph_zero_edges () =
  let g = Mkc_workload.Graph_gen.power_law ~vertices:10 ~edges:0 ~skew:1.0 ~seed:13 in
  checki "no pairs" 0 (Ss.total_size g)

let zipf_singleton_real () =
  let z = Mkc_workload.Zipf.create ~n:1 ~s:2.0 ~seed:(Sm.create 14) in
  checki "only outcome" 0 (Mkc_workload.Zipf.sample z)

(* ---------- core robustness ---------- *)

let test_estimate_tolerates_out_of_range_elements () =
  (* ids beyond the declared n: hashing handles them; no crash, no claim *)
  let p = P.make ~m:32 ~n:64 ~k:4 ~alpha:2.0 ~seed:15 () in
  let est = Mkc_core.Estimate.create p in
  for i = 0 to 499 do
    Mkc_core.Estimate.feed est (Mkc_stream.Edge.make ~set:(i mod 32) ~elt:(1000 + i))
  done;
  let r = Mkc_core.Estimate.finalize est in
  checkb "finite" true (Float.is_finite r.Mkc_core.Estimate.estimate)

let test_oracle_single_set_stream () =
  let p = P.make ~m:64 ~n:256 ~k:2 ~alpha:2.0 ~seed:16 () in
  let o = Mkc_core.Oracle.create p ~seed:(Sm.create 17) in
  for e = 0 to 99 do
    Mkc_core.Oracle.feed o (Mkc_stream.Edge.make ~set:5 ~elt:e)
  done;
  (match Mkc_core.Oracle.finalize o with
  | None -> ()
  | Some out -> checkb "estimate ≤ true coverage ·2" true (out.Mkc_core.Solution.estimate <= 200.0))

let test_report_k1 () =
  let pl = Mkc_workload.Planted.few_large ~n:256 ~m:64 ~k:1 ~seed:18 in
  let p = P.make ~m:64 ~n:256 ~k:1 ~alpha:2.0 ~seed:19 () in
  let rep = Mkc_core.Report.create p in
  Array.iter (Mkc_core.Report.feed rep) (Ss.edge_stream ~seed:20 pl.system);
  let r = Mkc_core.Report.finalize rep in
  checkb "at most one set" true (List.length r.Mkc_core.Report.sets <= 1)

let test_small_set_absent_when_heavy_regime () =
  (* sα ≥ 2k disables SmallSet (Figure 2's branch); force it via k=1, big α *)
  let p = P.make ~m:4096 ~n:4096 ~k:1 ~alpha:64.0 ~seed:21 () in
  (* w = min(k, α) = 1; sα = 0.5 < 2 — still small regime for k=1. Use the
     breakdown to at least confirm the branch logic runs. *)
  let o = Mkc_core.Oracle.create p ~seed:(Sm.create 22) in
  checkb "breakdown exposes branch" true
    (List.exists
       (fun (key, _) -> String.starts_with ~prefix:"oracle.small_set" key)
       (Mkc_core.Oracle.words_breakdown o))

(* ---------- more sketch edge cases ---------- *)

let test_f2c_no_contributing_class_quiet () =
  (* a flat vector with tiny per-coordinate mass: hits above any serious
     threshold should be value-bounded (each true freq is 2) *)
  let c = Mkc_sketch.F2_contributing.create ~gamma:0.25 ~r:64 ~indep:6 ~seed:(Sm.create 30) () in
  for i = 0 to 2047 do
    Mkc_sketch.F2_contributing.add c i 2
  done;
  List.iter
    (fun (h : Mkc_sketch.F2_contributing.hit) ->
      checkb "no inflated frequencies on flat input" true (h.freq <= 4.0))
    (Mkc_sketch.F2_contributing.candidates c)

let test_hll_wide_range () =
  let sk = Mkc_sketch.Hyperloglog.create ~bits:8 ~seed:(Sm.create 31) () in
  for x = 0 to 499_999 do
    Mkc_sketch.Hyperloglog.add sk x
  done;
  let est = Mkc_sketch.Hyperloglog.estimate sk in
  checkb "within 20% at 500k with 256 registers" true
    (est > 400_000.0 && est < 600_000.0)

let test_kmv_estimate_monotone () =
  let sk = Mkc_sketch.Kmv.create ~cap:64 ~seed:(Sm.create 32) () in
  let last = ref 0.0 and ok = ref true in
  for x = 0 to 9_999 do
    Mkc_sketch.Kmv.add sk x;
    if x mod 1000 = 999 then begin
      let e = Mkc_sketch.Kmv.estimate sk in
      (* monotone up to estimator noise *)
      if e < !last *. 0.5 then ok := false;
      last := e
    end
  done;
  checkb "estimate grows with the stream" true !ok

(* ---------- more core edge cases ---------- *)

let test_words_breakdown_no_smallset_in_heavy_regime () =
  (* manufacture sα ≥ 2k by overriding s (the Fig 2 branch test) *)
  let p = P.make ~m:256 ~n:512 ~k:2 ~alpha:8.0 ~seed:33 () in
  let p = { p with P.s = 1.0 } in
  (* now s·α = 8 ≥ 2k = 4: SmallSet must be absent *)
  let o = Mkc_core.Oracle.create p ~seed:(Sm.create 34) in
  checki "small-set slot empty" 0
    (List.fold_left
       (fun acc (key, w) ->
         if String.starts_with ~prefix:"oracle.small_set" key then acc + w else acc)
       0
       (Mkc_core.Oracle.words_breakdown o))

let test_full_range_switch_boundary () =
  let mk alpha =
    Mkc_core.Full_range.engine
      (Mkc_core.Full_range.create (P.make ~m:64 ~n:128 ~k:2 ~alpha ~seed:35 ()))
  in
  checkb "α = 3 → constant engine" true (mk 3.0 = Mkc_core.Full_range.Constant_factor);
  checkb "α = 3.5 → sketching engine" true (mk 3.5 = Mkc_core.Full_range.Sketching)

let test_solution_pp_smoke () =
  let o =
    {
      Mkc_core.Solution.estimate = 42.0;
      witness = (fun () -> [ 1; 2 ]);
      provenance = Mkc_core.Solution.Large_common { beta = 4 };
    }
  in
  let s = Format.asprintf "%a" Mkc_core.Solution.pp o in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "pp mentions the subroutine" true (contains "large-common" s);
  checkb "pp mentions the estimate" true (contains "42" s)

let test_sieve_duplicate_set_arrival () =
  let sv = Mkc_coverage.Sieve.create ~n:16 ~k:2 () in
  Mkc_coverage.Sieve.feed sv 0 [| 0; 1; 2; 3 |];
  Mkc_coverage.Sieve.feed sv 0 [| 0; 1; 2; 3 |];
  let r = Mkc_coverage.Sieve.result sv in
  checki "duplicate arrivals add nothing" 4 r.coverage

(* ---------- lower bound ---------- *)

let test_dsj_full_fill () =
  let d = Mkc_lowerbound.Disjointness.generate ~r:4 ~m:64 ~case:Mkc_lowerbound.Disjointness.No
      ~seed:23 ~fill:1.0 ()
  in
  checkb "valid at fill=1" true (Mkc_lowerbound.Disjointness.validate d)

let test_dsj_two_players () =
  let d = Mkc_lowerbound.Disjointness.generate ~r:2 ~m:32 ~case:Mkc_lowerbound.Disjointness.Yes
      ~seed:24 ()
  in
  checkb "r=2 valid" true (Mkc_lowerbound.Disjointness.validate d);
  let out =
    Mkc_lowerbound.Protocol.play d (Mkc_lowerbound.Protocol.exact_distinguisher ~m:32 ~r:2)
  in
  checkb "exact correct at r=2" true out.Mkc_lowerbound.Protocol.correct

let suite =
  [
    Alcotest.test_case "splitmix split diverges" `Quick test_splitmix_split_diverges;
    Alcotest.test_case "poly hash range 1" `Quick test_poly_hash_range_one;
    Alcotest.test_case "poly hash huge keys" `Quick test_poly_hash_huge_keys;
    Alcotest.test_case "field sub wraps" `Quick test_field_sub_wraps;
    Alcotest.test_case "pairwise words" `Quick test_pairwise_words;
    Alcotest.test_case "count-sketch turnstile" `Quick test_count_sketch_turnstile;
    Alcotest.test_case "hh clamp ablation" `Quick test_hh_clamp_ablation;
    Alcotest.test_case "kmv tiny cap" `Quick test_kmv_small_cap_boundary;
    Alcotest.test_case "reservoir below cap" `Quick test_reservoir_below_cap;
    Alcotest.test_case "dyadic 1-bit universe" `Quick test_dyadic_bits_boundary;
    Alcotest.test_case "empty stream save/load" `Quick test_empty_stream_save_load;
    Alcotest.test_case "system of empty sets" `Quick test_system_with_empty_sets_only;
    Alcotest.test_case "planted full-overlap noise" `Quick test_planted_full_overlap_noise;
    Alcotest.test_case "planted zero-overlap noise" `Quick test_planted_zero_overlap_noise;
    Alcotest.test_case "graph zero edges" `Quick test_graph_zero_edges;
    Alcotest.test_case "zipf singleton" `Quick zipf_singleton_real;
    Alcotest.test_case "estimate out-of-range ids" `Quick
      test_estimate_tolerates_out_of_range_elements;
    Alcotest.test_case "oracle single-set stream" `Quick test_oracle_single_set_stream;
    Alcotest.test_case "report k=1" `Quick test_report_k1;
    Alcotest.test_case "oracle branch exposure" `Quick test_small_set_absent_when_heavy_regime;
    Alcotest.test_case "f2c quiet on flat input" `Quick test_f2c_no_contributing_class_quiet;
    Alcotest.test_case "hll wide range" `Quick test_hll_wide_range;
    Alcotest.test_case "kmv monotone" `Quick test_kmv_estimate_monotone;
    Alcotest.test_case "fig-2 heavy-regime branch" `Quick
      test_words_breakdown_no_smallset_in_heavy_regime;
    Alcotest.test_case "full-range switch boundary" `Quick test_full_range_switch_boundary;
    Alcotest.test_case "solution pp" `Quick test_solution_pp_smoke;
    Alcotest.test_case "sieve duplicate arrivals" `Quick test_sieve_duplicate_set_arrival;
    Alcotest.test_case "dsj fill=1" `Quick test_dsj_full_fill;
    Alcotest.test_case "dsj two players" `Quick test_dsj_two_players;
  ]
