(* Tests for the synthetic workload generators. *)

module Ss = Mkc_stream.Set_system
module Planted = Mkc_workload.Planted
module Zipf = Mkc_workload.Zipf
module Ri = Mkc_workload.Random_inst
module Gg = Mkc_workload.Graph_gen

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- Zipf ---------- *)

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create ~n:100 ~s:1.2 ~seed:(Mkc_hashing.Splitmix.create 1) in
  let sum = ref 0.0 in
  for i = 0 to 99 do
    sum := !sum +. Zipf.pmf z i
  done;
  checkb "pmf normalized" true (Float.abs (!sum -. 1.0) < 1e-9)

let test_zipf_samples_in_range () =
  let z = Zipf.create ~n:50 ~s:1.0 ~seed:(Mkc_hashing.Splitmix.create 2) in
  for _ = 1 to 1000 do
    let x = Zipf.sample z in
    checkb "in range" true (x >= 0 && x < 50)
  done

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~s:1.5 ~seed:(Mkc_hashing.Splitmix.create 3) in
  let head = ref 0 in
  let total = 10_000 in
  for _ = 1 to total do
    if Zipf.sample z < 10 then incr head
  done;
  (* with s = 1.5, the top-10 mass is > 0.6 *)
  checkb "heavy head" true (!head > total / 2)

let test_zipf_uniform_when_s0 () =
  let z = Zipf.create ~n:10 ~s:0.0 ~seed:(Mkc_hashing.Splitmix.create 4) in
  checkb "uniform pmf" true (Float.abs (Zipf.pmf z 0 -. 0.1) < 1e-9)

(* ---------- Random instances ---------- *)

let test_uniform_instance_shape () =
  let s = Ri.uniform ~n:100 ~m:20 ~set_size:10 ~seed:5 in
  checki "m sets" 20 (Ss.m s);
  checki "n elements" 100 (Ss.n s);
  for i = 0 to 19 do
    checkb "set size <= requested (dedup may shrink)" true (Ss.set_size s i <= 10)
  done

let test_uniform_deterministic () =
  let a = Ri.uniform ~n:50 ~m:5 ~set_size:8 ~seed:7 in
  let b = Ri.uniform ~n:50 ~m:5 ~set_size:8 ~seed:7 in
  for i = 0 to 4 do
    checkb "same seed, same instance" true (Ss.set a i = Ss.set b i)
  done

let test_zipf_sizes_instance () =
  let s = Ri.zipf_sizes ~n:200 ~m:50 ~max_size:30 ~skew:1.1 ~seed:8 in
  checki "m sets" 50 (Ss.m s);
  for i = 0 to 49 do
    let sz = Ss.set_size s i in
    checkb "sizes within [0, 30]" true (sz >= 0 && sz <= 30)
  done

(* ---------- Planted instances ---------- *)

let test_planted_disjoint_and_coverage () =
  let pl =
    Planted.planted ~n:1000 ~m:100 ~num_planted:10 ~coverage_fraction:0.5 ~noise_size:5
      ~seed:9 ()
  in
  checki "planted coverage = covered region" 500 pl.planted_coverage;
  checki "exactly k planted" 10 (List.length pl.planted_sets);
  (* planted sets are disjoint: sum of sizes = coverage *)
  let sum =
    List.fold_left (fun acc i -> acc + Ss.set_size pl.system i) 0 pl.planted_sets
  in
  checki "disjoint planted sets" 500 sum;
  checki "their true union" 500 (Ss.coverage pl.system pl.planted_sets)

let test_planted_is_optimal () =
  (* with small noise sets, no k-cover beats the planted one *)
  let pl =
    Planted.planted ~n:300 ~m:12 ~num_planted:3 ~coverage_fraction:0.6 ~noise_size:8
      ~seed:10 ()
  in
  let exact = Mkc_baselines.Exact.run pl.system ~k:3 in
  checkb "exact solver confirms plant" true (exact.coverage = pl.planted_coverage)

let test_planted_ids_spread () =
  let pl =
    Planted.planted ~n:100 ~m:50 ~num_planted:5 ~coverage_fraction:0.5 ~noise_size:3
      ~seed:11 ()
  in
  (* permuted placement: not simply 0..4 for most seeds (this seed verified) *)
  checkb "ids permuted" true (List.sort compare pl.planted_sets <> [ 0; 1; 2; 3; 4 ])

let test_few_large_shape () =
  let pl = Planted.few_large ~n:1024 ~m:128 ~k:8 ~seed:12 in
  checki "covers half" 512 pl.planted_coverage;
  List.iter
    (fun i -> checki "each planted set has n/(2k)" 64 (Ss.set_size pl.system i))
    pl.planted_sets

let test_many_small_shape () =
  let pl = Planted.many_small ~n:1024 ~m:256 ~k:64 ~seed:13 in
  checki "covers half" 512 pl.planted_coverage;
  List.iter
    (fun i -> checki "small planted sets" 8 (Ss.set_size pl.system i))
    pl.planted_sets

let test_common_heavy_frequencies () =
  let pl = Planted.common_heavy ~n:1024 ~m:512 ~k:16 ~beta:4 ~seed:14 in
  let freq = Ss.frequencies pl.system in
  (* first n/4 elements are the common block with target frequency m/(βk) = 8;
     hash placement can merge duplicates, so allow a wide band but require
     clearly-higher frequency than the rare tail *)
  let common_avg = ref 0.0 and rare_avg = ref 0.0 in
  for e = 0 to 255 do
    common_avg := !common_avg +. float_of_int freq.(e)
  done;
  for e = 256 to 1023 do
    rare_avg := !rare_avg +. float_of_int freq.(e)
  done;
  let common_avg = !common_avg /. 256.0 and rare_avg = !rare_avg /. 768.0 in
  checkb "common block much more frequent" true (common_avg > 4.0 *. rare_avg);
  checki "planted selection has k sets" 16 (List.length pl.planted_sets);
  checkb "certified coverage positive" true (pl.planted_coverage > 0)

let test_planted_validation () =
  Alcotest.check_raises "bad coverage fraction"
    (Invalid_argument "Planted.planted: coverage_fraction must be in (0, 1]") (fun () ->
      ignore
        (Planted.planted ~n:10 ~m:5 ~num_planted:2 ~coverage_fraction:1.5 ~noise_size:2
           ~seed:0 ()))

(* ---------- Graph workloads ---------- *)

let test_power_law_graph_shape () =
  let g = Gg.power_law ~vertices:200 ~edges:2000 ~skew:1.2 ~seed:15 in
  checki "one set per vertex" 200 (Ss.m g);
  checki "ground set = vertices" 200 (Ss.n g);
  checkb "parallel edges collapse" true (Ss.total_size g <= 2000)

let test_in_arrival_stream_is_permutation () =
  let g = Gg.power_law ~vertices:50 ~edges:400 ~skew:1.0 ~seed:16 in
  let stream = Gg.in_arrival_stream g ~seed:17 in
  let sorted a =
    let a = Array.copy a in
    Array.sort Mkc_stream.Edge.compare a;
    a
  in
  checkb "same multiset as canonical edges" true
    (sorted (Mkc_stream.Stream_source.to_array stream) = sorted (Ss.edges g))

let test_in_arrival_scatters_sets () =
  (* In target-major order, a vertex's out-neighborhood (a set) should
     not be contiguous (that's footnote 2's point). *)
  let g = Gg.power_law ~vertices:100 ~edges:1500 ~skew:1.3 ~seed:18 in
  let stream = Mkc_stream.Stream_source.to_array (Gg.in_arrival_stream g ~seed:19) in
  (* find a set with >= 5 members and check its positions are spread *)
  let positions = Hashtbl.create 32 in
  Array.iteri
    (fun pos (e : Mkc_stream.Edge.t) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt positions e.set) in
      Hashtbl.replace positions e.set (pos :: l))
    stream;
  let scattered = ref false in
  Hashtbl.iter
    (fun _ poss ->
      let poss = List.sort compare poss in
      match (poss, List.rev poss) with
      | first :: _, last :: _ when List.length poss >= 5 ->
          if last - first > 2 * List.length poss then scattered := true
      | _ -> ())
    positions;
  checkb "at least one set is scattered" true !scattered

(* ---------- Churn (turnstile workload transform) ---------- *)

module Churn = Mkc_workload.Churn
module Edge = Mkc_stream.Edge

let churn_base () =
  Array.init 500 (fun i -> Edge.make ~set:(i mod 37) ~elt:(i * 13 mod 211))

let test_churn_deletions_follow_insertions () =
  let out = Churn.apply ~frac:0.4 ~seed:3 (churn_base ()) in
  (* Every deletion must land strictly after a not-yet-retracted
     insertion of the same pair: a running net count that never goes
     negative proves it. *)
  let net = Hashtbl.create 97 in
  Array.iter
    (fun (e : Edge.t) ->
      let key = (e.set, e.elt) in
      let c = Option.value ~default:0 (Hashtbl.find_opt net key) + e.sign in
      checkb "net count never negative" true (c >= 0);
      Hashtbl.replace net key c)
    out;
  checkb "some deletions emitted" true
    (Array.exists (fun (e : Edge.t) -> e.sign < 0) out);
  (* Deterministic in (frac, seed): same inputs, same stream. *)
  checkb "deterministic" true (Churn.apply ~frac:0.4 ~seed:3 (churn_base ()) = out);
  checkb "seed-sensitive" true (Churn.apply ~frac:0.4 ~seed:4 (churn_base ()) <> out)

let test_churn_live_recovers_net_multiset () =
  let base = churn_base () in
  let out = Churn.apply ~frac:0.4 ~seed:5 base in
  let live = Churn.live out in
  checkb "live is insertion-only" true
    (Array.for_all (fun (e : Edge.t) -> e.sign = 1) live);
  (* Net multiset of the churned stream = multiset of its live edges. *)
  let count edges =
    let h = Hashtbl.create 97 in
    Array.iter
      (fun (e : Edge.t) ->
        let key = (e.set, e.elt) in
        Hashtbl.replace h key (Option.value ~default:0 (Hashtbl.find_opt h key) + e.sign))
      edges;
    Hashtbl.fold (fun k c acc -> if c > 0 then (k, c) :: acc else acc) h []
    |> List.sort compare
  in
  checkb "live = net-positive multiset" true (count out = count live);
  checki "insertions minus deletions" (Array.length live)
    (Array.fold_left (fun acc (e : Edge.t) -> acc + e.sign) 0 out)

let test_churn_degenerate_cases () =
  let base = churn_base () in
  checkb "frac 0 is the identity" true (Churn.apply ~frac:0.0 ~seed:7 base = base);
  checkb "live of insertion-only preserves the multiset" true
    (Array.to_list (Churn.live base)
    |> List.sort compare
    = (Array.to_list base |> List.sort compare));
  checkb "frac 1 rejected" true
    (match Churn.apply ~frac:1.0 ~seed:7 base with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "signed base rejected" true
    (match Churn.apply ~frac:0.1 ~seed:7 (Churn.apply ~frac:0.2 ~seed:8 base) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "zipf pmf normalized" `Quick test_zipf_pmf_sums_to_one;
    Alcotest.test_case "churn deletions follow their insertions" `Quick
      test_churn_deletions_follow_insertions;
    Alcotest.test_case "churn live recovers the net multiset" `Quick
      test_churn_live_recovers_net_multiset;
    Alcotest.test_case "churn degenerate cases" `Quick test_churn_degenerate_cases;
    Alcotest.test_case "zipf samples in range" `Quick test_zipf_samples_in_range;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf uniform at s=0" `Quick test_zipf_uniform_when_s0;
    Alcotest.test_case "uniform instance shape" `Quick test_uniform_instance_shape;
    Alcotest.test_case "uniform deterministic" `Quick test_uniform_deterministic;
    Alcotest.test_case "zipf-sizes instance" `Quick test_zipf_sizes_instance;
    Alcotest.test_case "planted disjoint/coverage" `Quick test_planted_disjoint_and_coverage;
    Alcotest.test_case "planted is optimal" `Quick test_planted_is_optimal;
    Alcotest.test_case "planted ids spread" `Quick test_planted_ids_spread;
    Alcotest.test_case "few_large shape" `Quick test_few_large_shape;
    Alcotest.test_case "many_small shape" `Quick test_many_small_shape;
    Alcotest.test_case "common_heavy frequencies" `Quick test_common_heavy_frequencies;
    Alcotest.test_case "planted validation" `Quick test_planted_validation;
    Alcotest.test_case "power-law graph shape" `Quick test_power_law_graph_shape;
    Alcotest.test_case "in-arrival stream permutation" `Quick test_in_arrival_stream_is_permutation;
    Alcotest.test_case "in-arrival scatters sets" `Quick test_in_arrival_scatters_sets;
  ]
