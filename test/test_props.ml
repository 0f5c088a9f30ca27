(* Cross-module property-based tests (qcheck): invariants that must hold
   over randomly generated instances, not just the hand-picked ones. *)

module Ss = Mkc_stream.Set_system
module P = Mkc_core.Params

(* generator: a small random set system *)
let sys_gen =
  QCheck.Gen.(
    let* n = int_range 8 128 in
    let* m = int_range 2 48 in
    let* max_size = int_range 1 16 in
    let* seed = int_range 0 1_000_000 in
    return (Mkc_workload.Random_inst.uniform ~n ~m ~set_size:max_size ~seed, n, m))

let sys_arb =
  QCheck.make ~print:(fun (s, n, m) -> Printf.sprintf "sys(n=%d m=%d pairs=%d)" n m (Ss.total_size s)) sys_gen

let prop_coverage_monotone =
  QCheck.Test.make ~name:"coverage is monotone in the selection" ~count:60 sys_arb
    (fun (sys, _, m) ->
      let sel = List.init (min 4 m) Fun.id in
      let bigger = List.init (min 8 m) Fun.id in
      Ss.coverage sys sel <= Ss.coverage sys bigger)

let prop_coverage_submodular =
  QCheck.Test.make ~name:"marginal gains are submodular" ~count:60 sys_arb
    (fun (sys, _, m) ->
      if m < 3 then true
      else begin
        (* f(A + x) - f(A) >= f(B + x) - f(B) for A ⊆ B *)
        let a = [ 0 ] and b = [ 0; 1 ] and x = 2 in
        let ga = Ss.coverage sys (x :: a) - Ss.coverage sys a in
        let gb = Ss.coverage sys (x :: b) - Ss.coverage sys b in
        ga >= gb
      end)

let prop_greedy_within_budget_and_valid =
  QCheck.Test.make ~name:"greedy picks ≤ k valid distinct sets" ~count:60 sys_arb
    (fun (sys, _, m) ->
      let k = max 1 (m / 4) in
      let r = Mkc_coverage.Greedy.run sys ~k in
      List.length r.chosen <= k
      && List.for_all (fun i -> i >= 0 && i < m) r.chosen
      && List.sort_uniq compare r.chosen = List.sort compare r.chosen
      && Ss.coverage sys r.chosen = r.coverage)

let prop_greedy_monotone_in_k =
  QCheck.Test.make ~name:"greedy coverage monotone in k" ~count:40 sys_arb
    (fun (sys, _, m) ->
      let cov k = (Mkc_coverage.Greedy.run sys ~k).coverage in
      let k1 = max 1 (m / 8) and k2 = max 2 (m / 3) in
      cov k1 <= cov k2)

let prop_exact_at_least_greedy =
  QCheck.Test.make ~name:"exact solver ≥ greedy" ~count:25 sys_arb
    (fun (sys, _, m) ->
      let k = min 3 m in
      (Mkc_baselines.Exact.run sys ~k).coverage >= (Mkc_coverage.Greedy.run sys ~k).coverage)

let prop_contributions_sum_to_coverage =
  QCheck.Test.make ~name:"contribution profile sums to coverage" ~count:60 sys_arb
    (fun (sys, _, m) ->
      let sel = List.init (min 5 m) Fun.id in
      let prof = Mkc_stream.Stats.contribution_profile sys sel in
      Array.fold_left ( + ) 0 prof = Ss.coverage sys sel)

let prop_universe_reduction_image_bounds =
  QCheck.Test.make ~name:"universe reduction image bounds" ~count:100
    QCheck.(pair (int_range 1 64) (int_range 0 1_000_000))
    (fun (z, seed) ->
      let r =
        Mkc_core.Universe_reduction.create ~z ~seed:(Mkc_hashing.Splitmix.create seed)
      in
      let s = Array.init 100 (fun i -> i * 31) in
      let img = Mkc_core.Universe_reduction.image_size r s in
      img >= 1 && img <= min 100 z)

let prop_edge_stream_is_permutation =
  QCheck.Test.make ~name:"edge_stream is a permutation of edges" ~count:40 sys_arb
    (fun (sys, _, _) ->
      let sort a =
        let a = Array.copy a in
        Array.sort Mkc_stream.Edge.compare a;
        a
      in
      sort (Ss.edge_stream ~seed:7 sys) = sort (Ss.edges sys))

let prop_oracle_bounded_by_universe =
  QCheck.Test.make ~name:"oracle estimate ≤ |U|" ~count:12 sys_arb
    (fun (sys, n, m) ->
      let k = max 1 (m / 4) in
      let p = P.make ~m ~n ~k ~alpha:4.0 ~seed:11 () in
      let o = Mkc_core.Oracle.create p ~seed:(Mkc_hashing.Splitmix.create 12) in
      Array.iter (Mkc_core.Oracle.feed o) (Ss.edge_stream ~seed:13 sys);
      match Mkc_core.Oracle.finalize o with
      | None -> true
      | Some out -> out.Mkc_core.Solution.estimate <= float_of_int n +. 1e-6)

let prop_report_sets_valid =
  QCheck.Test.make ~name:"report returns ≤ k valid set ids" ~count:8 sys_arb
    (fun (sys, n, m) ->
      let k = max 1 (m / 4) in
      let p = P.make ~m ~n ~k ~alpha:4.0 ~seed:21 () in
      let rep = Mkc_core.Report.create p in
      Array.iter (Mkc_core.Report.feed rep) (Ss.edge_stream ~seed:22 sys);
      let r = Mkc_core.Report.finalize rep in
      List.length r.Mkc_core.Report.sets <= k
      && List.for_all (fun i -> i >= 0 && i < m) r.Mkc_core.Report.sets)

let prop_sieve_result_consistent =
  QCheck.Test.make ~name:"sieve reports its true coverage" ~count:30 sys_arb
    (fun (sys, n, m) ->
      let k = max 1 (m / 4) in
      let sv = Mkc_baselines.Sieve.create ~n ~k () in
      for i = 0 to m - 1 do
        Mkc_baselines.Sieve.feed sv i (Ss.set sys i)
      done;
      let r = Mkc_baselines.Sieve.result sv in
      Ss.coverage sys r.chosen = r.coverage && List.length r.chosen <= k)

let prop_swap_greedy_consistent =
  QCheck.Test.make ~name:"swap-greedy reports its true coverage" ~count:30 sys_arb
    (fun (sys, n, m) ->
      let k = max 1 (m / 4) in
      let sg = Mkc_baselines.Swap_greedy.create ~n ~k in
      for i = 0 to m - 1 do
        Mkc_baselines.Swap_greedy.feed sg i (Ss.set sys i)
      done;
      let r = Mkc_baselines.Swap_greedy.result sg in
      Ss.coverage sys r.chosen = r.coverage && List.length r.chosen <= k)

let prop_l0_sketches_duplicate_insensitive =
  QCheck.Test.make ~name:"L0 sketches ignore duplicates" ~count:40
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 60) (int_range 0 5000)) (int_range 0 100000))
    (fun (xs, seed) ->
      let sk1 = Mkc_sketch.L0_bjkst.create ~seed:(Mkc_hashing.Splitmix.create seed) () in
      let sk2 = Mkc_sketch.L0_bjkst.create ~seed:(Mkc_hashing.Splitmix.create seed) () in
      List.iter (Mkc_sketch.L0_bjkst.add sk1) xs;
      (* feed the same multiset three times into sk2 *)
      for _ = 1 to 3 do
        List.iter (Mkc_sketch.L0_bjkst.add sk2) xs
      done;
      Mkc_sketch.L0_bjkst.estimate sk1 = Mkc_sketch.L0_bjkst.estimate sk2)

let prop_nested_rates_monotone =
  QCheck.Test.make ~name:"nested sampler rates monotone" ~count:60
    QCheck.(pair (int_range 2 8) (int_range 0 100000))
    (fun (levels, seed) ->
      let s =
        Mkc_sketch.Sampler.Nested.create ~base_rate:(1.0 /. 128.0) ~levels ~indep:4
          ~seed:(Mkc_hashing.Splitmix.create seed)
      in
      let ok = ref true in
      for l = 0 to levels - 2 do
        if Mkc_sketch.Sampler.Nested.rate s ~level:l > Mkc_sketch.Sampler.Nested.rate s ~level:(l + 1)
        then ok := false
      done;
      !ok)

let prop_histogram_counts_all_elements =
  QCheck.Test.make ~name:"frequency histogram counts every element" ~count:60 sys_arb
    (fun (sys, n, _) ->
      let total =
        Mkc_stream.Stats.frequency_histogram sys |> List.fold_left (fun a (_, c) -> a + c) 0
      in
      total = n)

let prop_field_pow_homomorphism =
  QCheck.Test.make ~name:"field pow is a homomorphism" ~count:200
    QCheck.(triple (int_range 2 1_000_000) (int_range 0 50) (int_range 0 50))
    (fun (b, x, y) ->
      let open Mkc_hashing.Prime_field in
      pow b (x + y) = mul (pow b x) (pow b y))

let prop_field_fermat =
  QCheck.Test.make ~name:"Fermat little theorem" ~count:40
    QCheck.(int_range 1 1_000_000_000)
    (fun a ->
      let open Mkc_hashing.Prime_field in
      pow (normalize a) (p - 1) = 1)

let prop_planted_really_optimal =
  QCheck.Test.make ~name:"planted instances are exactly optimal" ~count:15
    QCheck.(pair (int_range 0 100000) (int_range 1 3))
    (fun (seed, np) ->
      let pl =
        Mkc_workload.Planted.planted ~n:120 ~m:10 ~num_planted:np ~coverage_fraction:0.5
          ~noise_size:4 ~seed ()
      in
      (Mkc_baselines.Exact.run pl.system ~k:np).coverage = pl.planted_coverage)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_coverage_monotone;
      prop_coverage_submodular;
      prop_greedy_within_budget_and_valid;
      prop_greedy_monotone_in_k;
      prop_exact_at_least_greedy;
      prop_contributions_sum_to_coverage;
      prop_universe_reduction_image_bounds;
      prop_edge_stream_is_permutation;
      prop_oracle_bounded_by_universe;
      prop_report_sets_valid;
      prop_sieve_result_consistent;
      prop_swap_greedy_consistent;
      prop_l0_sketches_duplicate_insensitive;
      prop_nested_rates_monotone;
      prop_histogram_counts_all_elements;
      prop_field_pow_homomorphism;
      prop_field_fermat;
      prop_planted_really_optimal;
    ]
