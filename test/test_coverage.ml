(* Tests for the offline baselines: greedy, exact, sieve. *)

module Ss = Mkc_stream.Set_system
module Greedy = Mkc_coverage.Greedy
module Exact = Mkc_baselines.Exact
module Sieve = Mkc_baselines.Sieve
module Eval = Mkc_coverage.Eval
module Mv = Mkc_baselines.Mcgregor_vu

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let tiny () =
  Ss.create ~n:8 ~m:5
    ~sets:[| [| 0; 1; 2; 3 |]; [| 3; 4 |]; [| 4; 5; 6 |]; [| 6; 7 |]; [| 0; 7 |] |]

(* naive reference greedy for cross-checking the lazy implementation *)
let naive_greedy sys ~k =
  let n = Ss.n sys and m = Ss.m sys in
  let covered = Array.make n false in
  let chosen = ref [] in
  for _ = 1 to k do
    let best = ref (-1) and best_gain = ref 0 in
    for i = 0 to m - 1 do
      if not (List.mem i !chosen) then begin
        let gain = Array.fold_left (fun acc e -> if covered.(e) then acc else acc + 1) 0 (Ss.set sys i) in
        if gain > !best_gain then begin
          best := i;
          best_gain := gain
        end
      end
    done;
    if !best >= 0 then begin
      Array.iter (fun e -> covered.(e) <- true) (Ss.set sys !best);
      chosen := !best :: !chosen
    end
  done;
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 covered

let test_greedy_tiny () =
  let r = Greedy.run (tiny ()) ~k:2 in
  (* greedy picks set 0 (4 elems) then set 2 (3 new): coverage 7 *)
  checki "coverage" 7 r.coverage;
  checki "picks" 2 (List.length r.chosen)

let test_greedy_k_exceeds_useful_sets () =
  let s = Ss.create ~n:4 ~m:3 ~sets:[| [| 0; 1 |]; [| 0; 1 |]; [| 2 |] |] in
  let r = Greedy.run s ~k:3 in
  checki "covers all coverable" 3 r.coverage;
  (* a set with zero marginal gain is never picked *)
  checkb "no useless picks" true (List.length r.chosen <= 2)

let test_greedy_is_a_valid_greedy_execution () =
  (* Replay the lazy-greedy picks and verify the greedy invariant: each
     pick has maximum marginal gain at its turn (ties allowed).  This is
     robust to tie-break order, unlike comparing coverages directly. *)
  for seed = 1 to 10 do
    let s = Mkc_workload.Random_inst.uniform ~n:120 ~m:40 ~set_size:12 ~seed in
    let r = Greedy.run s ~k:6 in
    let covered = Array.make 120 false in
    let gain i =
      Array.fold_left (fun acc e -> if covered.(e) then acc else acc + 1) 0 (Ss.set s i)
    in
    List.iter
      (fun pick ->
        let g = gain pick in
        for i = 0 to 39 do
          checkb "greedy invariant: no set beats the pick" true (gain i <= g)
        done;
        Array.iter (fun e -> covered.(e) <- true) (Ss.set s pick))
      r.chosen;
    (* and the coverage is at least naive greedy's (same algorithm,
       arbitrary tie-breaks differ by small amounts at most here) *)
    checkb "coverage sane vs naive" true
      (float_of_int r.coverage >= 0.9 *. float_of_int (naive_greedy s ~k:6))
  done

let test_greedy_approximation_guarantee () =
  (* greedy >= (1 - 1/e) OPT, verified against the exact solver *)
  for seed = 1 to 8 do
    let s = Mkc_workload.Random_inst.uniform ~n:60 ~m:18 ~set_size:8 ~seed:(100 + seed) in
    let g = (Greedy.run s ~k:4).coverage in
    let opt = (Exact.run s ~k:4).coverage in
    checkb "1-1/e bound" true (float_of_int g >= 0.63 *. float_of_int opt)
  done

let test_greedy_on_disjoint_sets_is_optimal () =
  let s =
    Ss.create ~n:40 ~m:8 ~sets:(Array.init 8 (fun i -> Array.init 5 (fun j -> (5 * i) + j)))
  in
  checki "picks k disjoint sets" 20 (Greedy.run s ~k:4).coverage

let test_greedy_empty_instance () =
  let s = Ss.create ~n:5 ~m:2 ~sets:[| [||]; [||] |] in
  let r = Greedy.run s ~k:2 in
  checki "zero coverage" 0 r.coverage;
  checkb "nothing chosen" true (r.chosen = [])

let test_greedy_on_subsets () =
  let r =
    Greedy.run_on_subsets ~n:100
      ~sets:[ (17, [| 1; 2; 3 |]); (42, [| 3; 4 |]); (7, [| 9 |]) ]
      ~k:2
  in
  (* best 2-cover: {1,2,3} plus either {3,4} or {9} — 4 elements *)
  checki "coverage" 4 r.coverage;
  checkb "returns original ids" true (List.for_all (fun id -> List.mem id [ 17; 42; 7 ]) r.chosen)

(* The boxed lazy greedy the flat one replaced, kept as its model: a
   heap of [(gain, id)] pairs and a Hashtbl covered set.  The flat
   greedy must pick the same candidates in the same order and report
   the same coverage, duplicates within a set counted twice. *)
module Model = struct
  type heap = { mutable data : (int * int) array; mutable size : int }

  let better (g1, _) (g2, _) = g1 > g2

  let push t x =
    if t.size = Array.length t.data then begin
      let bigger = Array.make (2 * t.size) (0, 0) in
      Array.blit t.data 0 bigger 0 t.size;
      t.data <- bigger
    end;
    t.data.(t.size) <- x;
    t.size <- t.size + 1;
    let i = ref (t.size - 1) in
    while !i > 0 && better t.data.(!i) t.data.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = t.data.(p) in
      t.data.(p) <- t.data.(!i);
      t.data.(!i) <- tmp;
      i := p
    done

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.data.(0) in
      t.size <- t.size - 1;
      t.data.(0) <- t.data.(t.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < t.size && better t.data.(l) t.data.(!best) then best := l;
        if r < t.size && better t.data.(r) t.data.(!best) then best := r;
        if !best = !i then continue := false
        else begin
          let tmp = t.data.(!best) in
          t.data.(!best) <- t.data.(!i);
          t.data.(!i) <- tmp;
          i := !best
        end
      done;
      Some top
    end

  let lazy_greedy ~num_candidates ~members ~k =
    let covered = Hashtbl.create 256 in
    let gain id =
      let g = ref 0 in
      Array.iter (fun e -> if not (Hashtbl.mem covered e) then incr g) (members id);
      !g
    in
    let heap = { data = Array.make (max 1 num_candidates) (0, 0); size = 0 } in
    for id = 0 to num_candidates - 1 do
      push heap (Array.length (members id), id)
    done;
    let chosen = ref [] and total = ref 0 and picked = ref 0 in
    let rec pick () =
      if !picked >= k then ()
      else
        match pop heap with
        | None -> ()
        | Some (stale_gain, id) ->
            let fresh = gain id in
            if fresh = stale_gain then begin
              if fresh > 0 then begin
                Array.iter (fun e -> Hashtbl.replace covered e ()) (members id);
                chosen := id :: !chosen;
                total := !total + fresh;
                incr picked
              end;
              if fresh > 0 then pick ()
            end
            else begin
              push heap (fresh, id);
              pick ()
            end
    in
    pick ();
    (List.rev !chosen, !total)
end

(* Random systems in the shapes that stress tie-breaking: members drawn
   from a small universe (tied gains), repeated within a set, empty
   sets, and k anywhere in [0, m + 1]. *)
let greedy_case_gen =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* m = int_range 0 30 in
    let* rows =
      list_repeat m
        (let* len = frequency [ (1, return 0); (6, int_range 1 12) ] in
         array_repeat len (int_range 0 (n - 1)))
    in
    let* k = int_range 0 (m + 1) in
    return (n, Array.of_list rows, k))

let prop_flat_greedy_matches_model =
  QCheck.Test.make ~name:"flat greedy equals the boxed model" ~count:500
    (QCheck.make
       ~print:(fun (n, rows, k) ->
         Printf.sprintf "n=%d k=%d sets=[%s]" n k
           (String.concat "; "
              (Array.to_list
                 (Array.map
                    (fun r -> String.concat "," (Array.to_list (Array.map string_of_int r)))
                    rows))))
       greedy_case_gen)
    (fun (n, rows, k) ->
      let want_ids, want_cov =
        Model.lazy_greedy ~num_candidates:(Array.length rows) ~members:(Array.get rows) ~k
      in
      (* ids far from the candidate index: the result must map back *)
      let ids = Array.mapi (fun i _ -> (7 * i) + 3) rows in
      let r =
        Greedy.run_on_subsets ~n ~sets:(Array.to_list (Array.mapi (fun i s -> (ids.(i), s)) rows)) ~k
      in
      r.chosen = List.map (fun i -> ids.(i)) want_ids && r.coverage = want_cov)

let test_exact_tiny () =
  let r = Exact.run (tiny ()) ~k:2 in
  checki "optimal 2-cover" 7 r.coverage;
  checkb "flagged optimal" true r.optimal

let test_exact_matches_bruteforce () =
  (* compare against explicit enumeration on very small instances *)
  for seed = 1 to 6 do
    let s = Mkc_workload.Random_inst.uniform ~n:25 ~m:10 ~set_size:6 ~seed:(200 + seed) in
    let k = 3 in
    let best = ref 0 in
    for a = 0 to 9 do
      for b = a to 9 do
        for c = b to 9 do
          best := max !best (Ss.coverage s [ a; b; c ])
        done
      done
    done;
    ignore k;
    checki "branch&bound = brute force" !best (Exact.run s ~k:3).coverage
  done

let test_exact_respects_budget () =
  let r = Exact.run (tiny ()) ~k:1 in
  checki "best single set" 4 r.coverage;
  checkb "at most k sets" true (List.length r.chosen <= 1)

let test_exact_node_budget () =
  let s = Mkc_workload.Random_inst.uniform ~n:200 ~m:40 ~set_size:20 ~seed:300 in
  let r = Exact.run ~max_nodes:50 s ~k:5 in
  (* with a starved node budget the result is still a valid lower bound *)
  checkb "not flagged optimal" true (not r.optimal);
  checkb "valid selection" true (Ss.coverage s r.chosen = r.coverage)

let test_sieve_reasonable_on_set_arrival () =
  for seed = 1 to 5 do
    let pl = Mkc_workload.Planted.few_large ~n:512 ~m:64 ~k:4 ~seed:(400 + seed) in
    let sys = pl.system in
    let sieve = Sieve.create ~n:512 ~k:4 () in
    for i = 0 to Ss.m sys - 1 do
      Sieve.feed sieve i (Ss.set sys i)
    done;
    let r = Sieve.result sieve in
    (* sieve guarantees ~ 1/2 OPT; planted OPT = 256 *)
    checkb "sieve >= OPT/3" true (r.coverage * 3 >= pl.planted_coverage);
    checkb "at most k sets" true (List.length r.chosen <= 4);
    checki "reported coverage is real" (Ss.coverage sys r.chosen) r.coverage
  done

let test_sieve_space_is_linear_in_n () =
  let sieve = Sieve.create ~n:10_000 ~k:8 () in
  Sieve.feed sieve 0 (Array.init 100 Fun.id);
  (* one bitmap per live guess: words >= n/8 per guess *)
  checkb "Õ(n) footprint visible" true (Sieve.words sieve > 10_000 / 8)

let test_mcgregor_vu_constant_factor () =
  (* the Õ(m/ε²) edge-arrival baseline should land within a small
     constant of the planted optimum *)
  for seed = 1 to 3 do
    let pl = Mkc_workload.Planted.few_large ~n:2048 ~m:256 ~k:8 ~seed:(600 + seed) in
    let sys = pl.system in
    let mv = Mv.create ~m:256 ~n:2048 ~k:8 ~seed:(700 + seed) () in
    Array.iter (Mv.feed mv) (Ss.edge_stream ~seed:(800 + seed) sys);
    let r = Mv.finalize mv in
    let true_cov = Ss.coverage sys r.Mv.chosen in
    checkb "within constant of OPT" true (4 * true_cov >= pl.planted_coverage);
    checkb "at most k sets" true (List.length r.Mv.chosen <= 8);
    checkb "scaled estimate sane" true
      (r.Mv.coverage <= 2.5 *. float_of_int pl.planted_coverage)
  done

let test_mcgregor_vu_storage_bounded () =
  let pl = Mkc_workload.Planted.many_small ~n:4096 ~m:512 ~k:64 ~seed:31 in
  let mv = Mv.create ~m:512 ~n:4096 ~k:64 ~epsilon:0.5 ~seed:32 () in
  Array.iter (Mv.feed mv) (Ss.edge_stream ~seed:33 pl.system);
  (* per-guess cap ≈ 8/ε²·m·log(mn)/8 words; a dozen live guesses max *)
  checkb "words bounded" true (Mv.words mv < 20 * 32 * 512 * 21)

let test_mcgregor_vu_validation () =
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Mcgregor_vu.create: epsilon must be in (0, 1]") (fun () ->
      ignore (Mv.create ~m:10 ~n:10 ~k:2 ~epsilon:1.5 ()))

let test_eval_ratio () =
  checkb "ratio" true (Eval.ratio ~opt:100 ~achieved:50 = 2.0);
  checkb "infinite on zero" true (Eval.ratio ~opt:10 ~achieved:0 = infinity)

let test_eval_within_factor () =
  checkb "within" true (Eval.within_factor ~opt:100 ~achieved:30.0 ~factor:4.0);
  checkb "too small" false (Eval.within_factor ~opt:100 ~achieved:20.0 ~factor:4.0);
  checkb "overestimate rejected" false (Eval.within_factor ~opt:100 ~achieved:150.0 ~factor:4.0)

let suite =
  [
    Alcotest.test_case "greedy tiny" `Quick test_greedy_tiny;
    Alcotest.test_case "greedy skips useless sets" `Quick test_greedy_k_exceeds_useful_sets;
    Alcotest.test_case "greedy invariant holds" `Quick test_greedy_is_a_valid_greedy_execution;
    Alcotest.test_case "greedy (1-1/e) guarantee" `Quick test_greedy_approximation_guarantee;
    Alcotest.test_case "greedy optimal on disjoint" `Quick test_greedy_on_disjoint_sets_is_optimal;
    Alcotest.test_case "greedy empty instance" `Quick test_greedy_empty_instance;
    Alcotest.test_case "greedy on subsets" `Quick test_greedy_on_subsets;
    QCheck_alcotest.to_alcotest prop_flat_greedy_matches_model;
    Alcotest.test_case "exact tiny" `Quick test_exact_tiny;
    Alcotest.test_case "exact = brute force" `Quick test_exact_matches_bruteforce;
    Alcotest.test_case "exact respects budget" `Quick test_exact_respects_budget;
    Alcotest.test_case "exact node budget" `Quick test_exact_node_budget;
    Alcotest.test_case "sieve on set arrival" `Quick test_sieve_reasonable_on_set_arrival;
    Alcotest.test_case "sieve Õ(n) space" `Quick test_sieve_space_is_linear_in_n;
    Alcotest.test_case "mcgregor-vu constant factor" `Slow test_mcgregor_vu_constant_factor;
    Alcotest.test_case "mcgregor-vu storage bounded" `Quick test_mcgregor_vu_storage_bounded;
    Alcotest.test_case "mcgregor-vu validation" `Quick test_mcgregor_vu_validation;
    Alcotest.test_case "eval ratio" `Quick test_eval_ratio;
    Alcotest.test_case "eval within_factor" `Quick test_eval_within_factor;
  ]
