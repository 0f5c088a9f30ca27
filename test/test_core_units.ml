(* Unit tests for the core algorithm building blocks: Params, universe
   reduction (Lemma 3.5), and the three oracle subroutines on planted
   regimes. *)

module Sm = Mkc_hashing.Splitmix
module Ss = Mkc_stream.Set_system
module P = Mkc_core.Params
module Ur = Mkc_core.Universe_reduction
module Lc = Mkc_core.Large_common
module Ls = Mkc_core.Large_set
module Sms = Mkc_core.Small_set
module Oracle = Mkc_core.Oracle
module Sol = Mkc_core.Solution

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let feed_all feed state sys ~seed =
  Array.iter (feed state) (Ss.edge_stream ~seed sys)

(* ---------- Params ---------- *)

let test_params_practical_defaults () =
  let p = P.make ~m:1000 ~n:5000 ~k:20 ~alpha:8.0 () in
  checki "w = min(k, alpha)" 8 p.w;
  checkb "eta = 4" true (p.eta = 4.0);
  checkb "s keeps sα = w/2" true (Float.abs (P.s_alpha p -. 4.0) < 1e-9);
  checkb "sigma practical" true (p.sigma = 0.5);
  checki "universe starts at n" 5000 p.u

let test_params_paper_profile () =
  let p = P.make ~m:1000 ~n:5000 ~k:20 ~alpha:8.0 ~profile:P.Paper () in
  checkb "paper s is tiny" true (p.s < 1e-3);
  checkb "paper sigma is tiny" true (p.sigma < 1e-2);
  checkb "paper t is huge" true (p.t_elem > 1e3);
  checkb "paper f is polylog" true (p.f > 7.0);
  checkb "indep = Θ(log mn)" true (p.indep >= 20)

let test_params_validation () =
  Alcotest.check_raises "k > m rejected" (Invalid_argument "Params.make: k must be in [1, m]")
    (fun () -> ignore (P.make ~m:5 ~n:10 ~k:6 ~alpha:2.0 ()));
  Alcotest.check_raises "alpha < 1 rejected" (Invalid_argument "Params.make: alpha must be >= 1")
    (fun () -> ignore (P.make ~m:5 ~n:10 ~k:2 ~alpha:0.5 ()));
  Alcotest.check_raises "n > 2^56 rejected" (Invalid_argument "Params.make: n must be <= 2^56")
    (fun () -> ignore (P.make ~m:5 ~n:((1 lsl 56) + 1) ~k:2 ~alpha:2.0 ()))

let test_params_with_universe () =
  let p = P.make ~m:100 ~n:1000 ~k:5 ~alpha:4.0 () in
  let p' = P.with_universe p 64 in
  checki "u replaced" 64 p'.u;
  checki "n kept" 1000 p'.n

(* ---------- Universe reduction (Lemma 3.5) ---------- *)

let test_reduction_range () =
  let r = Ur.create ~z:37 ~seed:(Sm.create 1) in
  for e = 0 to 1000 do
    let v = Ur.apply r e in
    checkb "in [0,z)" true (v >= 0 && v < 37)
  done;
  checki "z accessor" 37 (Ur.z r)

let test_reduction_deterministic () =
  let r = Ur.create ~z:100 ~seed:(Sm.create 2) in
  for e = 0 to 50 do
    checki "stable" (Ur.apply r e) (Ur.apply r e)
  done

let test_reduction_lemma_3_5 () =
  (* |S| >= z >= 32  =>  |h(S)| >= z/4 w.p. >= 3/4.  Empirically the
     success rate should be well above 3/4. *)
  let z = 64 in
  let s = Array.init 200 (fun i -> i * 3) in
  let successes = ref 0 in
  let trials = 200 in
  for t = 0 to trials - 1 do
    let r = Ur.create ~z ~seed:(Sm.create (1000 + t)) in
    if Ur.image_size r s >= z / 4 then incr successes
  done;
  checkb "Lemma 3.5 success rate >= 3/4" true (!successes >= 3 * trials / 4)

let test_reduction_never_increases_coverage () =
  let r = Ur.create ~z:16 ~seed:(Sm.create 3) in
  let s = Array.init 50 Fun.id in
  checkb "image smaller than set" true (Ur.image_size r s <= 50);
  checkb "image at most z" true (Ur.image_size r s <= 16)

let test_reduction_edge_mapping () =
  let r = Ur.create ~z:8 ~seed:(Sm.create 4) in
  let e = Mkc_stream.Edge.make ~set:5 ~elt:123 in
  let e' = Ur.apply_edge r e in
  checki "set untouched" 5 e'.set;
  checki "element hashed" (Ur.apply r 123) e'.elt

(* ---------- Solution ---------- *)

let test_solution_best () =
  let mk est = Some { Sol.estimate = est; witness = (fun () -> []); provenance = Sol.Trivial } in
  (match Sol.best [ mk 3.0; None; mk 7.0; mk 5.0 ] with
  | Some o -> checkb "max picked" true (o.Sol.estimate = 7.0)
  | None -> Alcotest.fail "expected an outcome");
  checkb "all none" true (Sol.best [ None; None ] = None)

(* ---------- LargeCommon (Figure 3) ---------- *)

let test_large_common_triggers_on_common_heavy () =
  let pl = Mkc_workload.Planted.common_heavy ~n:1024 ~m:512 ~k:16 ~beta:4 ~seed:5 in
  let p = P.make ~m:512 ~n:1024 ~k:16 ~alpha:8.0 ~seed:6 () in
  let lc = Lc.create p ~seed:(Sm.create 7) in
  feed_all Lc.feed lc pl.system ~seed:8;
  match Lc.finalize lc with
  | None -> Alcotest.fail "LargeCommon should trigger on a common-heavy instance"
  | Some o ->
      checkb "positive estimate" true (o.Sol.estimate > 0.0);
      (* never (grossly) overestimate OPT: estimate <= n *)
      checkb "bounded by universe" true (o.Sol.estimate <= 1024.0);
      (match o.Sol.provenance with
      | Sol.Large_common _ -> ()
      | _ -> Alcotest.fail "wrong provenance");
      let w = o.Sol.witness () in
      checkb "witness nonempty, <= k sets" true (List.length w >= 1 && List.length w <= 16)

let test_large_common_infeasible_on_sparse () =
  (* no common elements at all: every element in exactly one set *)
  let sys =
    Ss.create ~n:1024 ~m:128
      ~sets:(Array.init 128 (fun i -> Array.init 8 (fun j -> (8 * i) + j)))
  in
  let p = P.make ~m:128 ~n:1024 ~k:4 ~alpha:8.0 ~seed:9 () in
  let lc = Lc.create p ~seed:(Sm.create 10) in
  feed_all Lc.feed lc sys ~seed:11;
  (* with every frequency = 1, no β level should amass σβ|U|/α coverage
     from only βk sampled sets out of m=128... β=α=8: 8·4=32 sets of 8 elems
     = 256 elements ≥ σ·8·1024/8 = 512? No → infeasible expected. *)
  checkb "infeasible or small" true
    (match Lc.finalize lc with None -> true | Some o -> o.Sol.estimate <= 300.0)

let test_large_common_estimates_per_level () =
  let pl = Mkc_workload.Planted.common_heavy ~n:512 ~m:256 ~k:8 ~beta:2 ~seed:12 in
  let p = P.make ~m:256 ~n:512 ~k:8 ~alpha:4.0 ~seed:13 () in
  let lc = Lc.create p ~seed:(Sm.create 14) in
  feed_all Lc.feed lc pl.system ~seed:15;
  let ests = Lc.coverage_estimates lc in
  checkb "one estimate per level" true (List.length ests >= 2);
  (* multi-layered nesting: coverage grows with β *)
  let sorted_by_beta = List.sort compare ests in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1.0 && monotone rest
    | _ -> true
  in
  checkb "coverage non-decreasing in β" true (monotone sorted_by_beta)

(* ---------- Superset partition (Claims 4.9 / 4.10) ---------- *)

module Sp = Mkc_core.Superset_partition

let test_partition_members_consistent () =
  let sp = Sp.create ~m:200 ~q:16 ~indep:6 ~seed:(Sm.create 40) in
  for i = 0 to 15 do
    List.iter
      (fun s -> checki "member maps back" i (Sp.superset_of sp s))
      (Sp.members sp i)
  done

let test_partition_covers_all_sets () =
  let sp = Sp.create ~m:300 ~q:10 ~indep:6 ~seed:(Sm.create 41) in
  let total = List.init 10 (fun i -> List.length (Sp.members sp i)) |> List.fold_left ( + ) 0 in
  checki "every set in exactly one superset" 300 total

let test_partition_limit () =
  let sp = Sp.create ~m:1000 ~q:2 ~indep:4 ~seed:(Sm.create 42) in
  checkb "limit respected" true (List.length (Sp.members ~limit:7 sp 0) <= 7)

let test_partition_sizes_claim_4_9 () =
  (* q = m/w supersets: no superset should be grossly above w·polylog *)
  let m = 2048 and w = 8 in
  let q = m / w in
  let sp = Sp.create ~m ~q ~indep:8 ~seed:(Sm.create 43) in
  let max_size = ref 0 in
  for i = 0 to q - 1 do
    max_size := max !max_size (List.length (Sp.members sp i))
  done;
  checkb "max superset size = O(w log)" true (!max_size <= 4 * w)

let test_partition_duplication_claim_4_10 () =
  (* rare elements land at most f = Θ̃(1) times in one superset *)
  let sys = Mkc_workload.Random_inst.uniform ~n:2048 ~m:1024 ~set_size:8 ~seed:44 in
  let sp = Sp.create ~m:1024 ~q:128 ~indep:8 ~seed:(Sm.create 45) in
  let worst = ref 0 in
  (* count per (superset, element) multiplicity *)
  let tbl = Hashtbl.create 4096 in
  Array.iter
    (fun (e : Mkc_stream.Edge.t) ->
      let key = (Sp.superset_of sp e.set, e.elt) in
      let c = 1 + Option.value ~default:0 (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key c;
      worst := max !worst c)
    (Ss.edges sys);
  (* with max element frequency ~8 and 128 supersets, duplication stays tiny *)
  checkb "within-superset duplication bounded" true (!worst <= 4)

(* ---------- LargeSet (Figures 4/6/7) ---------- *)

let test_large_set_finds_giant_set () =
  (* a single giant set carries the optimum: the classic case II *)
  let pl =
    Mkc_workload.Planted.planted ~n:2048 ~m:256 ~num_planted:1 ~coverage_fraction:0.5
      ~noise_size:8 ~seed:16 ()
  in
  let p = P.make ~m:256 ~n:2048 ~k:4 ~alpha:4.0 ~seed:17 () in
  let ls = Ls.create p ~w:4 ~seed:(Sm.create 18) in
  feed_all Ls.feed ls pl.system ~seed:19;
  match Ls.finalize ls with
  | None -> Alcotest.fail "LargeSet should find the giant set"
  | Some o ->
      let giant = List.hd pl.planted_sets in
      checkb "estimate within [OPT/32, 2·OPT]" true
        (o.Sol.estimate >= 1024.0 /. 32.0 && o.Sol.estimate <= 2.0 *. 1024.0);
      let w = o.Sol.witness () in
      checkb "witness includes a superset" true (List.length w >= 1);
      (* the winning superset should contain the giant set most of the time;
         verify its actual coverage is large *)
      let cov = Ss.coverage pl.system w in
      checkb "witness coverage >= OPT/16 (superset caught the giant)" true
        (cov >= 1024 / 16 || not (List.mem giant w))

let test_large_set_space_shrinks_with_alpha () =
  let mk alpha =
    let p = P.make ~m:4096 ~n:8192 ~k:64 ~alpha ~seed:20 () in
    let w = max 1 (min p.P.k (int_of_float alpha)) in
    Ls.words (Ls.create p ~w ~seed:(Sm.create 21))
  in
  let w2 = mk 2.0 and w8 = mk 8.0 and w32 = mk 32.0 in
  checkb "words decrease with alpha (m/α² scaling)" true (w2 > w8 && w8 > w32)

let test_large_set_thresholds_positive () =
  let p = P.make ~m:512 ~n:1024 ~k:8 ~alpha:4.0 () in
  let ls = Ls.create p ~w:4 ~seed:(Sm.create 22) in
  let t1, t2 = Ls.thresholds ls in
  checkb "thr1 < thr2" true (t1 < t2 && t1 > 0.0)

let test_large_set_flat_instance_case2 () =
  (* All supersets equally large: the Ω̃(1)-contributing class spans the
     whole partition (size q > r2), which is Figure 6's oversized-class
     case, handled by the L0 fallback over sampled supersets.  The
     subroutine must still return a sound, in-window estimate. *)
  let m = 512 and n = 4096 in
  let sys =
    Ss.create ~n ~m ~sets:(Array.init m (fun i -> Array.init 8 (fun j -> ((8 * i) + j) mod n)))
  in
  let p = P.make ~m ~n ~k:32 ~alpha:4.0 ~seed:60 () in
  let ls = Ls.create p ~w:4 ~seed:(Sm.create 61) in
  feed_all Ls.feed ls sys ~seed:62;
  match Ls.finalize ls with
  | None -> () (* declining is sound on a flat instance *)
  | Some o ->
      (* any superset covers ≤ w·8 = 32 elements; a k-cover ≤ 32·32 *)
      checkb "estimate ≤ |U|" true (o.Sol.estimate <= float_of_int n);
      checkb "estimate sound for flat supersets" true (o.Sol.estimate <= 2.0 *. 32.0 *. 32.0)

(* ---------- SmallSet (Figure 5) ---------- *)

let test_small_set_on_many_small () =
  let pl = Mkc_workload.Planted.many_small ~n:2048 ~m:512 ~k:128 ~seed:23 in
  let p = P.make ~m:512 ~n:2048 ~k:128 ~alpha:8.0 ~seed:24 () in
  let ss = Sms.create p ~seed:(Sm.create 25) in
  feed_all Sms.feed ss pl.system ~seed:26;
  match Sms.finalize ss with
  | None -> Alcotest.fail "SmallSet should produce an estimate in case III"
  | Some o ->
      checkb "estimate within [OPT/32, 2·OPT]" true
        (o.Sol.estimate >= float_of_int pl.planted_coverage /. 32.0
        && o.Sol.estimate <= 2.0 *. float_of_int pl.planted_coverage);
      let w = o.Sol.witness () in
      (* estimate is tied to budget κ; the witness may extend to k *)
      checkb "witness within k" true (List.length w <= 128);
      checkb "witness is a real partial cover" true (Ss.coverage pl.system w > 0)

let test_small_set_storage_capped () =
  let pl = Mkc_workload.Planted.many_small ~n:1024 ~m:1024 ~k:64 ~seed:27 in
  let p = P.make ~m:1024 ~n:1024 ~k:64 ~alpha:4.0 ~seed:28 () in
  let ss = Sms.create p ~seed:(Sm.create 29) in
  feed_all Sms.feed ss pl.system ~seed:30;
  (* Lemma 4.21: stored pairs are Õ(m/α²) per live instance; the module
     hard-caps each instance at [Sms.cap]. *)
  let guesses = 1 + Mkc_hashing.Hash_family.ceil_log2 4 in
  let instances = p.P.oracle_repeats * guesses in
  checkb "stored pairs bounded" true (Sms.stored_pairs ss <= Sms.cap ss * instances)

let test_small_set_budget_scales () =
  let p4 = P.make ~m:512 ~n:512 ~k:64 ~alpha:4.0 () in
  let p16 = P.make ~m:512 ~n:512 ~k:64 ~alpha:16.0 () in
  let b4 = Sms.budget (Sms.create p4 ~seed:(Sm.create 31)) in
  let b16 = Sms.budget (Sms.create p16 ~seed:(Sm.create 32)) in
  checkb "budget ~ k/α decreasing in α" true (b4 > b16);
  checkb "budget <= k" true (b4 <= 64)

(* A fixed churned instance (30% later deletions) on which SmallSet wins
   the estimate after some of its guesses died at the cap.  The pinned
   answer, provenance, witness and counters are the values the
   per-guess-store SmallSet produced; the one-store rewrite must
   reproduce them exactly, per edge and planned. *)
let test_small_set_pinned_answer () =
  let module E = Mkc_core.Estimate in
  let sys = Mkc_workload.Random_inst.uniform ~n:512 ~m:32 ~set_size:96 ~seed:23 in
  let edges = Mkc_workload.Churn.apply ~frac:0.3 ~seed:24 (Ss.edge_stream ~seed:25 sys) in
  let p = P.make ~m:32 ~n:512 ~k:4 ~alpha:4.0 ~seed:26 () in
  let check_run what est (r : E.result) =
    checkb (what ^ ": estimate") true (r.E.estimate = 256.0);
    checki (what ^ ": z guess") 512 r.E.z_guess;
    (match r.E.outcome with
    | Some { Sol.provenance = Sol.Small_set { gamma_exp; repeat }; witness; _ } ->
        checki (what ^ ": winning guess") 2 gamma_exp;
        checki (what ^ ": winning repeat") 0 repeat;
        checkb (what ^ ": witness") true (witness () = [ 11; 31; 18; 26 ])
    | _ -> Alcotest.failf "%s: SmallSet should win" what);
    let stat key = List.assoc ("small_set." ^ key) (E.stats_totals est) in
    checki (what ^ ": guesses dead at the cap") 12 (stat "dead_instances");
    checki (what ^ ": pairs stored") 45311 (stat "pairs_stored")
  in
  checki "churned stream length" 3645 (Array.length edges);
  let est = E.create p in
  Array.iter (E.feed est) edges;
  check_run "per edge" est (E.finalize est);
  let est = E.create p in
  let r = Mkc_stream.Pipeline.run ~chunk:256 E.sink est (Mkc_stream.Stream_source.of_array edges) in
  check_run "planned" est r

(* ---------- Oracle (Figure 2) ---------- *)

let test_oracle_combines_subroutines () =
  let pl = Mkc_workload.Planted.few_large ~n:1024 ~m:256 ~k:8 ~seed:33 in
  let p = P.make ~m:256 ~n:1024 ~k:8 ~alpha:4.0 ~seed:34 () in
  let o = Oracle.create p ~seed:(Sm.create 35) in
  feed_all Oracle.feed o pl.system ~seed:36;
  let all = Oracle.finalize_all o in
  checki "three slots" 3 (List.length all);
  match Oracle.finalize o with
  | None -> Alcotest.fail "oracle should not be infeasible here"
  | Some best ->
      List.iter
        (fun slot ->
          match slot with
          | Some s -> checkb "best is max" true (s.Sol.estimate <= best.Sol.estimate)
          | None -> ())
        all

let test_oracle_never_exceeds_universe () =
  for seed = 1 to 5 do
    let sys = Mkc_workload.Random_inst.uniform ~n:512 ~m:256 ~set_size:16 ~seed:(500 + seed) in
    let p = P.make ~m:256 ~n:512 ~k:8 ~alpha:4.0 ~seed:(600 + seed) () in
    let o = Oracle.create p ~seed:(Sm.create (700 + seed)) in
    feed_all Oracle.feed o sys ~seed:(800 + seed);
    match Oracle.finalize o with
    | None -> ()
    | Some out -> checkb "estimate <= |U|" true (out.Sol.estimate <= 512.0)
  done

let test_oracle_estimate_not_wild_overestimate () =
  (* the (α,δ,η)-oracle promise: output ≤ OPT (w.h.p.).  Allow 2x slack
     for the practical constants. *)
  for seed = 1 to 5 do
    let pl = Mkc_workload.Planted.few_large ~n:1024 ~m:256 ~k:8 ~seed:(900 + seed) in
    let opt = pl.planted_coverage in
    let p = P.make ~m:256 ~n:1024 ~k:8 ~alpha:4.0 ~seed:(1000 + seed) () in
    let o = Oracle.create p ~seed:(Sm.create (1100 + seed)) in
    feed_all Oracle.feed o pl.system ~seed:(1200 + seed);
    match Oracle.finalize o with
    | None -> ()
    | Some out -> checkb "estimate <= 2·OPT" true (out.Sol.estimate <= 2.0 *. float_of_int opt)
  done

let test_words_breakdown_sums () =
  let p = P.make ~m:512 ~n:512 ~k:8 ~alpha:4.0 ~seed:46 () in
  let est = Mkc_core.Estimate.create p in
  let breakdown = Mkc_core.Estimate.words_breakdown est in
  let sum = List.fold_left (fun a (_, w) -> a + w) 0 breakdown in
  checki "breakdown sums to words" (Mkc_core.Estimate.words est) sum;
  let has prefix = List.exists (fun (key, _) -> String.starts_with ~prefix key) breakdown in
  checkb "has the three subroutines" true
    (has "oracle.large_set." && has "oracle.large_common.")

let test_figure2_case_matrix () =
  (* the E6 winner matrix, asserted: each planted regime must make its
     predicted subroutine feasible and within the α-window *)
  let n = 2048 and m = 1024 in
  let window opt est = est > 0.0 && est <= 2.0 *. float_of_int opt in
  (* case I: common-heavy -> LargeCommon feasible *)
  let pl1 = Mkc_workload.Planted.common_heavy ~n ~m ~k:16 ~beta:4 ~seed:70 in
  let p1 = P.make ~m ~n ~k:16 ~alpha:8.0 ~seed:71 () in
  let o1 = Oracle.create p1 ~seed:(Sm.create 72) in
  feed_all Oracle.feed o1 pl1.system ~seed:73;
  (match Oracle.finalize_all o1 with
  | [ Some lc; _; _ ] ->
      checkb "case I: LargeCommon feasible and sound" true
        (window (Mkc_coverage.Greedy.run pl1.system ~k:16).coverage lc.Sol.estimate)
  | _ -> Alcotest.fail "case I: LargeCommon should be feasible");
  (* case II: one giant set -> LargeSet feasible, others may decline *)
  let pl2 =
    Mkc_workload.Planted.planted ~n ~m ~num_planted:1 ~coverage_fraction:0.5 ~noise_size:8
      ~seed:74 ()
  in
  let p2 = P.make ~m ~n ~k:4 ~alpha:4.0 ~seed:75 () in
  let o2 = Oracle.create p2 ~seed:(Sm.create 76) in
  feed_all Oracle.feed o2 pl2.system ~seed:77;
  (match Oracle.finalize_all o2 with
  | [ _; Some ls; _ ] ->
      checkb "case II: LargeSet feasible and sound" true
        (window pl2.planted_coverage ls.Sol.estimate)
  | _ -> Alcotest.fail "case II: LargeSet should be feasible");
  (* case III: many small -> SmallSet feasible *)
  let pl3 = Mkc_workload.Planted.many_small ~n ~m ~k:128 ~seed:78 in
  let p3 = P.make ~m ~n ~k:128 ~alpha:8.0 ~seed:79 () in
  let o3 = Oracle.create p3 ~seed:(Sm.create 80) in
  feed_all Oracle.feed o3 pl3.system ~seed:81;
  match Oracle.finalize_all o3 with
  | [ _; _; Some ss ] ->
      checkb "case III: SmallSet feasible and sound" true
        (window pl3.planted_coverage ss.Sol.estimate)
  | _ -> Alcotest.fail "case III: SmallSet should be feasible"

let test_space_fit_exponent () =
  (* static regression: the α-dependent state must decay ~quadratically *)
  let words alpha =
    let p = P.make ~m:16384 ~n:16384 ~k:128 ~alpha ~seed:82 () in
    Mkc_core.Estimate.words (Mkc_core.Estimate.create p)
  in
  let w4 = words 4.0 and w16 = words 16.0 and w64 = words 64.0 in
  let floor_w = w64 in
  let a = float_of_int (w4 - floor_w) and b = float_of_int (max 1 (w16 - floor_w)) in
  (* slope between α=4 and α=16 on the floored curve *)
  let slope = log (b /. a) /. log (16.0 /. 4.0) in
  checkb (Printf.sprintf "fit slope %.2f <= -1.3" slope) true (slope <= -1.3)

let suite =
  [
    Alcotest.test_case "params practical defaults" `Quick test_params_practical_defaults;
    Alcotest.test_case "params paper profile" `Quick test_params_paper_profile;
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "params with_universe" `Quick test_params_with_universe;
    Alcotest.test_case "reduction range" `Quick test_reduction_range;
    Alcotest.test_case "reduction deterministic" `Quick test_reduction_deterministic;
    Alcotest.test_case "reduction Lemma 3.5" `Quick test_reduction_lemma_3_5;
    Alcotest.test_case "reduction never increases coverage" `Quick
      test_reduction_never_increases_coverage;
    Alcotest.test_case "reduction edge mapping" `Quick test_reduction_edge_mapping;
    Alcotest.test_case "solution best" `Quick test_solution_best;
    Alcotest.test_case "large-common triggers (case I)" `Quick
      test_large_common_triggers_on_common_heavy;
    Alcotest.test_case "large-common infeasible on sparse" `Quick
      test_large_common_infeasible_on_sparse;
    Alcotest.test_case "large-common per-level estimates" `Quick
      test_large_common_estimates_per_level;
    Alcotest.test_case "partition members consistent" `Quick test_partition_members_consistent;
    Alcotest.test_case "partition covers all sets" `Quick test_partition_covers_all_sets;
    Alcotest.test_case "partition limit" `Quick test_partition_limit;
    Alcotest.test_case "partition sizes (Claim 4.9)" `Quick test_partition_sizes_claim_4_9;
    Alcotest.test_case "partition duplication (Claim 4.10)" `Quick
      test_partition_duplication_claim_4_10;
    Alcotest.test_case "estimate words breakdown" `Quick test_words_breakdown_sums;
    Alcotest.test_case "large-set finds giant set (case II)" `Quick test_large_set_finds_giant_set;
    Alcotest.test_case "large-set m/α² space scaling" `Quick test_large_set_space_shrinks_with_alpha;
    Alcotest.test_case "large-set thresholds" `Quick test_large_set_thresholds_positive;
    Alcotest.test_case "large-set flat instance (Fig 6 case 2)" `Quick
      test_large_set_flat_instance_case2;
    Alcotest.test_case "small-set on many-small (case III)" `Quick test_small_set_on_many_small;
    Alcotest.test_case "small-set storage capped" `Quick test_small_set_storage_capped;
    Alcotest.test_case "small-set budget scaling" `Quick test_small_set_budget_scales;
    Alcotest.test_case "Figure 2 case matrix" `Slow test_figure2_case_matrix;
    Alcotest.test_case "space fit exponent" `Quick test_space_fit_exponent;
    Alcotest.test_case "oracle combines subroutines" `Quick test_oracle_combines_subroutines;
    Alcotest.test_case "oracle bounded by universe" `Quick test_oracle_never_exceeds_universe;
    Alcotest.test_case "oracle no wild overestimate" `Quick
      test_oracle_estimate_not_wild_overestimate;
    Alcotest.test_case "small-set pinned churned answer" `Quick test_small_set_pinned_answer;
  ]
