(* Sliding-window / exponential-decay coverage (Windowed): the window
   invariant (window of W epochs ≡ a fresh run over the live suffix,
   plus two fixed churned streams), the Decay monoid laws, the ring's
   space charge, the pinned decayed answer, and a seeded churn workload
   held to the paper band against greedy on the live suffix. *)

module Sm = Mkc_hashing.Splitmix
module Ss = Mkc_stream.Set_system
module Edge = Mkc_stream.Edge
module P = Mkc_core.Params
module Est = Mkc_core.Estimate
module W = Mkc_core.Windowed
module D = Mkc_core.Windowed.Decay
module Sol = Mkc_core.Solution
module Churn = Mkc_workload.Churn
module Src = Mkc_stream.Stream_source
module Pipe = Mkc_stream.Pipeline

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- Decay monoid laws (qcheck) ---------- *)

let acc_gen =
  QCheck.Gen.(
    let* v = float_range 0.0 100.0 in
    let* span = int_range 0 8 in
    return { D.v; span })

let lam_acc3_arb =
  QCheck.make
    ~print:(fun (l, a, b, c) ->
      Printf.sprintf "λ=%.3f (%.2f,%d) (%.2f,%d) (%.2f,%d)" l a.D.v a.D.span b.D.v
        b.D.span c.D.v c.D.span)
    QCheck.Gen.(
      let* l = float_range 0.05 0.95 in
      let* a = acc_gen in
      let* b = acc_gen in
      let* c = acc_gen in
      return (l, a, b, c))

let prop_decay_identity =
  QCheck.Test.make ~name:"decay identity is two-sided (exactly)" ~count:100 lam_acc3_arb
    (fun (lambda, a, _, _) ->
      let left = D.combine ~lambda D.identity a in
      let right = D.combine ~lambda a D.identity in
      (* λ⁰ = 1 and x + 0 = x are exact in floating point, so the
         identity laws hold bit-for-bit, not just approximately. *)
      left.D.v = a.D.v && left.D.span = a.D.span && right.D.v = a.D.v
      && right.D.span = a.D.span)

let close x y =
  let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
  Float.abs (x -. y) <= 1e-9 *. scale

let prop_decay_assoc =
  QCheck.Test.make ~name:"decay combine is associative" ~count:100 lam_acc3_arb
    (fun (lambda, a, b, c) ->
      let left = D.combine ~lambda (D.combine ~lambda a b) c in
      let right = D.combine ~lambda a (D.combine ~lambda b c) in
      close left.D.v right.D.v && left.D.span = right.D.span)

let prop_decay_fold_closed_form =
  (* Folding span-1 epochs oldest-first must equal the textbook
     exponential-decay sum Σᵢ λ^(age of i) · vᵢ. *)
  QCheck.Test.make ~name:"decay fold of span-1 epochs = Σ λ^age·v" ~count:100
    (QCheck.make
       ~print:(fun (l, vs) ->
         Printf.sprintf "λ=%.3f [%s]" l
           (String.concat ";" (List.map (Printf.sprintf "%.2f") vs)))
       QCheck.Gen.(
         let* l = float_range 0.05 0.95 in
         let* vs = list_size (int_range 0 12) (float_range 0.0 100.0) in
         return (l, vs)))
    (fun (lambda, vs) ->
      let folded =
        (List.fold_left
           (fun acc v -> D.combine ~lambda acc (D.of_estimate v))
           D.identity vs)
          .D.v
      in
      let n = List.length vs in
      let direct =
        List.fold_left ( +. ) 0.0
          (List.mapi (fun i v -> (Float.pow lambda (float_of_int (n - 1 - i)) *. v)) vs)
      in
      close folded direct)

(* ---------- window of W epochs ≡ fresh run on the live suffix ---------- *)

let params sys ~k ~alpha ~seed =
  P.make ~m:(Ss.m sys) ~n:(Ss.n sys) ~k ~alpha ~seed ()

(* Edge count of the live suffix for a [window]/[epoch_edges] run over
   [total] edges — the ring's full epochs plus the in-flight partial. *)
let live_suffix_len ~window ~epoch_edges ~total =
  let full = total / epoch_edges and in_ep = total mod epoch_edges in
  (min window full * epoch_edges) + in_ep

let check_window_equals_fresh ?churn ~window ~epoch_edges ~drop_partial sys ~k ~alpha ~seed =
  let p = params sys ~k ~alpha ~seed in
  let edges = Ss.edge_stream ~seed:(seed + 1) sys in
  let edges =
    match churn with
    | None -> edges
    | Some frac -> Churn.apply ~frac ~seed:(seed + 2) edges
  in
  let edges =
    if drop_partial then Array.sub edges 0 (Array.length edges / epoch_edges * epoch_edges)
    else edges
  in
  let total = Array.length edges in
  let live = live_suffix_len ~window ~epoch_edges ~total in
  let f = Pipe.run Est.sink (Est.create p) (Src.of_array (Array.sub edges (total - live) live)) in
  let check_drive drive (r : W.result) =
    checkb
      (Printf.sprintf "%s: windowed %.2f = fresh-suffix %.2f" drive r.W.estimate f.Est.estimate)
      true
      (r.W.estimate = f.Est.estimate);
    (match (r.W.outcome, f.Est.outcome) with
    | Some a, Some b ->
        checkb (drive ^ ": same witness ids") true (a.Sol.witness () = b.Sol.witness ());
        checkb (drive ^ ": same provenance") true (a.Sol.provenance = b.Sol.provenance)
    | None, None -> ()
    | _ -> Alcotest.fail (drive ^ ": outcome presence differs between windowed and fresh"));
    checki (drive ^ ": rolled epochs") (total / epoch_edges) r.W.rolled;
    checki (drive ^ ": live epochs in the answer")
      (min window (total / epoch_edges) + if total mod epoch_edges > 0 then 1 else 0)
      r.W.epochs
  in
  let w = W.create p ~window ~epoch_edges () in
  Array.iter (W.feed w) edges;
  check_drive "per edge" (W.finalize w);
  (* The planned path, where the live estimator's memos stay warm across
     rolls: chunks equal to the epoch, dividing it, and straddling a
     roll. *)
  let rec divisor d = if epoch_edges mod d = 0 then d else divisor (d - 1) in
  List.iter
    (fun chunk ->
      check_drive (Printf.sprintf "chunk %d" chunk)
        (Pipe.run ~chunk W.sink (W.create p ~window ~epoch_edges ()) (Src.of_array edges)))
    [ epoch_edges; divisor (epoch_edges / 2); epoch_edges + (epoch_edges / 3) ]

let test_window_equals_fresh_suffix () =
  let sys = Mkc_workload.Random_inst.uniform ~n:300 ~m:48 ~set_size:10 ~seed:5 in
  check_window_equals_fresh ~window:3 ~epoch_edges:70 ~drop_partial:false sys ~k:6
    ~alpha:2.0 ~seed:7

let test_window_equals_fresh_suffix_exact_epochs () =
  (* Partial epoch empty: only the ring contributes to the answer. *)
  let sys = Mkc_workload.Random_inst.uniform ~n:300 ~m:48 ~set_size:10 ~seed:8 in
  check_window_equals_fresh ~window:2 ~epoch_edges:64 ~drop_partial:true sys ~k:6
    ~alpha:2.0 ~seed:9

let test_window_wider_than_stream () =
  (* Window wider than the whole run: the live suffix is the whole
     stream, so the windowed answer is the plain single-pass answer. *)
  let sys = Mkc_workload.Random_inst.uniform ~n:200 ~m:32 ~set_size:8 ~seed:10 in
  check_window_equals_fresh ~window:64 ~epoch_edges:50 ~drop_partial:false sys ~k:4
    ~alpha:2.0 ~seed:11

(* A churned stream retracts edges in later epochs than their
   insertions, so the merge has to cancel signed counts across frozen
   epochs: signed CountSketch rows and tracked counts.  The equality is
   not general under churn — SmallSet cancels a deletion only within its
   own epoch (DESIGN.md §9) — so these two fixed streams check the
   packed signed state, not a law over all churned inputs. *)
let test_churned_window_equals_fresh_suffix () =
  let sys = Mkc_workload.Random_inst.uniform ~n:300 ~m:48 ~set_size:10 ~seed:26 in
  check_window_equals_fresh ~churn:0.3 ~window:3 ~epoch_edges:70 ~drop_partial:false sys ~k:6
    ~alpha:2.0 ~seed:27

let test_churned_window_equals_fresh_suffix_exact_epochs () =
  let sys = Mkc_workload.Random_inst.uniform ~n:300 ~m:48 ~set_size:10 ~seed:28 in
  check_window_equals_fresh ~churn:0.3 ~window:2 ~epoch_edges:64 ~drop_partial:true sys ~k:6
    ~alpha:2.0 ~seed:29

(* ---------- the ring's space charge ---------- *)

(* Each held epoch is charged its frozen state's real heap size, and the
   ring's [words] entry is the sum over the held epochs. *)
let test_ring_charge_is_heap_size () =
  let sys = Mkc_workload.Random_inst.uniform ~n:400 ~m:64 ~set_size:12 ~seed:30 in
  let p = params sys ~k:6 ~alpha:2.0 ~seed:31 in
  let edges = Ss.edge_stream ~seed:32 sys in
  let window = 3 and epoch_edges = 100 in
  let w = W.create p ~window ~epoch_edges () in
  Array.iter (W.feed w) edges;
  let rolled = Array.length edges / epoch_edges in
  checkb "the ring is full" true (rolled > window);
  let charged =
    List.init window (fun i ->
        let e = Est.create p in
        Array.iter (Est.feed e) (Array.sub edges ((rolled - window + i) * epoch_edges) epoch_edges);
        let f = Est.freeze (Mkc_sketch.Packed.writer ()) e in
        let heap = Obj.reachable_words (Obj.repr f) and words = Est.frozen_words f in
        checkb
          (Printf.sprintf "epoch %d: charge %d within [%d, 1.1×%d]" i words heap heap)
          true
          (words >= heap && float_of_int words <= 1.1 *. float_of_int heap);
        words)
  in
  checki "ring words = the held epochs' charges" (List.fold_left ( + ) 0 charged)
    (List.assoc "ring" (W.words_breakdown w))

(* ---------- batched drive rolls at the same boundaries ---------- *)

(* Chunks that equal the epoch (every slice takes the pipeline's plan),
   divide it (slices end exactly on a roll), and straddle it (slices are
   cut at the roll and planned privately, one of them spanning several
   epochs) must all leave the per-edge drive's state. *)
let test_batched_drive_matches_per_edge () =
  let sys = Mkc_workload.Random_inst.uniform ~n:250 ~m:40 ~set_size:9 ~seed:13 in
  let p = params sys ~k:5 ~alpha:2.0 ~seed:14 in
  let edges = Ss.edge_stream ~seed:15 sys in
  let by_edge = W.create p ~window:3 ~epoch_edges:57 () in
  Array.iter (W.feed by_edge) edges;
  let a = W.finalize by_edge in
  (* Frozen epochs carry sketch state only, no work counters, so the
     ring's charge is as grid-free as the in-flight epoch's. *)
  let bd = W.words_breakdown by_edge in
  List.iter
    (fun chunk ->
      let batched = W.create p ~window:3 ~epoch_edges:57 () in
      let b = Pipe.run ~chunk W.sink batched (Src.of_array edges) in
      checkb
        (Printf.sprintf "chunk %d matches per-edge drive" chunk)
        true
        (a.W.estimate = b.W.estimate && a.W.rolled = b.W.rolled
        && a.W.epochs = b.W.epochs);
      checkb
        (Printf.sprintf "chunk %d: same words breakdown, ring included" chunk)
        true
        (W.words_breakdown batched = bd))
    [ 57; 1; 3; 19; 13; 64; 114; 1024 ]

(* ---------- seeded churn workload vs greedy on the live suffix ---------- *)

(* Same empirical band as test_estimate: estimate ∈ [OPT/(slack·α), 2·OPT],
   with greedy's (1 − 1/e) guarantee bounding OPT from the live suffix. *)
let slack = 8.0

let test_churn_tracks_greedy_on_live_suffix () =
  let sys = Mkc_workload.Random_inst.uniform ~n:400 ~m:64 ~set_size:12 ~seed:17 in
  let base = Ss.edge_stream ~seed:18 sys in
  let churned = Churn.apply ~frac:0.3 ~seed:19 base in
  checkb "churn produced deletions" true
    (Array.exists (fun (e : Edge.t) -> e.sign < 0) churned);
  let k = 6 and alpha = 2.0 in
  let p = params sys ~k ~alpha ~seed:20 in
  (* Window wide enough to keep the whole churned stream live: the
     estimate must then track the NET instance, i.e. deletions really
     cancel their insertions inside the sketches. *)
  let w = W.create p ~window:64 ~epoch_edges:128 () in
  Array.iter (W.feed w) churned;
  let r = W.finalize w in
  let live = Churn.live churned in
  checkb "live suffix lost the churned edges" true
    (Array.length live < Array.length base);
  let live_sys = Ss.of_edges ~n:(Ss.n sys) ~m:(Ss.m sys) (Array.to_list live) in
  let g = Mkc_coverage.Greedy.run live_sys ~k in
  let opt_lo = float_of_int g.Mkc_coverage.Greedy.coverage in
  let opt_hi = opt_lo /. (1.0 -. (1.0 /. Float.exp 1.0)) in
  checkb
    (Printf.sprintf "windowed %.0f within [%.0f/(%.0f·α), 2·%.0f] of greedy-on-live"
       r.W.estimate opt_lo slack opt_hi)
    true
    (r.W.estimate >= opt_lo /. (slack *. alpha) && r.W.estimate <= 2.0 *. opt_hi)

(* ---------- decay mode and argument validation ---------- *)

let test_decay_run_and_validation () =
  let sys = Mkc_workload.Random_inst.uniform ~n:200 ~m:32 ~set_size:8 ~seed:23 in
  let p = params sys ~k:4 ~alpha:2.0 ~seed:24 in
  let edges = Ss.edge_stream ~seed:25 sys in
  let w = W.create ~decay:0.5 p ~window:4 ~epoch_edges:60 () in
  Array.iter (W.feed w) edges;
  let r = W.finalize w in
  checkb "decayed estimate is positive" true (r.W.estimate > 0.0);
  (* The discounted fold is bounded by the undiscounted sum of the same
     per-epoch estimates: λ < 1 only ever shrinks older mass. *)
  let plain = W.create p ~window:4 ~epoch_edges:60 () in
  Array.iter (W.feed plain) edges;
  let sum_bound =
    (* A loose sanity bound: the decayed value cannot exceed epochs ×
       the largest single-epoch estimate, itself ≤ n. *)
    float_of_int (r.W.epochs * Ss.n sys)
  in
  checkb "decayed estimate below the trivial bound" true (r.W.estimate <= sum_bound);
  ignore (W.finalize plain : W.result);
  let expect_invalid name thunk =
    match thunk () with
    | exception Invalid_argument msg ->
        checkb (name ^ " names Windowed.create") true
          (String.length msg >= 15 && String.sub msg 0 15 = "Windowed.create")
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  expect_invalid "decay = 1" (fun () -> W.create ~decay:1.0 p ~window:2 ~epoch_edges:10 ());
  expect_invalid "decay = 0" (fun () -> W.create ~decay:0.0 p ~window:2 ~epoch_edges:10 ());
  expect_invalid "window = 0" (fun () -> W.create p ~window:0 ~epoch_edges:10 ());
  expect_invalid "epoch_edges = 0" (fun () -> W.create p ~window:2 ~epoch_edges:0 ())

(* A decayed answer folds per-epoch finalized estimates, which only a
   roll under decay computes; pinned to the float this seed gave when
   every roll finalized and the ring held checkpoint payloads. *)
let test_decay_estimate_pinned () =
  let sys = Mkc_workload.Random_inst.uniform ~n:300 ~m:48 ~set_size:10 ~seed:33 in
  let p = params sys ~k:6 ~alpha:2.0 ~seed:34 in
  let edges = Churn.apply ~frac:0.3 ~seed:36 (Ss.edge_stream ~seed:35 sys) in
  let w = W.create ~decay:0.5 p ~window:3 ~epoch_edges:70 () in
  Array.iter (W.feed w) edges;
  let r = W.finalize w in
  checki "rolled epochs" 8 r.W.rolled;
  checkb (Printf.sprintf "decayed estimate %h is the pinned 0x1.d555555555554p+4" r.W.estimate)
    true
    (Int64.bits_of_float r.W.estimate = Int64.bits_of_float 0x1.d555555555554p+4)

(* A roll thaws a blank into the live estimator; a decayed roll has
   finalized that estimator first.  A run ending exactly on an epoch
   boundary leaves the blank in flight, which must carry none of the
   last rolled epoch's finalize-time records. *)
let test_rolled_estimator_is_unfinalized () =
  let sys = Mkc_workload.Random_inst.uniform ~n:300 ~m:48 ~set_size:10 ~seed:33 in
  let p = params sys ~k:6 ~alpha:2.0 ~seed:34 in
  let edges = Ss.edge_stream ~seed:35 sys in
  let epoch_edges = 70 in
  let edges = Array.sub edges 0 (Array.length edges / epoch_edges * epoch_edges) in
  let w = W.create ~decay:0.5 p ~window:3 ~epoch_edges () in
  Array.iter (W.feed w) edges;
  let r = W.finalize w in
  checkb "the run rolled epochs" true (r.W.rolled > 1);
  checkb "no epoch in flight" true (r.W.epochs = min 3 r.W.rolled);
  checkb "the in-flight estimator has no winners" true (Est.winners (W.current w) = []);
  let totals = Est.stats_totals (W.current w) in
  checki "nor heavy-hitter candidates" 0 (List.assoc "large_set.hh_candidates" totals)

(* The window.* telemetry tracks read the ring's own counts: with the
   registry off they still record the real roll count. *)
let test_windowed_telemetry_without_registry () =
  let sys = Mkc_workload.Random_inst.uniform ~n:300 ~m:48 ~set_size:10 ~seed:5 in
  let w = W.create (params sys ~k:4 ~alpha:2.0 ~seed:3) ~window:3 ~epoch_edges:40 () in
  Mkc_obs.Registry.set_enabled false;
  let log = Filename.temp_file "mkc_window" ".mkctel" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      (match
         Mkc_core.Run.run
           { Mkc_core.Run.default with chunk = 16; cadence = 25 }
           ~telemetry:
             {
               Mkc_core.Run.log = Some log;
               rules = [];
               probes = Mkc_core.Telemetry_probes.build_windowed w;
             }
           ~label:"estimate" W.sink w
           (Src.of_array (Ss.edge_stream ~seed:6 sys))
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "run: %s" (Mkc_core.Run.error_to_string e));
      let series =
        match Mkc_obs.Telemetry.read log with
        | Ok t -> Mkc_obs.Telemetry.replay t
        | Error e -> Alcotest.failf "log: %s" (Mkc_obs.Telemetry.error_to_string e)
      in
      let last name = Mkc_obs.Series.last series (Mkc_obs.Series.index_exn series name) in
      checkb "the run rolled epochs" true (W.rolled w > 3);
      checki "window.rolled = Windowed.rolled" (W.rolled w) (last "window.rolled");
      checki "window.epochs = live epochs" (W.live_epochs w) (last "window.epochs"))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_decay_identity; prop_decay_assoc; prop_decay_fold_closed_form ]
  @ [
      Alcotest.test_case "window of W ≡ fresh run on live suffix" `Quick
        test_window_equals_fresh_suffix;
      Alcotest.test_case "window ≡ fresh with empty partial epoch" `Quick
        test_window_equals_fresh_suffix_exact_epochs;
      Alcotest.test_case "window wider than stream ≡ single pass" `Quick
        test_window_wider_than_stream;
      Alcotest.test_case "churned window ≡ fresh run on live suffix" `Quick
        test_churned_window_equals_fresh_suffix;
      Alcotest.test_case "churned window ≡ fresh with empty partial epoch" `Quick
        test_churned_window_equals_fresh_suffix_exact_epochs;
      Alcotest.test_case "ring charges each epoch its heap size" `Quick
        test_ring_charge_is_heap_size;
      Alcotest.test_case "batched drive rolls at per-edge boundaries" `Quick
        test_batched_drive_matches_per_edge;
      Alcotest.test_case "churned stream tracks greedy on live suffix" `Quick
        test_churn_tracks_greedy_on_live_suffix;
      Alcotest.test_case "decay mode runs and create validates by name" `Quick
        test_decay_run_and_validation;
      Alcotest.test_case "decayed estimate is pinned on a fixed seed" `Quick
        test_decay_estimate_pinned;
      Alcotest.test_case "a rolled estimator carries no finalize records" `Quick
        test_rolled_estimator_is_unfinalized;
      Alcotest.test_case "windowed telemetry records rolls without the registry" `Quick
        test_windowed_telemetry_without_registry;
    ]
