(* Tests for the chunk-deduplicated hash engine.

   The engine's contract is an evaluation-schedule change, never a
   hash-function change: the planned (chunk-deduplicated) ingestion path
   must produce bit-for-bit the state of per-edge ingestion while
   evaluating each (set, element) sampler hash once per distinct id per
   chunk instead of once per edge.  Checked here:

   1. property: planned path ≡ per-edge path on random streams — same
      estimate/witness/words AND the same per-instance work counters,
      except the [*sampler_evals] and [*memo_hits] families, which are
      exactly what the engine is allowed (required) to shrink;
   2. the keep-level memo is transparent: under collisions and
      overwrites its answer always equals the direct hash evaluation,
      and its fixed space shows up under a [memo] breakdown key;
   3. branch-free [L0_bjkst.trailing_zeros] vs a bit-by-bit reference;
   4. the trivial branch's witness is deterministic and sorted;
   5. property: a reused plan's grown tables group each chunk as a
      Hashtbl does;
   6. property: direct decision tables return the hash's decisions. *)

module Edge = Mkc_stream.Edge
module Src = Mkc_stream.Stream_source
module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module P = Mkc_core.Params
module E = Mkc_core.Estimate
module Sampler = Mkc_sketch.Sampler
module Sm = Mkc_hashing.Splitmix

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let fingerprint (r : E.result) =
  let witness =
    match r.E.outcome with
    | None -> []
    | Some o -> List.sort compare (o.Mkc_core.Solution.witness ())
  in
  (r.E.estimate, r.E.z_guess, witness)

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* Work counters with the [*sampler_evals] and [*memo_hits] families
   dropped: those count hash evaluations and memo lookups (the engine's
   whole point is doing fewer of the former, which also changes how
   often the memo is consulted); everything else — edges, l0/f2
   updates, stored pairs, recoveries — is an observable-work invariant
   the planned path must preserve. *)
let invariant_stats est =
  List.map
    (fun (inst, stats) ->
      ( inst,
        List.filter
          (fun (k, _) ->
            not (has_suffix ~suffix:"sampler_evals" k || has_suffix ~suffix:"memo_hits" k))
          stats ))
    (E.stats est)

(* --- 1. planned ≡ per-edge, counters included --- *)

(* With [wide], m = 512 sets hash into more LargeSet supersets than a
   large-class tracker holds (2·cap), so its levels prune and replay the
   chunk's in-sample edges one by one; at m = 32 they only apply chunk
   totals. *)
let prop_planned_equals_per_edge =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 300) (pair (int_range 0 511) (int_range 0 63)))
        (int_range 1 128) bool)
  in
  let arb =
    QCheck.make
      ~print:(fun (edges, chunk, wide) ->
        Printf.sprintf "%d edges, chunk %d, m %d" (List.length edges) chunk
          (if wide then 512 else 32))
      gen
  in
  QCheck.Test.make
    ~name:"chunk-dedup planned path ≡ per-edge path (results and work counters)"
    ~count:30 arb
    (fun (pairs, chunk, wide) ->
      let m = if wide then 512 else 32 in
      let edges =
        Array.of_list (List.map (fun (s, e) -> Edge.make ~set:(s mod m) ~elt:e) pairs)
      in
      let src = Src.of_array edges in
      let params = P.make ~m ~n:64 ~k:3 ~alpha:4.0 ~seed:13 () in
      let e0 = E.create params in
      let r0 = Pipe.run_seq E.sink e0 src in
      let e1 = E.create params in
      let r1 = Pipe.run ~chunk E.sink e1 src in
      fingerprint r0 = fingerprint r1
      && E.words e0 = E.words e1
      && E.words_breakdown e0 = E.words_breakdown e1
      && invariant_stats e0 = invariant_stats e1)

(* The planned path exists to shrink sampler work: chunk grouping plus
   memoization keep set-sampling evaluations at O(distinct ids), far
   under the edge count — and since the memo makes misses a pure
   function of the distinct-id sequence, per-edge and planned drives
   must report the same (small) evaluation count. *)
let test_planned_fewer_sampler_evals () =
  let m = 32 and n = 64 in
  (* 4096 edges over 32 sets: at most m distinct set ids exist, so
     set-sampling evaluations must be bounded by m per instance however
     the stream is driven — and in both drives they must agree, because
     the memo makes misses a function of the distinct-id sequence. *)
  let edges =
    Array.init 4096 (fun i -> Edge.make ~set:(i * 7 mod m) ~elt:(i * 31 mod n))
  in
  let params = P.make ~m ~n ~k:3 ~alpha:4.0 ~seed:13 () in
  let e0 = E.create params in
  let _ = Pipe.run_seq E.sink e0 (Src.of_array edges) in
  let e1 = E.create params in
  let _ = Pipe.run ~chunk:512 E.sink e1 (Src.of_array edges) in
  let total est =
    List.fold_left
      (fun acc (_, stats) ->
        acc + (try List.assoc "sampler_evals" stats with Not_found -> 0))
      0 (E.stats est)
  in
  let instances = List.length (E.stats e0) in
  checki "planned evals = per-edge evals (memo misses)" (total e0) (total e1);
  checkb "evals bounded by m per instance" true (total e1 <= m * instances);
  checkb "evals far below edge count" true
    (total e1 < Array.length edges * instances / 10)

(* The planned feed's working buffers belong to the domain, not the
   estimator: after a chunked drive an estimator reaches exactly the
   words of the same estimator fed edge by edge. *)
let test_no_retained_scratch () =
  let m = 512 and n = 8192 in
  let sys = Mkc_workload.Random_inst.uniform ~n ~m ~set_size:64 ~seed:31 in
  let src = Src.of_system ~seed:32 sys in
  let params = P.make ~m ~n ~k:8 ~alpha:4.0 ~seed:33 () in
  let e0 = E.create params and e1 = E.create params in
  let r0 = Pipe.run_seq E.sink e0 src in
  let r1 = Pipe.run ~chunk:8192 E.sink e1 src in
  checkb "same answer" true (fingerprint r0 = fingerprint r1);
  checki "reachable words: chunked = per-edge" (Obj.reachable_words (Obj.repr e0))
    (Obj.reachable_words (Obj.repr e1))

(* Instances of different shapes share one domain's buffers: a
   light-regime estimator (SmallSet present) over m = 512 and a
   heavy-regime one (no SmallSet, s lifted by hand as no profile reaches
   it) over m = 96 have different superset counts, different chunk
   lengths and distinct-id counts, and the second stream deletes, so
   per-superset sums cancel.  Fed alternately chunk by chunk on a fresh
   domain, each must end exactly where its own per-edge run does. *)
let test_shapes_share_domain () =
  let light = P.make ~m:512 ~n:1024 ~k:4 ~alpha:4.0 ~seed:41 () in
  let heavy =
    let p = P.make ~m:96 ~n:512 ~k:3 ~alpha:3.0 ~seed:42 () in
    { p with P.s = 4.0 *. float_of_int p.P.k /. p.P.alpha }
  in
  (* the heavy regime's breakdown holds a bare zero [oracle.small_set] *)
  let small_set p = not (List.mem_assoc "oracle.small_set" (E.words_breakdown (E.create p))) in
  checkb "light instance has SmallSet" true (small_set light);
  checkb "heavy instance has none" false (small_set heavy);
  let stream p ~deletes =
    let sys = Mkc_workload.Random_inst.uniform ~n:p.P.n ~m:p.P.m ~set_size:24 ~seed:p.P.base_seed in
    let ins = Src.to_array (Src.of_system ~seed:p.P.base_seed sys) in
    if not deletes then ins
    else
      Array.append ins
        (Array.of_list
           (List.filteri (fun i _ -> i mod 3 = 0)
              (List.map
                 (fun (e : Edge.t) -> Edge.signed ~sign:(-1) ~set:e.set ~elt:e.elt)
                 (Array.to_list ins))))
  in
  let a = stream light ~deletes:false and b = stream heavy ~deletes:true in
  let chunked () =
    let ea = E.create light and eb = E.create heavy in
    let plan = Mkc_stream.Chunk_plan.create () in
    let feed est edges ~chunk i =
      let pos = i * chunk in
      let len = min chunk (Array.length edges - pos) in
      if len > 0 then begin
        Mkc_stream.Chunk_plan.build plan edges ~pos ~len;
        E.feed_planned est plan edges ~pos ~len
      end
    in
    for i = 0 to (Array.length a / 700) + (Array.length b / 300) do
      feed ea a ~chunk:700 i;
      feed eb b ~chunk:300 i
    done;
    (ea, eb)
  in
  let ea, eb = Domain.join (Domain.spawn chunked) in
  List.iter
    (fun (name, p, edges, est) ->
      let ref_est = E.create p in
      let r0 = Pipe.run_seq E.sink ref_est (Src.of_array edges) in
      let r1 = E.finalize est in
      checkb (name ^ ": estimate and witness") true (fingerprint r0 = fingerprint r1);
      checki (name ^ ": words") (E.words ref_est) (E.words est);
      checkb (name ^ ": invariant stats") true (invariant_stats ref_est = invariant_stats est))
    [ ("light", light, a, ea); ("heavy", heavy, b, eb) ]

(* --- 2. the memo is transparent --- *)

let test_memo_transparent () =
  let sampler =
    Sampler.Nested.create ~base_rate:0.25 ~levels:5 ~indep:4 ~seed:(Sm.create 41)
  in
  (* 8 slots against ids drawn from [0, 64): heavy collisions, constant
     overwrites — the worst case for a direct-mapped cache.  Emulate
     Large_common's keep_code and check every answer against the direct
     evaluation. *)
  let memo = Sampler.Memo.create ~slots:8 in
  checki "slots round to a power of two" 8 (Sampler.Memo.slots memo);
  checki "fixed words: 2*slots + 1" 17 (Sampler.Memo.words memo);
  let rng = Sm.create 97 in
  for _ = 1 to 10_000 do
    let id = Sm.below rng 64 in
    let c = Sampler.Memo.find memo id in
    let code =
      if c <> Sampler.Memo.absent then c
      else begin
        let c = Sampler.Nested.min_keep_level_code sampler id in
        Sampler.Memo.store memo id c;
        c
      end
    in
    checki
      (Printf.sprintf "memoized decision for id %d" id)
      (Sampler.Nested.min_keep_level_code sampler id)
      code
  done

let test_memo_words_in_breakdown () =
  let params = P.make ~m:32 ~n:64 ~k:3 ~alpha:4.0 ~seed:13 () in
  let est = E.create params in
  let edges = Array.init 256 (fun i -> Edge.make ~set:(i mod 32) ~elt:(i mod 64)) in
  let _ = Pipe.run E.sink est (Src.of_array edges) in
  let memo_words =
    List.fold_left
      (fun acc (key, w) -> if has_suffix ~suffix:"memo" key then acc + w else acc)
      0 (E.words_breakdown est)
  in
  checkb "memo words accounted under a *.memo key" true (memo_words > 0);
  (* and the breakdown still sums to the total *)
  checki "breakdown sums to words" (E.words est)
    (List.fold_left (fun acc (_, w) -> acc + w) 0 (E.words_breakdown est))

(* --- 3. trailing_zeros vs bit-by-bit reference --- *)

let tz_reference v =
  if v = 0 then Sys.int_size
  else begin
    let c = ref 0 in
    let x = ref v in
    while !x land 1 = 0 do
      incr c;
      x := !x lsr 1
    done;
    !c
  end

let test_trailing_zeros () =
  let tz = Mkc_sketch.L0_bjkst.trailing_zeros in
  checki "zero" Sys.int_size (tz 0);
  checki "one" 0 (tz 1);
  checki "min_int (only the top bit)" (Sys.int_size - 1) (tz min_int);
  checki "all ones" 0 (tz (-1));
  for i = 0 to Sys.int_size - 1 do
    checki (Printf.sprintf "power of two: bit %d" i) i (tz (1 lsl i))
  done;
  let rng = Sm.create 7 in
  for _ = 1 to 5000 do
    let v = Int64.to_int (Sm.next rng) in
    checki (Printf.sprintf "random %d" v) (tz_reference v) (tz v)
  done;
  (* values dense in low trailing-zero counts: shifted randoms *)
  for shift = 0 to Sys.int_size - 1 do
    let v = Int64.to_int (Sm.next rng) lsl shift in
    checki (Printf.sprintf "shifted %d" v) (tz_reference v) (tz v)
  done

(* --- 4. trivial branch: deterministic sorted witness --- *)

let test_trivial_witness_deterministic () =
  (* kα = 16 ≥ m = 8 puts Estimate on the trivial branch. *)
  let params = P.make ~m:8 ~n:64 ~k:4 ~alpha:4.0 ~seed:5 () in
  let edges = Array.init 128 (fun i -> Edge.make ~set:(i mod 8) ~elt:(i mod 64)) in
  let run () =
    let est = E.create params in
    let r = Pipe.run E.sink est (Src.of_array edges) in
    match r.E.outcome with
    | None -> Alcotest.fail "trivial branch produced no outcome"
    | Some o -> o.Mkc_core.Solution.witness ()
  in
  let w1 = run () and w2 = run () in
  checkb "two identical runs, identical witness" true (w1 = w2);
  checkb "witness is sorted" true (List.sort compare w1 = w1);
  checkb "witness is nonempty, at most k" true
    (List.length w1 > 0 && List.length w1 <= 4);
  checkb "witness ids are distinct" true
    (List.length (List.sort_uniq compare w1) = List.length w1)

(* --- 5. the plan's tables against a Hashtbl reference --- *)

(* Slices cut from one array and built, in order, into one plan: random
   ids over a universe (distinct counts crossing each doubling of the
   256-slot tables), all-distinct slices, and ids near [max_int / 2].
   Each build must list the distinct ids in first-appearance order and
   index every edge into them, as a Hashtbl does. *)
let prop_chunk_plan_tables =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 30)
           (triple (int_range 0 3000) (int_range 1 5000) (int_range 0 2)))
        (int_range 0 1_000_000))
  in
  let arb =
    QCheck.make
      ~print:(fun (slices, seed) ->
        Printf.sprintf "seed %d, slices %s" seed
          (String.concat " "
             (List.map (fun (len, u, kind) -> Printf.sprintf "%d/%d/%d" len u kind) slices)))
      gen
  in
  QCheck.Test.make ~name:"chunk plan ≡ Hashtbl grouping (growth, reuse, all-distinct)"
    ~count:40 arb (fun (slices, seed) ->
      let rng = Sm.create seed in
      let id kind u i =
        match kind with
        | 0 -> Sm.below rng u
        | 1 -> (seed * 7919) + i
        | _ -> (max_int / 2) - Sm.below rng u
      in
      let cut =
        List.map
          (fun (len, u, kind) ->
            Array.init len (fun i -> Edge.make ~set:(id kind u i) ~elt:(id kind (2 * u) i)))
          slices
      in
      let edges = Array.concat cut in
      let plan = Mkc_stream.Chunk_plan.create () in
      let group keys =
        let tbl = Hashtbl.create 64 and order = ref [] in
        let idx =
          Array.map
            (fun k ->
              match Hashtbl.find_opt tbl k with
              | Some j -> j
              | None ->
                  let j = Hashtbl.length tbl in
                  Hashtbl.add tbl k j;
                  order := k :: !order;
                  j)
            keys
        in
        (Array.of_list (List.rev !order), idx)
      in
      let pos = ref 0 in
      List.for_all
        (fun slice ->
          let len = Array.length slice in
          Mkc_stream.Chunk_plan.build plan edges ~pos:!pos ~len;
          pos := !pos + len;
          let sets, set_idx = group (Array.map (fun (e : Edge.t) -> e.set) slice) in
          let elts, elt_idx = group (Array.map (fun (e : Edge.t) -> e.elt) slice) in
          let module C = Mkc_stream.Chunk_plan in
          C.len plan = len
          && C.num_sets plan = Array.length sets
          && C.num_elts plan = Array.length elts
          && Array.sub (C.sets plan) 0 (C.num_sets plan) = sets
          && Array.sub (C.elts plan) 0 (C.num_elts plan) = elts
          && Array.sub (C.set_index plan) 0 len = set_idx
          && Array.sub (C.elt_index plan) 0 len = elt_idx)
        cut)

(* --- 6. direct decision tables are transparent --- *)

(* Every [Sampler.Decisions] value equals the hash's decision: keep-level
   codes (-1 included) and 0/1 flags in byte tables, superset-style ids
   in int tables, and the hashed fallback when the universe exceeds the
   slots.  Keys past the universe are looked up too, and always miss. *)
let prop_decisions_transparent =
  let gen = QCheck.Gen.(triple (int_range 1 600) (int_range 1 512) (int_range 0 1_000_000)) in
  let arb =
    QCheck.make
      ~print:(fun (u, slots, seed) -> Printf.sprintf "universe %d, slots %d, seed %d" u slots seed)
      gen
  in
  QCheck.Test.make ~name:"decision tables return the hash's decisions" ~count:40 arb
    (fun (universe, slots, seed) ->
      let sd = Sm.create seed in
      let nested =
        Sampler.Nested.create ~base_rate:0.05 ~levels:3 ~indep:4 ~seed:(Sm.fork sd 0)
      in
      let bern = Sampler.Bernoulli.create ~rate:0.3 ~indep:4 ~seed:(Sm.fork sd 1) in
      let part = Mkc_hashing.Poly_hash.create ~indep:4 ~range:1000 ~seed:(Sm.fork sd 2) in
      let cases =
        [
          (`Byte, Sampler.Nested.min_keep_level_code nested);
          (`Byte, fun x -> if Sampler.Bernoulli.keep bern x then 1 else 0);
          (`Int, Mkc_hashing.Poly_hash.hash part);
        ]
      in
      let rng = Sm.create (seed + 1) in
      let minus_one = ref false in
      let ok =
        List.for_all
          (fun (width, decide) ->
            let d = Sampler.Decisions.create ~universe ~slots ~width in
            let all = ref true in
            for _ = 1 to 2000 do
              let x = Sm.below rng (universe + 64) in
              let v = Sampler.Decisions.find d x in
              let got =
                if v <> Sampler.Decisions.absent then begin
                  if x >= universe && universe <= slots then all := false;
                  v
                end
                else begin
                  let c = decide x in
                  Sampler.Decisions.store d x c;
                  c
                end
              in
              if got = -1 then minus_one := true;
              if got <> decide x then all := false
            done;
            !all)
          cases
      in
      ok && !minus_one)

let suite =
  [
    Alcotest.test_case "planned path: sampler evals collapse" `Quick
      test_planned_fewer_sampler_evals;
    Alcotest.test_case "planned path: estimator retains no chunk scratch" `Quick
      test_no_retained_scratch;
    Alcotest.test_case "planned path: instances of two shapes share a domain" `Quick
      test_shapes_share_domain;
    Alcotest.test_case "memo: transparent under collisions" `Quick test_memo_transparent;
    Alcotest.test_case "memo: words accounted in breakdown" `Quick
      test_memo_words_in_breakdown;
    Alcotest.test_case "l0_bjkst: branch-free trailing_zeros" `Quick test_trailing_zeros;
    Alcotest.test_case "trivial witness: deterministic and sorted" `Quick
      test_trivial_witness_deterministic;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_planned_equals_per_edge; prop_chunk_plan_tables; prop_decisions_transparent ]
