(* The in-process drive, run in a fresh child process so its heap and
   GC counters hold only what an `mkc` process would hold.

   Untraced, it answers for the same file and seed as the CLI.  Traced,
   it rebuilds the CLI's drive from the library's public functions with
   a clock read around every call into a layer, so wall time and words
   split by layer; the numbers stay in memory until the end.  Phases,
   each on the same loaded stream:
   - main drive: Estimate.create, one Chunk_plan per default chunk, the
     (z, rep) shards fed one by one per chunk, finalize: the work of
     the sequential CLI drive, split into plan and per-instance feed;
   - replicas: the same (z, rep) instances rebuilt from the subroutine
     modules, to split feed and finalize by subroutine;
   - pool drive: the shards through Pipeline.feed_all_parallel on a
     2-domain Pool owned here, for its Pool.stats;
   - windowed drive (windowed workloads only): the CLI's windowed sink;
     its extra cost over the main drive prices epoch rolls. *)

module P = Mkc_core.Params
module E = Mkc_core.Estimate
module W = Mkc_core.Windowed
module SP = Mkc_hashing.Splitmix
module Plan = Mkc_stream.Chunk_plan
module PL = Mkc_stream.Pipeline

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let report_answer ~report ~k e (r : E.result) =
  let witness =
    match r.outcome with
    | Some o when report -> List.filteri (fun i _ -> i < k) (o.Mkc_core.Solution.witness ())
    | _ -> []
  in
  { Cli.estimate = r.estimate; space_words = E.words e + (if report then k else 0); witness }

let windowed_answer w (r : W.result) =
  { Cli.estimate = r.estimate; space_words = W.words w; witness = [] }

(* What the CLI computes, driven as the CLI drives it. *)
let answer ~path ~k ~alpha ~seed ~report ~window =
  let src, m, n = Mkc_stream.Stream_source.load_auto_dims path in
  let p = P.make ~m ~n ~k ~alpha ~seed () in
  match window with
  | Some (window, epoch_edges) ->
      let w = W.create p ~window ~epoch_edges () in
      windowed_answer w (PL.run W.sink w src)
  | None ->
      let e = E.create p in
      report_answer ~report ~k e (PL.run E.sink e src)

(* Words of the breakdown keys with [part] as a dot-separated component. *)
let words_of breakdown part =
  List.fold_left
    (fun acc (key, w) -> if List.mem part (String.split_on_char '.' key) then acc + w else acc)
    0 breakdown

type main_drive = {
  answer : Cli.answer;
  words : int;
  breakdown : (string * int) list;
  totals : (string * int) list;  (** Estimate.stats_totals *)
  ladder : int list;
  create_s : float;
  plan_s : float;
  distinct : int;  (** distinct set and element ids, summed over chunks *)
  inst_s : float array;  (** feed seconds per (z, rep) instance *)
  finalize_s : float;
  minor_words : float;
  major_collections : int;
  heap_words : int;
}

let main_drive params edges windows ~report =
  let gc0 = Gc.quick_stat () in
  let est, create_s = time (fun () -> E.create params) in
  let shards = E.shards est in
  let inst_s = Array.make (Array.length shards) 0.0 in
  let plan = Plan.create () in
  let plan_s = ref 0.0 and distinct = ref 0 in
  Array.iter
    (fun (pos, len) ->
      let (), dt = time (fun () -> Plan.build plan edges ~pos ~len) in
      plan_s := !plan_s +. dt;
      distinct := !distinct + Plan.num_sets plan + Plan.num_elts plan;
      Array.iteri
        (fun i sh ->
          let (), dt = time (fun () -> Mkc_stream.Sink.Any.feed_planned sh plan edges ~pos ~len) in
          inst_s.(i) <- inst_s.(i) +. dt)
        shards)
    windows;
  let result, finalize_s = time (fun () -> E.finalize est) in
  let gc1 = Gc.quick_stat () in
  {
    answer = report_answer ~report ~k:params.P.k est result;
    words = E.words est;
    breakdown = E.words_breakdown est;
    totals = E.stats_totals est;
    ladder = (if shards = [||] then [] else E.guesses est);
    create_s;
    plan_s = !plan_s;
    distinct = !distinct;
    inst_s;
    finalize_s;
    minor_words = gc1.minor_words -. gc0.minor_words;
    major_collections = gc1.major_collections - gc0.major_collections;
    heap_words = gc1.heap_words;
  }

(* One (z, rep) instance rebuilt from its parts.  Mirrors the seed
   forks of Estimate.create (root forked by z*131+rep; child 0 seeds
   the reduction, child 1 the oracle) and Oracle.create (children 1, 2
   and 3 seed LargeCommon, LargeSet and SmallSet; LargeSet gets w = k
   when s·α >= 2k, the heavy regime without SmallSet, else round α
   clamped to [1, k]).  Replica words equal to the estimator's show
   that the mirror still matches the library. *)
type replica = {
  reduction : Mkc_core.Universe_reduction.t;
  lc : Mkc_core.Large_common.t;
  ls : Mkc_core.Large_set.t;
  ss : Mkc_core.Small_set.t option;
  mutable red : int array;
}

let replica params ~z ~rep =
  let sd = SP.fork (SP.create params.P.base_seed) ((z * 131) + rep) in
  let osd = SP.fork sd 1 in
  let p = P.with_universe params z in
  let heavy = P.s_alpha p >= 2.0 *. float_of_int p.P.k in
  let w = if heavy then p.P.k else max 1 (min p.P.k (int_of_float (Float.round p.P.alpha))) in
  {
    reduction = Mkc_core.Universe_reduction.create ~z ~seed:(SP.fork sd 0);
    lc = Mkc_core.Large_common.create p ~seed:(SP.fork osd 1);
    ls = Mkc_core.Large_set.create p ~w ~seed:(SP.fork osd 2);
    ss = (if heavy then None else Some (Mkc_core.Small_set.create p ~seed:(SP.fork osd 3)));
    red = [||];
  }

let replica_words r =
  Mkc_core.Universe_reduction.words r.reduction
  + Mkc_core.Large_common.words r.lc
  + Mkc_core.Large_set.words r.ls
  + Option.fold ~none:0 ~some:Mkc_core.Small_set.words r.ss

(* Feed seconds of reduction, LargeCommon, LargeSet and SmallSet;
   finalize seconds of the three subroutines; total replica words. *)
let replica_drive params ladder edges windows =
  let reps =
    List.concat_map
      (fun z -> List.init params.P.z_repeats (fun rep -> replica params ~z ~rep))
      ladder
  in
  let feed = Array.make 4 0.0 and fin = Array.make 3 0.0 in
  let add a i dt = a.(i) <- a.(i) +. dt in
  let plan = Plan.create () in
  Array.iter
    (fun (pos, len) ->
      Plan.build plan edges ~pos ~len;
      let ne = Plan.num_elts plan in
      List.iter
        (fun r ->
          if Array.length r.red < ne then r.red <- Array.make ne 0;
          let red = r.red in
          let t0 = now () in
          Mkc_core.Universe_reduction.apply_batch r.reduction (Plan.elts plan) ~pos:0 ~len:ne red;
          let t1 = now () in
          Mkc_core.Large_common.feed_planned r.lc plan ~red edges ~pos ~len;
          let t2 = now () in
          Mkc_core.Large_set.feed_planned r.ls plan ~red edges ~pos ~len;
          let t3 = now () in
          Option.iter (fun ss -> Mkc_core.Small_set.feed_planned ss plan ~red edges ~pos ~len) r.ss;
          let t4 = now () in
          add feed 0 (t1 -. t0);
          add feed 1 (t2 -. t1);
          add feed 2 (t3 -. t2);
          add feed 3 (t4 -. t3))
        reps)
    windows;
  List.iter
    (fun r ->
      add fin 0 (snd (time (fun () -> Mkc_core.Large_common.finalize r.lc)));
      add fin 1 (snd (time (fun () -> Mkc_core.Large_set.finalize r.ls)));
      Option.iter
        (fun ss -> add fin 2 (snd (time (fun () -> Mkc_core.Small_set.finalize ss))))
        r.ss)
    reps;
  (feed, fin, List.fold_left (fun acc r -> acc + replica_words r) 0 reps)

(* The CLI's --domains 2 drive, on a pool owned here so its stats are
   readable. *)
let pool_drive params src =
  let est = E.create params in
  PL.Pool.with_pool ~domains:2 (fun pool ->
      PL.feed_all_parallel ~pool ~costs:(E.shard_costs est) (E.shards est) src;
      PL.Pool.stats pool)

type windowed_drive = {
  w_answer : Cli.answer;
  w_total_s : float;
  w_feed_s : float;
  w_query_s : float;
  rolls : int;
  ring_words : int;
}

(* As the CLI drives it: Pipeline.run builds each chunk's plan, and the
   windowed sink re-batches the chunk at epoch boundaries. *)
let windowed_drive params edges windows ~window ~epoch_edges =
  let w, create_s = time (fun () -> W.create params ~window ~epoch_edges ()) in
  let plan = Plan.create () in
  let (), feed_s =
    time (fun () ->
        Array.iter
          (fun (pos, len) ->
            Plan.build plan edges ~pos ~len;
            W.feed_planned w plan edges ~pos ~len)
          windows)
  in
  let r, query_s = time (fun () -> W.finalize w) in
  {
    w_answer = windowed_answer w r;
    w_total_s = create_s +. feed_s +. query_s;
    w_feed_s = feed_s;
    w_query_s = query_s;
    rolls = r.rolled;
    ring_words = words_of (W.words_breakdown w) "ring";
  }

type traced = {
  t_answer : Cli.answer;
  explained_s : float;  (** the layer times that add up to the CLI's wall *)
  metrics : (string * string * float) list;  (** name, unit, value *)
}

let traced ~path ~k ~alpha ~seed ~report ~window =
  let (src, m, n), load_s = time (fun () -> Mkc_stream.Stream_source.load_auto_dims path) in
  let edges = Mkc_stream.Stream_source.backing src in
  let per_edge x = x /. float_of_int (Array.length edges) in
  let windows = Mkc_stream.Stream_source.windows ~chunk:PL.default_chunk src in
  let params = P.make ~m ~n ~k ~alpha ~seed () in
  let d = main_drive params edges windows ~report in
  Gc.full_major ();
  let feed, fin, rep_words = replica_drive params d.ladder edges windows in
  if rep_words <> d.words then
    print_endline
      "warning: replica words differ from the estimator's: per-subroutine rows are stale";
  Gc.full_major ();
  let ps = pool_drive params src in
  Gc.full_major ();
  let wd =
    Option.map
      (fun (window, epoch_edges) -> windowed_drive params edges windows ~window ~epoch_edges)
      window
  in
  let inst_total = Array.fold_left ( +. ) 0.0 d.inst_s in
  let explained =
    load_s
    +.
    match wd with
    | Some wd -> wd.w_total_s
    | None -> d.create_s +. d.plan_s +. inst_total +. d.finalize_s
  in
  let stat key = float_of_int (Option.value ~default:0 (List.assoc_opt key d.totals)) in
  let words part = float_of_int (words_of d.breakdown part) in
  let sum = Array.fold_left ( +. ) 0.0 in
  let wall_ns = float_of_int (max 1 ps.window_wall_ns) in
  let workers = float_of_int (Array.length ps.worker_busy_ns) in
  let sum_ns a = float_of_int (Array.fold_left ( + ) 0 a) in
  let windowed f = Option.fold ~none:0.0 ~some:f wd in
  let metrics =
    [
      ("stream.load.ns_per_edge", "ns/edge", per_edge (load_s *. 1e9));
      ( "stream.load.bytes_per_edge",
        "bytes/edge",
        per_edge (float_of_int (Unix.stat path).st_size) );
      ("stream.chunk_plan.ns_per_edge", "ns/edge", per_edge (d.plan_s *. 1e9));
      ("stream.chunk_plan.distinct_per_edge", "ratio", per_edge (float_of_int d.distinct));
      ( "stream.pool.plan_overlap_frac",
        "fraction",
        ratio (float_of_int ps.plan_overlap_ns) (float_of_int ps.plan_build_ns) );
      ("stream.pool.queue_wait_ns_per_edge", "ns/edge", per_edge (sum_ns ps.worker_wait_ns));
      ( "stream.pool.worker_idle_frac",
        "fraction",
        1.0 -. ratio (sum_ns ps.worker_busy_ns) (workers *. wall_ns) );
      ("stream.pool.coord_busy_frac", "fraction", float_of_int ps.coord_busy_ns /. wall_ns);
      ("core.universe_reduction.ns_per_edge", "ns/edge", per_edge (feed.(0) *. 1e9));
      ("core.large_common.ns_per_edge", "ns/edge", per_edge (feed.(1) *. 1e9));
      ("core.large_set.ns_per_edge", "ns/edge", per_edge (feed.(2) *. 1e9));
      ("core.small_set.ns_per_edge", "ns/edge", per_edge (feed.(3) *. 1e9));
      ("core.large_common.finalize_s", "s", fin.(0));
      ("core.large_set.finalize_s", "s", fin.(1));
      ("core.small_set.finalize_s", "s", fin.(2));
      ("core.estimate.create_s", "s", d.create_s);
      ("core.estimate.feed_ns_per_edge", "ns/edge", per_edge (inst_total *. 1e9));
      ( "core.estimate.instance_skew",
        "ratio",
        ratio
          (Array.fold_left Float.max 0.0 d.inst_s)
          (ratio inst_total (float_of_int (Array.length d.inst_s))) );
      ("core.estimate.finalize_s", "s", d.finalize_s);
      ("core.windowed.rolls", "count", windowed (fun w -> float_of_int w.rolls));
      ( "core.windowed.roll_share",
        "fraction",
        windowed (fun w -> (w.w_feed_s -. d.plan_s -. inst_total) /. w.w_total_s) );
      ("core.windowed.query_share", "fraction", windowed (fun w -> w.w_query_s /. w.w_total_s));
      ( "sketch.large_set.f2_updates_per_edge",
        "updates/edge",
        per_edge (stat "large_set.f2_updates") );
      ( "sketch.large_common.l0_updates_per_edge",
        "updates/edge",
        per_edge (stat "large_common.l0_updates") );
      ("sketch.sampler_evals_per_edge", "evals/edge", per_edge (stat "sampler_evals"));
      ( "sketch.large_common.memo_hit_ratio",
        "ratio",
        ratio (stat "large_common.memo_hits")
          (stat "large_common.memo_hits" +. stat "large_common.sampler_evals") );
      ( "sketch.large_set.hh_recovery_rate",
        "ratio",
        ratio (stat "large_set.hh_recoveries") (stat "large_set.hh_candidates") );
      ("sketch.small_set.pairs_stored", "count", stat "small_set.pairs_stored");
      ("space.universe_reduction.words", "words", words "universe_reduction");
      ("space.large_common.words", "words", words "large_common");
      ("space.large_set.words", "words", words "large_set");
      ("space.small_set.words", "words", words "small_set");
      ("space.ring.words", "words", windowed (fun w -> float_of_int w.ring_words));
      ("gc.minor_words_per_edge", "words/edge", per_edge d.minor_words);
      ("gc.major_collections", "count", float_of_int d.major_collections);
      ("gc.heap_words", "words", float_of_int d.heap_words);
      ("gc.heap_per_logical", "ratio", ratio (float_of_int d.heap_words) (float_of_int d.words));
      ("trace.replica_gap_frac", "fraction", ratio (Float.abs (sum feed -. inst_total)) inst_total);
    ]
  in
  {
    t_answer = Option.fold ~none:d.answer ~some:(fun w -> w.w_answer) wd;
    explained_s = explained;
    metrics;
  }
