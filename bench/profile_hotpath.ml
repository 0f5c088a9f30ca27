(* Hot-path profiler: per-subroutine cost breakdown of the oracle
   ingestion pipeline.  Drives the whole stream through the planned
   path the pipeline uses — one Chunk_plan per Pipeline.default_chunk
   edges, then per (z, rep) instance the universe reduction and the
   three subroutines' feed_planned — with a clock and a minor-heap
   counter around each call (same params, same instance mix as
   Estimate.create).  It reports ns/edge plus minor-heap words/edge per
   component, so hashing vs update vs GC costs are attributable — the
   flat-memory engine's "zero words per edge" promise is a line item
   here, not a guess.  A pool section drives the
   persistent domain-pool executor over the same edges and reports the
   pipelining attribution (plan-build overlap ns/edge, per-worker
   queue-wait, idle fractions) from Pool.stats.

   [run] profiles the BENCH_pipeline workload and writes
   PROFILE_hotpath.json; [run_smoke] is the CI-sized variant (same
   breakdown, a few seconds of wall clock) behind
   PROFILE_hotpath_smoke.json — CI uploads it as an artifact so a
   hot-path regression is visible as a diff of two small JSON files. *)

module P = Mkc_core.Params

let pr fmt = Format.printf fmt

type row = { name : string; seconds : float; ns_per_edge : float; words_per_edge : float }

let add_row rows name ~edges dt alloc =
  let r =
    {
      name;
      seconds = dt;
      ns_per_edge = dt *. 1e9 /. float_of_int edges;
      words_per_edge = alloc /. float_of_int edges;
    }
  in
  pr "  %-34s %7.3fs  %8.1f ns/edge  %6.1f words/edge@." name dt r.ns_per_edge
    r.words_per_edge;
  rows := r :: !rows

(* Seconds and minor-heap words of [f ()]. *)
let measure f =
  let a0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0, Gc.minor_words () -. a0)

let time_alloc rows name ~edges f =
  let dt, alloc = measure f in
  add_row rows name ~edges dt alloc

let write_json path ~label ~edges ~instances ?pool_json rows =
  let oc = open_out path in
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"label\": %S,\n  \"edges\": %d,\n  \"instances\": %d,\n" label
       edges instances);
  Buffer.add_string b "  \"subroutines\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": %S, \"seconds\": %.6f, \"ns_per_edge\": %.2f, \
            \"words_per_edge\": %.3f }%s\n"
           r.name r.seconds r.ns_per_edge r.words_per_edge
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n";
  (match pool_json with
  | Some pj -> Buffer.add_string b (Printf.sprintf "  \"pool\": %s\n" pj)
  | None -> Buffer.add_string b "  \"pool\": null\n");
  Buffer.add_string b "}\n";
  output_string oc (Buffer.contents b);
  close_out oc;
  pr "wrote %s@." path

let run_with ~label ~json_out ~n ~m ~k ~set_size ~alpha ~seed () =
  Exp_util.header (Printf.sprintf "%s: per-subroutine hot-path breakdown" label);
  let sys = Mkc_workload.Random_inst.uniform ~n ~m ~set_size ~seed in
  let src = Mkc_stream.Stream_source.of_system ~seed:(seed + 1) sys in
  let edges = Mkc_stream.Stream_source.backing src in
  let nedges = Array.length edges in
  let params = P.make ~m ~n ~k ~alpha ~seed () in
  pr "%d edges, indep=%d@." nedges params.P.indep;
  let root = Mkc_hashing.Splitmix.create params.P.base_seed in
  let zs =
    Mkc_core.Estimate.guesses (Mkc_core.Estimate.create params)
    |> List.concat_map (fun z -> [ (z, 0); (z, 1) ])
  in
  let instances = List.length zs in
  pr "%d instances@." instances;
  let rows = ref [] in
  let time_alloc = time_alloc rows in
  (* One instance rebuilt from its parts, seeded as Estimate.create and
     Oracle.create seed them. *)
  let instance (z, rep) =
    let sd = Mkc_hashing.Splitmix.fork root ((z * 131) + rep) in
    let osd = Mkc_hashing.Splitmix.fork sd 1 in
    let p = P.with_universe params z in
    let heavy = P.s_alpha p >= 2.0 *. float_of_int p.P.k in
    let w = if heavy then p.P.k else max 1 (min p.P.k (int_of_float (Float.round p.P.alpha))) in
    ( Mkc_core.Universe_reduction.create ~z ~seed:(Mkc_hashing.Splitmix.fork sd 0),
      Mkc_core.Large_common.create p ~seed:(Mkc_hashing.Splitmix.fork osd 1),
      Mkc_core.Large_set.create p ~w ~seed:(Mkc_hashing.Splitmix.fork osd 2),
      Mkc_core.Small_set.create p ~seed:(Mkc_hashing.Splitmix.fork osd 3) )
  in
  let insts = List.map instance zs in
  (* The planned drive, chunk-outer as the pipeline runs it: each
     component's time and words accumulate over every chunk. *)
  let windows =
    Mkc_stream.Stream_source.windows ~chunk:Mkc_stream.Pipeline.default_chunk src
  in
  let secs = Array.make 5 0.0 and words = Array.make 5 0.0 in
  let timed i f =
    let dt, alloc = measure f in
    secs.(i) <- secs.(i) +. dt;
    words.(i) <- words.(i) +. alloc
  in
  let plan = Mkc_stream.Chunk_plan.create () in
  let red = ref [||] in
  Array.iter
    (fun (pos, len) ->
      timed 0 (fun () -> Mkc_stream.Chunk_plan.build plan edges ~pos ~len);
      let ne = Mkc_stream.Chunk_plan.num_elts plan in
      if Array.length !red < ne then red := Array.make ne 0;
      let red = !red in
      List.iter
        (fun (r, lc, ls, ss) ->
          timed 1 (fun () ->
              Mkc_core.Universe_reduction.apply_batch r
                (Mkc_stream.Chunk_plan.elts plan)
                ~pos:0 ~len:ne red);
          timed 2 (fun () -> Mkc_core.Large_common.feed_planned lc plan ~red edges ~pos ~len);
          timed 3 (fun () -> Mkc_core.Large_set.feed_planned ls plan ~red edges ~pos ~len);
          timed 4 (fun () -> Mkc_core.Small_set.feed_planned ss plan ~red edges ~pos ~len))
        insts)
    windows;
  List.iteri
    (fun i name -> add_row rows name ~edges:nedges secs.(i) words.(i))
    [
      Printf.sprintf "plan build (%d chunks)" (Array.length windows);
      Printf.sprintf "reduction planned (%d inst)" instances;
      Printf.sprintf "large_common planned (%d inst)" instances;
      Printf.sprintf "large_set planned (%d inst)" instances;
      Printf.sprintf "small_set planned (%d inst)" instances;
    ];
  (* pool path: the persistent-executor drive of a full Estimate over
     the same edges, attributed from Pool.stats — how much plan-build
     work the coordinator hid behind worker replay, how long tickets
     sat in the mailboxes, and what fraction of the window wall each
     worker spent idle.  On a single-core host the idle fractions
     measure time-sharing, not queue design; read them next to
     [domains_recommended]. *)
  let module PL = Mkc_stream.Pipeline in
  let pool_recommended = Domain.recommended_domain_count () in
  let pool_domains = max 2 (min 4 pool_recommended) in
  let e_pool = Mkc_core.Estimate.create params in
  let pool = PL.Pool.create ~domains:pool_domains () in
  (* ~8 coordinator windows, so plan-build genuinely overlaps worker
     replay instead of degenerating to one window = no pipeline *)
  let pool_chunk = max 1024 (nedges / (8 * pool_domains)) in
  time_alloc
    (Printf.sprintf "pool parallel (%d dom)" pool_domains)
    ~edges:nedges
    (fun () ->
      PL.feed_all_parallel ~pool ~chunk:pool_chunk
        ~costs:(Mkc_core.Estimate.shard_costs e_pool)
        (Mkc_core.Estimate.shards e_pool) src);
  let ps = PL.Pool.stats pool in
  PL.Pool.shutdown pool;
  let fe = float_of_int nedges in
  let plan_build_npe = float_of_int ps.PL.Pool.plan_build_ns /. fe in
  let plan_overlap_npe = float_of_int ps.PL.Pool.plan_overlap_ns /. fe in
  let overlap_frac =
    if ps.PL.Pool.plan_build_ns = 0 then 0.0
    else
      float_of_int ps.PL.Pool.plan_overlap_ns
      /. float_of_int ps.PL.Pool.plan_build_ns
  in
  let wall = float_of_int (max 1 ps.PL.Pool.window_wall_ns) in
  let idle_frac busy = Float.max 0.0 (1.0 -. (float_of_int busy /. wall)) in
  pr "  pool: %d windows, plan build %.1f ns/edge (%.1f ns/edge overlapped, %.0f%%)@."
    ps.PL.Pool.windows plan_build_npe plan_overlap_npe (100.0 *. overlap_frac);
  Array.iteri
    (fun i busy ->
      pr "  pool worker %d: queue-wait %.1f ns/edge, idle %.0f%%@." (i + 1)
        (float_of_int ps.PL.Pool.worker_wait_ns.(i) /. fe)
        (100.0 *. idle_frac busy))
    ps.PL.Pool.worker_busy_ns;
  let pool_json =
    let wb = Buffer.create 256 in
    Buffer.add_string wb
      (Printf.sprintf
         "{ \"domains\": %d, \"domains_recommended\": %d, \"windows\": %d,\n\
         \    \"plan_build_ns_per_edge\": %.2f, \"plan_overlap_ns_per_edge\": %.2f, \
          \"plan_overlap_fraction\": %.4f,\n\
         \    \"coord_busy_ns\": %d, \"window_wall_ns\": %d, \"rebalances\": %d,\n\
         \    \"workers\": ["
         pool_domains pool_recommended ps.PL.Pool.windows plan_build_npe
         plan_overlap_npe overlap_frac ps.PL.Pool.coord_busy_ns
         ps.PL.Pool.window_wall_ns ps.PL.Pool.rebalances);
    Array.iteri
      (fun i busy ->
        Buffer.add_string wb
          (Printf.sprintf
             "%s\n      { \"worker\": %d, \"busy_ns\": %d, \"queue_wait_ns\": %d, \
              \"queue_wait_ns_per_edge\": %.2f, \"idle_fraction\": %.4f }"
             (if i = 0 then "" else ",")
             (i + 1) busy
             ps.PL.Pool.worker_wait_ns.(i)
             (float_of_int ps.PL.Pool.worker_wait_ns.(i) /. fe)
             (idle_frac busy)))
      ps.PL.Pool.worker_busy_ns;
    Buffer.add_string wb "\n    ] }";
    Buffer.contents wb
  in
  (* micro: primitive throughputs over 1e6 ops *)
  let ops = 1_000_000 in
  let xs = Array.init ops (fun i -> (i * 2654435761) land 0xFFFFFF) in
  let ph =
    Mkc_hashing.Poly_hash.create ~indep:8 ~range:1024
      ~seed:(Mkc_hashing.Splitmix.create 1)
  in
  let acc = ref 0 in
  time_alloc "poly_hash d=8 (1e6)" ~edges:ops (fun () ->
      for i = 0 to ops - 1 do
        acc := !acc + Mkc_hashing.Poly_hash.hash ph xs.(i)
      done);
  let tab = Mkc_hashing.Tabulation.create ~seed:(Mkc_hashing.Splitmix.create 2) in
  time_alloc "tabulation hash64 (1e6)" ~edges:ops (fun () ->
      for i = 0 to ops - 1 do
        acc := !acc + Int64.to_int (Mkc_hashing.Tabulation.hash64 tab xs.(i))
      done);
  let l0 = Mkc_sketch.L0_bjkst.create ~seed:(Mkc_hashing.Splitmix.create 3) () in
  time_alloc "l0 add (1e6)" ~edges:ops (fun () ->
      for i = 0 to ops - 1 do
        Mkc_sketch.L0_bjkst.add l0 xs.(i)
      done);
  let cs =
    Mkc_sketch.Count_sketch.create ~width:64 ~seed:(Mkc_hashing.Splitmix.create 4) ()
  in
  (* Only the per-edge (unplanned) path pays this per update: planned
     LargeSet parks CountSketch deltas per superset and applies them
     once per distinct superset at flush. *)
  time_alloc "count_sketch add unplanned (1e6)" ~edges:ops (fun () ->
      for i = 0 to ops - 1 do
        Mkc_sketch.Count_sketch.add cs xs.(i) 1
      done);
  (* What planned LargeSet does pay per edge: the F2-HeavyHitter
     candidate tracker's exact-count replay and top-cap prunes, in the
     shape of uniform-bin's Cntr_large (phi = 1/12, cap 48, updates
     spread over q = 512 supersets, so the table prunes without end). *)
  let hh =
    Mkc_sketch.F2_heavy_hitter.create ~phi:(1.0 /. 12.0) ~seed:(Mkc_hashing.Splitmix.create 5) ()
  in
  time_alloc "f2_hh tracked churn (1e6)" ~edges:ops (fun () ->
      for i = 0 to ops - 1 do
        Mkc_sketch.F2_heavy_hitter.add_tracked hh (xs.(i) land 511) 1
      done);
  pr "  f2_hh tracker: cap %d, %d prunes@." (Mkc_sketch.F2_heavy_hitter.cap hh)
    (Mkc_sketch.F2_heavy_hitter.prunes hh);
  ignore !acc;
  write_json json_out ~label ~edges:nedges ~instances ~pool_json (List.rev !rows);
  pr "@."

let run () =
  run_with ~label:"profile" ~json_out:"PROFILE_hotpath.json" ~n:65536 ~m:4096 ~k:32
    ~set_size:256 ~alpha:8.0 ~seed:11 ()

(* CI-sized smoke run: the same breakdown on a workload small enough
   for the bench-smoke job, so per-subroutine ns/edge and words/edge
   land in the uploaded artifact on every push. *)
let run_smoke () =
  run_with ~label:"profile-smoke" ~json_out:"PROFILE_hotpath_smoke.json" ~n:4096
    ~m:512 ~k:16 ~set_size:64 ~alpha:8.0 ~seed:11 ()
