let default_chunk = 65536

(* Pipeline-level instruments (global registry).  All writes are gated
   on [Registry.enabled], so the disabled path costs one load+branch per
   chunk.  [sink_feed_edges] counts edge×sink feed work, which is the
   quantity preserved between the sequential and domain-parallel
   drivers (every driver makes exactly one chunking pass over the
   stream on the same chunk grid; the parallel one fans the sinks out
   per chunk). *)
module Obs = struct
  let r = Mkc_obs.Registry.global
  let chunks = Mkc_obs.Registry.counter r "pipeline.chunks"
  let edges = Mkc_obs.Registry.counter r "pipeline.edges"
  let sink_feed_edges = Mkc_obs.Registry.counter r "pipeline.sink_feed_edges"
  let domain_busy_ns = Mkc_obs.Registry.gauge ~mode:`Sum r "pipeline.domain_busy_ns"
  let domains_used = Mkc_obs.Registry.gauge ~mode:`Max r "pipeline.domains"

  (* Pool-executor instruments (the overlap gauge is set by the
     coordinator per window).  All on the global registry, so they
     surface in snapshots, durable telemetry and [mkc top] without
     extra plumbing. *)
  let pool_plan_overlap_ns =
    Mkc_obs.Registry.gauge ~mode:`Sum r "pipeline.pool.plan_overlap_ns"

  (* Distribution tracks: per-chunk feed latency, per-window plan-build
     latency, and per-job queue wait each land in a log-linear
     histogram.  These replace the old scalar-sum gauges of the same
     names — a histogram's [sum] is the scalar the telemetry probes
     keep reading, and its buckets feed the run ledger's digests. *)
  let chunk_feed_ns = Mkc_obs.Registry.histogram r "pipeline.chunk_feed_ns"
  let pool_plan_build_ns = Mkc_obs.Registry.histogram r "pipeline.pool.plan_build_ns"
  let pool_queue_wait_ns = Mkc_obs.Registry.histogram r "pipeline.pool.queue_wait_ns"
end

let run_seq (type s r) ((module M) : (s, r) Sink.sink) (sink : s) src =
  Stream_source.iter (M.feed sink) src;
  M.finalize sink

let chunk_instrumented ~nsinks ~len ~cum f =
  let reg = Mkc_obs.Registry.enabled () and tr = Mkc_obs.Trace.enabled () in
  if reg || tr then begin
    let t0 = Mkc_obs.Clock.now_ns () in
    f ();
    let t1 = Mkc_obs.Clock.now_ns () in
    let dur = t1 - t0 in
    Mkc_obs.Span.record "pipeline.chunk" ~start_ns:t0 ~dur_ns:dur;
    if reg then begin
      Mkc_obs.Registry.incr Obs.chunks;
      Mkc_obs.Registry.add Obs.edges len;
      Mkc_obs.Registry.add Obs.sink_feed_edges (len * nsinks);
      Mkc_obs.Registry.record Obs.chunk_feed_ns dur
    end;
    if tr then begin
      (* Counter tracks for the timeline: cumulative edges ingested
         (per driver call, via [cum]) and this chunk's throughput. *)
      cum := !cum + len;
      Mkc_obs.Trace.counter "pipeline.edges" ~at_ns:t1 !cum;
      if dur > 0 then
        Mkc_obs.Trace.counter "pipeline.edges_per_sec" ~at_ns:t1
          (int_of_float (float_of_int len *. 1e9 /. float_of_int dur))
    end
  end
  else f ()

(* {1 Persistent worker-domain pool}

   The parallel executor.  Domains are spawned ONCE per pool (not per
   chunk window, as the pre-pool driver did) and fed through per-worker
   single-slot mailboxes: the coordinator publishes a job under the
   worker's mutex, the worker runs it and flips the mailbox back to
   [Idle].  A job is a closure, so a chunk window (replay the slot's
   sinks against the shared read-only plan) and an index task (claim
   indices from a shared counter) take the same mailbox path.  All
   cross-domain publication — the plan contents, the edge slice
   bounds, the worker timings and failures flowing back — rides the
   mailbox mutex acquire/release pairs, which is the entirety of the
   memory-model argument: a worker never reads a plan except through a
   [dispatch] that happened-after the coordinator built it, and the
   coordinator never reads worker stats (or sink state) except through
   an [await] that happened-after the worker wrote them. *)

module Pool = struct
  type job = { run : unit -> unit; dispatch_ns : int }
  type msg = Idle | Work of job | Quit

  type worker = {
    mu : Mutex.t;
    cv : Condition.t;  (* coordinator -> worker: mailbox refilled *)
    done_cv : Condition.t;  (* worker -> coordinator: back to Idle *)
    mutable msg : msg;
    (* Cumulative over the pool's lifetime.  Written by the worker
       domain, read by the coordinator only after an [await]. *)
    mutable busy_ns : int;
    mutable wait_ns : int;  (* dispatch -> pick-up queue latency *)
    (* The last job's exception, taken by the coordinator after the
       barrier. *)
    mutable failed : (exn * Printexc.raw_backtrace) option;
  }

  type t = {
    slots : int;  (* worker count + 1 coordinator slot *)
    workers : worker array;  (* length slots - 1 *)
    handles : unit Domain.t array;
    mutable shut : bool;
    (* Coordinator-owned drive statistics, accumulated across drives. *)
    mutable windows : int;
    mutable plan_build_ns : int;
    mutable plan_overlap_ns : int;
    mutable window_wall_ns : int;
    mutable coord_busy_ns : int;
  }

  type stats = {
    domains : int;
    windows : int;
    plan_build_ns : int;
    plan_overlap_ns : int;
    window_wall_ns : int;
    coord_busy_ns : int;
    worker_busy_ns : int array;
    worker_wait_ns : int array;
  }

  (* A job that raises leaves its exception in [failed] and the worker
     goes back to [Idle] like any other: a dead worker would leave its
     mailbox at [Work] and the coordinator's [await] blocked forever. *)
  let worker_loop (w : worker) =
    let rec next () =
      Mutex.lock w.mu;
      let rec recv () =
        match w.msg with
        | Idle ->
            Condition.wait w.cv w.mu;
            recv ()
        | Work k -> Some k
        | Quit -> None
      in
      let job = recv () in
      Mutex.unlock w.mu;
      match job with
      | None -> ()
      | Some k ->
          let t0 = Mkc_obs.Clock.now_ns () in
          let wait = max 0 (t0 - k.dispatch_ns) in
          w.wait_ns <- w.wait_ns + wait;
          Mkc_obs.Registry.record Obs.pool_queue_wait_ns wait;
          (try k.run () with e -> w.failed <- Some (e, Printexc.get_raw_backtrace ()));
          w.busy_ns <- w.busy_ns + (Mkc_obs.Clock.now_ns () - t0);
          Mutex.lock w.mu;
          w.msg <- Idle;
          Condition.signal w.done_cv;
          Mutex.unlock w.mu;
          next ()
    in
    next ()

  let create ?domains () =
    let slots =
      match domains with
      | Some d -> max 1 d
      | None -> max 1 (Domain.recommended_domain_count ())
    in
    let workers =
      Array.init (slots - 1) (fun _ ->
          {
            mu = Mutex.create ();
            cv = Condition.create ();
            done_cv = Condition.create ();
            msg = Idle;
            busy_ns = 0;
            wait_ns = 0;
            failed = None;
          })
    in
    let handles = Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers in
    {
      slots;
      workers;
      handles;
      shut = false;
      windows = 0;
      plan_build_ns = 0;
      plan_overlap_ns = 0;
      window_wall_ns = 0;
      coord_busy_ns = 0;
    }

  let size t = t.slots

  let dispatch (w : worker) k =
    Mutex.lock w.mu;
    w.msg <- Work k;
    Condition.signal w.cv;
    Mutex.unlock w.mu

  let await (w : worker) =
    Mutex.lock w.mu;
    let rec wait () =
      match w.msg with
      | Idle | Quit -> ()
      | Work _ ->
          Condition.wait w.done_cv w.mu;
          wait ()
    in
    wait ();
    Mutex.unlock w.mu

  (* One barriered round: [job s] on every slot [s], slot 0 on the
     calling domain and slot [i + 1] on [workers.(i)].  It returns once
     every worker is back to [Idle], and then re-raises the first
     exception in slot order, the coordinator's first; the others are
     dropped, so no failure outlives its round. *)
  let round workers job =
    let dispatch_ns = Mkc_obs.Clock.now_ns () in
    Array.iteri (fun i w -> dispatch w { run = (fun () -> job (i + 1)); dispatch_ns }) workers;
    let first = ref None in
    (try job 0 with e -> first := Some (e, Printexc.get_raw_backtrace ()));
    Array.iter
      (fun w ->
        await w;
        if Option.is_none !first then first := w.failed;
        w.failed <- None)
      workers;
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !first

  (* Slot [s] starts at index [s], so every slot gets work when
     [n >= slots]; after that each takes the next unclaimed index from
     one counter, so a slow index holds up only its own slot. *)
  let parallel_for t n f =
    let slots = max 1 (min t.slots n) in
    let next = Atomic.make slots in
    let rec claim i =
      if i < n then begin
        f i;
        claim (Atomic.fetch_and_add next 1)
      end
    in
    round (Array.sub t.workers 0 (slots - 1)) claim

  let shutdown t =
    if not t.shut then begin
      t.shut <- true;
      Array.iter await t.workers;
      Array.iter
        (fun w ->
          Mutex.lock w.mu;
          w.msg <- Quit;
          Condition.signal w.cv;
          Mutex.unlock w.mu)
        t.workers;
      Array.iter Domain.join t.handles
    end

  let with_pool ?domains f =
    let t = create ?domains () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

  (* Call at quiescence (between drives / after a drive): worker fields
     were published by the final [await] of the last window. *)
  let stats t =
    {
      domains = t.slots;
      windows = t.windows;
      plan_build_ns = t.plan_build_ns;
      plan_overlap_ns = t.plan_overlap_ns;
      window_wall_ns = t.window_wall_ns;
      coord_busy_ns = t.coord_busy_ns;
      worker_busy_ns = Array.map (fun w -> w.busy_ns) t.workers;
      worker_wait_ns = Array.map (fun w -> w.wait_ns) t.workers;
    }
end

(* Longest-processing-time bin packing: shards sorted by descending
   cost, each placed on the least-loaded slot.  Slot 0 (the
   coordinator) starts pre-loaded with [coord_bias] — the plan-build
   work it will do while the workers feed — so the packing naturally
   gives the coordinator a lighter sink group.  Ties break on index, so
   the assignment is a pure function of (slots, bias, costs). *)
let lpt ~slots ~coord_bias costs =
  let nc = Array.length costs in
  let order = Array.init nc Fun.id in
  Array.sort
    (fun a b ->
      let c = compare costs.(b) costs.(a) in
      if c <> 0 then c else compare a b)
    order;
  let load = Array.make slots 0.0 in
  load.(0) <- coord_bias;
  let buckets = Array.make slots [] in
  Array.iter
    (fun i ->
      let best = ref 0 in
      for s = 1 to slots - 1 do
        if load.(s) < load.(!best) then best := s
      done;
      load.(!best) <- load.(!best) +. costs.(i);
      buckets.(!best) <- i :: buckets.(!best))
    order;
  (* Feed order within a slot is ascending sink index — immaterial for
     results (sinks are independent) but keeps replay order stable. *)
  Array.map (fun b -> Array.of_list (List.sort compare b)) buckets

(* Fraction of the per-window work that is plan building — mkcbench's
   stream.chunk_plan.ns_per_edge against the core.*.ns_per_edge layers
   (~180 of ~9700 ns/edge on the planted shape when it was set): the
   coordinator's bias in the packing. *)
let plan_fraction = 0.02

(* The slots a drive gets: [pool] capped by [domains], else a transient
   pool of [domains] slots (default [Domain.recommended_domain_count
   ()]) — never more slots than sinks.  One slot means no pool at all:
   the drive runs on the calling domain. *)
let with_slots ?pool ?domains nsinks f =
  match pool with
  | Some p ->
      let cap = Option.value domains ~default:(Pool.size p) in
      let slots = max 1 (min (min (Pool.size p) cap) nsinks) in
      f (if slots > 1 then Some p else None) slots
  | None ->
      let d = Option.value domains ~default:(Domain.recommended_domain_count ()) in
      let d = min d nsinks in
      if d <= 1 then f None 1 else Pool.with_pool ~domains:d (fun p -> f (Some p) d)

(* The chunk loop.  The stream is cut into windows of [chunk] edges at
   any slot count; every sink sees every window, in order, so final
   states, work counters and the checkpoint grid never depend on the
   slot count.

   One slot builds each window's plan in place into a single scratch
   plan, then feeds every sink on the calling domain.

   With a pool, each window W is one [Pool.round]: the coordinator
   dispatches W's jobs to the workers, builds window W+1's plan into
   the other half of a double-buffered pair (overlapping the workers'
   replay), feeds its own sink group, then awaits the workers.  Windows are barriered, so
   every sink sees the full stream in order no matter which domain runs
   it — the bit-for-bit-vs-[run_seq] invariant.

   [on_window] runs between windows, while every worker is quiescent. *)
let loop ~pool ~slots ?costs ~chunk ?epoch ~start ~on_window sinks src =
  let nsinks = Array.length sinks in
  let costs =
    match costs with
    | None -> Array.make nsinks 1.0
    | Some c ->
        if Array.length c <> nsinks then
          invalid_arg "Pipeline: costs length must equal the sink count";
        Array.map (fun x -> Float.max x 1e-9) c
  in
  let wins = Stream_source.windows ~chunk ?epoch ~start src in
  let nwin = Array.length wins in
  if nwin > 0 then begin
    let edges = Stream_source.backing src in
    (* A pool double-buffers the plan; each grows to one chunk's needs. *)
    let plans =
      match pool with
      | Some _ when nwin > 1 -> [| Chunk_plan.create (); Chunk_plan.create () |]
      | _ -> [| Chunk_plan.create () |]
    in
    let coord_bias = plan_fraction *. Array.fold_left ( +. ) 0.0 costs in
    let assign = lpt ~slots ~coord_bias costs in
    let plan_build_ns = ref 0 in
    let plan_overlap_ns = ref 0 in
    let coord_busy_ns = ref 0 in
    (* A [domains] cap below the pool size leaves the excess workers
       without jobs for this drive. *)
    let workers =
      match pool with None -> [||] | Some p -> Array.sub p.Pool.workers 0 (slots - 1)
    in
    let busy0 = Array.map (fun (w : Pool.worker) -> w.Pool.busy_ns) workers in
    let wait0 = Array.map (fun (w : Pool.worker) -> w.Pool.wait_ns) workers in
    let cum = ref 0 in
    let parity = ref 0 in
    let build_timed plan (pos, len) =
      let t0 = Mkc_obs.Clock.now_ns () in
      Chunk_plan.build plan edges ~pos ~len;
      let d = Mkc_obs.Clock.now_ns () - t0 in
      plan_build_ns := !plan_build_ns + d;
      Mkc_obs.Registry.record Obs.pool_plan_build_ns d;
      d
    in
    (* With a pool, window 0's plan is the only one built on the
       critical path; every later build overlaps the previous window's
       replay. *)
    if pool <> None then ignore (build_timed plans.(0) wins.(0));
    let loop_t0 = Mkc_obs.Clock.now_ns () in
    for w = 0 to nwin - 1 do
      let pos, len = wins.(w) in
      let plan = plans.(!parity) in
      chunk_instrumented ~nsinks ~len ~cum (fun () ->
          match pool with
          | None ->
              Chunk_plan.build plan edges ~pos ~len;
              Array.iter (fun s -> Sink.Any.feed_planned s plan edges ~pos ~len) sinks
          | Some _ ->
              Pool.round workers (fun slot ->
                  if slot = 0 && w + 1 < nwin then
                    plan_overlap_ns :=
                      !plan_overlap_ns + build_timed plans.(1 - !parity) wins.(w + 1);
                  let t0 = Mkc_obs.Clock.now_ns () in
                  Array.iter
                    (fun i -> Sink.Any.feed_planned sinks.(i) plan edges ~pos ~len)
                    assign.(slot);
                  let d = Mkc_obs.Clock.now_ns () - t0 in
                  Mkc_obs.Span.record "pipeline.domain" ~start_ns:t0 ~dur_ns:d;
                  if slot = 0 then coord_busy_ns := !coord_busy_ns + d));
      if pool <> None then begin
        (* Publish the cumulative pool signals once per window — between
           windows the workers are quiescent (the [await] above is the
           happens-before edge), so the sums are exact, and telemetry
           samples firing in [on_window] read live values instead of
           zeros. *)
        (if Mkc_obs.Registry.enabled () then begin
           let worker_busy = ref 0 and worker_wait = ref 0 in
           Array.iteri
             (fun i (wk : Pool.worker) ->
               worker_busy := !worker_busy + (wk.Pool.busy_ns - busy0.(i));
               worker_wait := !worker_wait + (wk.Pool.wait_ns - wait0.(i)))
             workers;
           Mkc_obs.Registry.set Obs.domain_busy_ns
             (float_of_int (!coord_busy_ns + !worker_busy));
           Mkc_obs.Registry.set Obs.domains_used (float_of_int slots);
           Mkc_obs.Registry.set Obs.pool_plan_overlap_ns (float_of_int !plan_overlap_ns);
           if Mkc_obs.Trace.enabled () then
             Mkc_obs.Trace.counter "pipeline.pool.queue_wait_ns"
               ~at_ns:(Mkc_obs.Clock.now_ns ()) !worker_wait
         end);
        parity := 1 - !parity
      end;
      on_window ~pos ~len ~window:w
    done;
    let window_wall_ns = Mkc_obs.Clock.now_ns () - loop_t0 in
    match pool with
    | None -> ()
    | Some p ->
        p.Pool.windows <- p.Pool.windows + nwin;
        p.Pool.plan_build_ns <- p.Pool.plan_build_ns + !plan_build_ns;
        p.Pool.plan_overlap_ns <- p.Pool.plan_overlap_ns + !plan_overlap_ns;
        p.Pool.window_wall_ns <- p.Pool.window_wall_ns + window_wall_ns;
        p.Pool.coord_busy_ns <- p.Pool.coord_busy_ns + !coord_busy_ns
  end

let default_checkpoint_every = 8

type 's checkpoint = {
  codec : 's Checkpoint.codec;
  every : int;
  save : string option;
  resume : string option;
}

(* Saves land on window boundaries (the [chunk] grid), where every
   worker is quiescent, so [codec.encode state] reads fully-published
   sink state.  A restore overlays the typed state in place, so sinks
   derived from it before the restore drive the restored state, and a
   resumed run re-windows the suffix on the same grid (same [chunk], at
   any slot count), so results, [words] and every work counter match
   the uninterrupted run's bit for bit. *)
let drive (type s) ?pool ?domains ?costs ?(chunk = default_chunk) ?epoch ?(start = 0)
    ?(checkpoint : (s checkpoint * s) option) ?on_save ?on_window sinks src =
  let ( let* ) = Result.bind in
  let n = Stream_source.length src in
  let* start =
    match checkpoint with
    | Some ({ resume = Some path; codec; _ }, state) ->
        let* env = Checkpoint.load ~expect_kind:codec.kind ~expect_seed:codec.seed ~path () in
        let* () =
          Result.map_error
            (fun msg -> Checkpoint.Payload_rejected msg)
            (codec.restore state env.Checkpoint.payload)
        in
        if env.Checkpoint.pos > n then
          Error
            (Checkpoint.Malformed
               (Printf.sprintf "resume position %d beyond stream length %d" env.pos n))
        else Ok env.pos
    | _ -> Ok start
  in
  let save_at pos =
    match checkpoint with
    | Some ({ save = Some path; codec; _ }, state) ->
        let env =
          { Checkpoint.kind = codec.kind; pos; seed = codec.seed; payload = codec.encode state }
        in
        let* bytes = Checkpoint.save ~path env in
        Option.iter (fun f -> f ~bytes) on_save;
        Ok ()
    | _ -> Ok ()
  in
  let every = match checkpoint with Some (c, _) -> c.every | None -> max_int in
  if every < 1 then invalid_arg "Pipeline.drive: checkpoint every must be >= 1";
  let failure = ref None in
  let on_window ~pos ~len ~window =
    Option.iter (fun f -> f ~pos ~len) on_window;
    let next = pos + len in
    if !failure = None && next < n && (window + 1) mod every = 0 then
      match save_at next with Ok () -> () | Error e -> failure := Some e
  in
  with_slots ?pool ?domains (Array.length sinks) (fun pool slots ->
      loop ~pool ~slots ?costs ~chunk ?epoch ~start ~on_window sinks src);
  let* () = match !failure with None -> Ok () | Some e -> Error e in
  (* A final checkpoint at end-of-stream: the shard-merge workflow
     merges exactly these. *)
  save_at n

let feed_all_parallel ?pool ?domains ?costs ?chunk ?start sinks src =
  Result.get_ok (drive ?pool ?domains ?costs ?chunk ?start sinks src)

let run ?chunk (type s r) ((module M) as m : (s, r) Sink.sink) (sink : s) src =
  feed_all_parallel ~domains:1 ?chunk [| Sink.pack m sink |] src;
  M.finalize sink
