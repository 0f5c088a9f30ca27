type repeat_state = {
  elem_sampler : Mkc_sketch.Sampler.Bernoulli.t option; (* None: rate 1 *)
  partition : Superset_partition.t; (* F -> [q] supersets (Claim 4.9) *)
  cntr_small : Mkc_sketch.F2_contributing.t;
  cntr_large : Mkc_sketch.F2_contributing.t;
  fallback_sampler : Mkc_sketch.Sampler.Bernoulli.t;
  fallback : (int, Mkc_sketch.L0_bjkst.t) Hashtbl.t; (* sampled supersets M *)
  fallback_seed : Mkc_hashing.Splitmix.t;
  (* Planned-path accelerators.  All four caches memoise pure,
     seed-determined functions (superset assignment, F2C subsampling
     codes, fallback sampling, element sampling), so a hit returns
     exactly what a recomputation would: sketch state is unchanged by
     construction.  They are scratch — uncounted in [words_breakdown],
     absent from checkpoints (restored runs start cold), and left
     as-is by merges (the memoised functions only depend on seeds,
     which shards share). *)
  sp_memo : Mkc_sketch.Sampler.Decisions.t; (* set id -> superset id *)
  code_small : int array; (* sid -> cntr_small keep code; min_int = unknown *)
  code_large : int array; (* sid -> cntr_large keep code; min_int = unknown *)
  keepf_tab : int array; (* sid -> 0/1 fallback-sampled; -1 = unknown *)
  elem_memo : Mkc_sketch.Sampler.Decisions.t; (* reduced elt -> 0/1 in-sample *)
  (* Deferred CountSketch deltas: the CS halves of both counters are
     linear and commutative, so per-chunk per-superset multiplicities
     accumulate here and are applied once — via {!flush_pending} —
     before any read of counter state (finalize, checkpoint encode,
     merge).  Final counter values are bit-for-bit the eager ones. *)
  cs_pending : int array; (* sid -> pending signed delta; min_int = not listed *)
  cs_touched : int array; (* sids with a pending sum, compact *)
  mutable cs_ntouched : int;
  mutable cs_dirty : bool;
}

type t = {
  params : Params.t;
  w : int;
  q : int; (* number of supersets *)
  rho : float; (* element sampling rate *)
  thr1 : float;
  thr2 : float;
  repeats : repeat_state array;
  mutable st_elem_sampler_evals : int;
  mutable st_fallback_sampler_evals : int;
  mutable st_f2_updates : int;
  mutable st_l0_updates : int;
  mutable st_hh_recoveries : int; (* set at finalize *)
  mutable st_hh_candidates : int; (* set at finalize *)
}

let create (params : Params.t) ~w ~seed =
  if w < 1 then invalid_arg "Large_set.create: w must be >= 1";
  let p = params in
  let q = max 2 (Mkc_hashing.Hash_family.ceil_div p.Params.m w) in
  let sa = Params.s_alpha p in
  let rho = min 1.0 (p.t_elem *. sa *. p.eta /. float_of_int p.u) in
  let l_size = rho *. float_of_int p.u in
  let thr1 = l_size /. (18.0 *. p.eta *. sa) in
  let thr2 = l_size /. (6.0 *. p.eta *. p.alpha) in
  let r1 = max 2 (int_of_float (ceil (3.0 *. sa))) in
  let r2 = max 2 (q / 4) in
  let gamma1 = min 1.0 (p.alpha *. p.alpha /. float_of_int p.m) in
  let gamma2 = 1.0 /. (2.0 *. max 1.0 (Float.log2 p.alpha)) in
  (* Figure 6 samples ~ q·log(m)/r2 supersets for the oversized-class
     fallback; with r2 = q/4 that is a constant-size pool. *)
  let fallback_rate = min 1.0 (8.0 *. float_of_int (q / r2) /. float_of_int q) in
  let mk_repeat r =
    let sd = Mkc_hashing.Splitmix.fork seed r in
    let cntr_small =
      Mkc_sketch.F2_contributing.create ~gamma:gamma1 ~r:r1 ~indep:p.indep
        ~seed:(Mkc_hashing.Splitmix.fork sd 2) ()
    in
    let cntr_large =
      Mkc_sketch.F2_contributing.create ~gamma:gamma2 ~r:r2 ~indep:p.indep
        ~seed:(Mkc_hashing.Splitmix.fork sd 3) ()
    in
    {
      elem_sampler =
        (if rho >= 1.0 then None
         else
           Some
             (Mkc_sketch.Sampler.Bernoulli.create ~rate:rho ~indep:p.indep
                ~seed:(Mkc_hashing.Splitmix.fork sd 0)));
      partition =
        Superset_partition.create ~m:p.Params.m ~q ~indep:p.indep
          ~seed:(Mkc_hashing.Splitmix.fork sd 1);
      cntr_small;
      cntr_large;
      fallback_sampler =
        Mkc_sketch.Sampler.Bernoulli.create ~rate:fallback_rate ~indep:p.indep
          ~seed:(Mkc_hashing.Splitmix.fork sd 4);
      fallback = Hashtbl.create 16;
      fallback_seed = Mkc_hashing.Splitmix.fork sd 5;
      sp_memo =
        Mkc_sketch.Sampler.Decisions.create ~universe:p.Params.m ~slots:65536 ~width:`Int;
      code_small = Array.make q min_int;
      code_large = Array.make q min_int;
      keepf_tab = Array.make q (-1);
      (* ρ = 1 keeps every element: nothing to memoise. *)
      elem_memo =
        Mkc_sketch.Sampler.Decisions.create
          ~universe:(if rho >= 1.0 then 0 else p.Params.u)
          ~slots:65536 ~width:`Byte;
      cs_pending = Array.make q min_int;
      cs_touched = Array.make q 0;
      cs_ntouched = 0;
      cs_dirty = false;
    }
  in
  (* With ρ = 1 the element sample is the whole universe, so the
     O(log n) repeats of Figure 7 (whose sole purpose is to dodge
     common elements in at least one sample, App. B Step 1) buy much
     less — halve them on the hot small-universe instances. *)
  let repeats = if rho >= 1.0 then max 1 (p.oracle_repeats / 2) else p.oracle_repeats in
  {
    params;
    w;
    q;
    rho;
    thr1;
    thr2;
    repeats = Array.init repeats mk_repeat;
    st_elem_sampler_evals = 0;
    st_fallback_sampler_evals = 0;
    st_f2_updates = 0;
    st_l0_updates = 0;
    st_hh_recoveries = 0;
    st_hh_candidates = 0;
  }

let in_sample t rs e =
  match rs.elem_sampler with
  | None -> true
  | Some s ->
      t.st_elem_sampler_evals <- t.st_elem_sampler_evals + 1;
      Mkc_sketch.Sampler.Bernoulli.keep s e

(* The fallback table in sid order: its fold order is layout order,
   which differs between a live run and a restored or merged one. *)
let sorted_fallback rs =
  Hashtbl.fold (fun sid sk acc -> (sid, sk) :: acc) rs.fallback []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The fallback L0 sketch of a sampled superset, made on first touch. *)
let fallback_sketch rs sid =
  (* [find] + Not_found, not [find_opt]: the hit path is per-edge hot
     and must not allocate a [Some]. *)
  match Hashtbl.find rs.fallback sid with
  | sk -> sk
  | exception Not_found ->
      let sk =
        Mkc_sketch.L0_bjkst.create ~seed:(Mkc_hashing.Splitmix.fork rs.fallback_seed sid) ()
      in
      Hashtbl.replace rs.fallback sid sk;
      sk

let feed_repeat t rs (e : Mkc_stream.Edge.t) =
  if in_sample t rs e.elt then begin
    let sid = Superset_partition.superset_of rs.partition e.set in
    (* The F2 counters are pointwise-linear: a deletion is just a −1
       update, and the signed sums downstream (CS rows, tracked counts)
       land exactly where an insertion-free stream would have left
       them.  The fallback L0 is the set sketch — insertion-only — so
       deletions bypass it; its estimate over a churned superset is an
       upper bound on the live count (DESIGN.md, turnstile section). *)
    Mkc_sketch.F2_contributing.add rs.cntr_small sid e.sign;
    Mkc_sketch.F2_contributing.add rs.cntr_large sid e.sign;
    t.st_f2_updates <- t.st_f2_updates + 2;
    t.st_fallback_sampler_evals <- t.st_fallback_sampler_evals + 1;
    if Mkc_sketch.Sampler.Bernoulli.keep rs.fallback_sampler sid && e.sign > 0 then begin
      t.st_l0_updates <- t.st_l0_updates + 1;
      Mkc_sketch.L0_bjkst.add (fallback_sketch rs sid) e.elt
    end
  end

let feed t e = Array.iter (fun rs -> feed_repeat t rs e) t.repeats

(* Cached F2C subsampling codes, filled on first sighting of a superset
   id.  [decide] is a pure function of the counter's seed, so the cache
   never goes stale. *)
let code_small_of rs sid =
  let c = Array.unsafe_get rs.code_small sid in
  if c <> min_int then c
  else begin
    let c = Mkc_sketch.F2_contributing.decide rs.cntr_small sid in
    Array.unsafe_set rs.code_small sid c;
    c
  end

let code_large_of rs sid =
  let c = Array.unsafe_get rs.code_large sid in
  if c <> min_int then c
  else begin
    let c = Mkc_sketch.F2_contributing.decide rs.cntr_large sid in
    Array.unsafe_set rs.code_large sid c;
    c
  end

(* Flush-size distribution: how many touched sids each deferred
   CountSketch flush applies.  Large flushes mean the deferral is
   batching well; a wall of size-1 flushes means reads are interleaving
   with feeding. *)
module Obs = struct
  let flush_size =
    Mkc_obs.Registry.histogram Mkc_obs.Registry.global "large_set.flush_size"
end

(* Apply the deferred CountSketch deltas.  Must run before any read of
   counter values — candidate recovery, checkpoint encode, merge — and
   is a no-op on clean repeats (the common per-edge-mode case).  A
   CountSketch row is a fixed [depth × width] block, so pending deltas
   move no [words] term and no stat. *)
let flush_pending rs =
  if rs.cs_dirty then begin
    rs.cs_dirty <- false;
    Mkc_obs.Registry.record Obs.flush_size rs.cs_ntouched;
    let pend = rs.cs_pending and touched = rs.cs_touched in
    for i = 0 to rs.cs_ntouched - 1 do
      let sid = Array.unsafe_get touched i in
      let c = Array.unsafe_get pend sid in
      Array.unsafe_set pend sid min_int;
      if c <> 0 then begin
        Mkc_sketch.F2_contributing.add_cs_decided rs.cntr_small ~code:(code_small_of rs sid)
          sid c;
        Mkc_sketch.F2_contributing.add_cs_decided rs.cntr_large ~code:(code_large_of rs sid)
          sid c
      end
    done;
    rs.cs_ntouched <- 0
  end

(* The chunk's in-sample edges in stream order, in the domain's
   {!Feed_scratch}: [esid]/[esg] hold each edge's superset id and sign,
   recorded by the replay pass.  A counter's per-edge levels walk
   [wsid]/[wsg], which the first of them fills from [esid]/[esg] and
   each compacts in place to the entries the next level still covers,
   so a chunk costs the sum of the level sizes, not levels × chunk
   length.

   One per-edge level: replay the [n] listed edges of [src_sid]/[src_sg]
   that level [top] covers into [hh], in order, and copy those the next
   level covers ([code < top]) to the front of [wsid]/[wsg] (in place
   when the source is the work list itself).  Returns how many were
   kept. *)
let replay_level hh ~wsid ~wsg ~code_tab ~top src_sid src_sg n =
  let kept = ref 0 in
  for e = 0 to n - 1 do
    let sid = Array.unsafe_get src_sid e in
    let code = Array.unsafe_get code_tab sid in
    if code >= 0 && code <= top then begin
      let sign = Array.unsafe_get src_sg e in
      Mkc_sketch.F2_heavy_hitter.add_tracked hh sid sign;
      if code < top then begin
        Array.unsafe_set wsid !kept sid;
        Array.unsafe_set wsg !kept sign;
        incr kept
      end
    end
  done;
  !kept

(* The tracked half of one counter for one chunk, tracker-major: the
   full-rate levels' shared tracker (at [first_tracked], which covers
   every kept sid), then one level per tracker.  Trackers share no
   state, so regrouping per tracker is exact as long as each sees its
   update subsequence in order.  Each tracker decides from its own
   table.  A prune fires only when an insert takes the table past
   2·cap entries, and the chunk inserts at most one entry per covered
   superset the table does not hold (an entry that cancels to zero
   frees its slot before it re-enters).  So when those fit in
   [2·cap − tracked], an in-order replay prunes nothing and leaves each
   superset's signed running sum, and one [add_tracked] of its chunk
   total does the same (a zero total applies nothing, as
   insert-then-remove-at-zero leaves nothing).  Otherwise the tracker
   replays the chunk's in-sample edges it covers one by one.  The
   per-edge levels walk the [n] listed edges, shrinking the list as the
   levels narrow. *)
let tracked_chunk cntr ~code_tab ~active ~na ~sid_cnt ~esid ~esg ~wsid ~wsg ~n =
  let module F = Mkc_sketch.F2_contributing in
  let module H = Mkc_sketch.F2_heavy_hitter in
  let levels = F.levels cntr in
  (* The next per-edge level's list: the replay pass's until a level
     has compacted it into the work list. *)
  let src_sid = ref esid and src_sg = ref esg and n = ref n in
  for lvl = F.first_tracked cntr to levels - 1 do
    let hh = F.level cntr lvl in
    let top = levels - 1 - lvl in
    (* covered at lvl ⟺ 0 <= code <= top *)
    let room = (2 * H.cap hh) - H.tracked hh in
    let newly = ref 0 and a = ref 0 in
    while !newly <= room && !a < na do
      let sid = Array.unsafe_get active !a in
      let code = Array.unsafe_get code_tab sid in
      if code >= 0 && code <= top && not (H.mem hh sid) then incr newly;
      incr a
    done;
    if !newly <= room then
      for a = 0 to na - 1 do
        let sid = Array.unsafe_get active a in
        let code = Array.unsafe_get code_tab sid in
        let c = Array.unsafe_get sid_cnt sid in
        if code >= 0 && code <= top && c <> 0 then H.add_tracked hh sid c
      done
    else begin
      n := replay_level hh ~wsid ~wsg ~code_tab ~top !src_sid !src_sg !n;
      src_sid := wsid;
      src_sg := wsg
    end
  done

let feed_planned t plan ~red edges ~pos ~len =
  (* Chunk-deduplicated path.  Per repeat: every hash decision — element
     sample membership, superset assignment, both F2C subsampling codes,
     fallback superset sampling — is served from the repeat's memo
     caches, falling back to one hash evaluation per distinct id on a
     miss; then the chunk is replayed in original edge order through
     O(1) table lookups.  The order-sensitive halves end bit-for-bit in
     the per-edge states: fallback L0 adds in the replay pass itself,
     F2C candidate tracking (with its prune) tracker by tracker in
     {!tracked_chunk}, as chunk totals when no prune can fire and
     otherwise over the in-sample edges the replay pass lists in the
     domain's {!Feed_scratch}.  The
     CountSketch halves are linear and commutative, so each distinct
     set's in-sample multiplicity is parked in [cs_pending] and applied
     by {!flush_pending} before the counters are next read.

     Eval counters deliberately charge the full [ne]/[ns] per chunk —
     the decision *consumptions*, not the hash evaluations a cache
     happened to absorb — so their values are independent of cache
     warmth and replay exactly across crash-resume without the caches
     being checkpointed. *)
  let ns = Mkc_stream.Chunk_plan.num_sets plan in
  let ne = Mkc_stream.Chunk_plan.num_elts plan in
  let ins = Feed_scratch.(flags Elt_flags) ne and keepf = Feed_scratch.(flags Set_flags) ns in
  let sids = Feed_scratch.(ints Codes) ns in
  let sid_cnt = Feed_scratch.(ints Sid_sums) t.q and active = Feed_scratch.(ints Sid_list) t.q in
  let esid = Feed_scratch.(ints Edge_sid) len and esg = Feed_scratch.(ints Edge_sign) len in
  let wsid = Feed_scratch.(ints Work_sid) len and wsg = Feed_scratch.(ints Work_sign) len in
  let sets = Mkc_stream.Chunk_plan.sets plan in
  let set_idx = Mkc_stream.Chunk_plan.set_index plan in
  let elt_idx = Mkc_stream.Chunk_plan.elt_index plan in
  Array.iter
    (fun rs ->
      (match rs.elem_sampler with
      | None -> Array.fill ins 0 ne true
      | Some s ->
          t.st_elem_sampler_evals <- t.st_elem_sampler_evals + ne;
          let memo = rs.elem_memo in
          for j = 0 to ne - 1 do
            let x = Array.unsafe_get red j in
            let v = Mkc_sketch.Sampler.Decisions.find memo x in
            if v >= 0 then Array.unsafe_set ins j (v = 1)
            else begin
              let b = Mkc_sketch.Sampler.Bernoulli.keep s x in
              Mkc_sketch.Sampler.Decisions.store memo x (if b then 1 else 0);
              Array.unsafe_set ins j b
            end
          done);
      t.st_fallback_sampler_evals <- t.st_fallback_sampler_evals + ns;
      for j = 0 to ns - 1 do
        let set = Array.unsafe_get sets j in
        let sid =
          let v = Mkc_sketch.Sampler.Decisions.find rs.sp_memo set in
          if v >= 0 then v
          else begin
            let sid = Superset_partition.superset_of rs.partition set in
            Mkc_sketch.Sampler.Decisions.store rs.sp_memo set sid;
            sid
          end
        in
        Array.unsafe_set sids j sid;
        (* Fill both counters' code caches: the tracked halves read
           them by superset id. *)
        ignore (code_small_of rs sid : int);
        ignore (code_large_of rs sid : int);
        let kf =
          let v = Array.unsafe_get rs.keepf_tab sid in
          if v >= 0 then v = 1
          else begin
            let b = Mkc_sketch.Sampler.Bernoulli.keep rs.fallback_sampler sid in
            Array.unsafe_set rs.keepf_tab sid (if b then 1 else 0);
            b
          end
        in
        Array.unsafe_set keepf j kf
      done;
      (* Replay pass: order-sensitive L0 fallback adds happen here, per
         edge; per-sid in-sample multiplicities are collected for the
         deferred CountSketch half and the tracked halves' chunk
         totals, and the in-sample edges are listed for the tracked
         halves' per-edge levels. *)
      let in_sample_edges = ref 0 in
      let na = ref 0 in
      for i = 0 to len - 1 do
        if Array.unsafe_get ins (Array.unsafe_get elt_idx i) then begin
          let sj = Array.unsafe_get set_idx i in
          let sid = Array.unsafe_get sids sj in
          let sign = (Array.unsafe_get edges (pos + i)).Mkc_stream.Edge.sign in
          Array.unsafe_set esid !in_sample_edges sid;
          Array.unsafe_set esg !in_sample_edges sign;
          incr in_sample_edges;
          let c = Array.unsafe_get sid_cnt sid in
          if c = min_int then begin
            Array.unsafe_set active !na sid;
            incr na;
            Array.unsafe_set sid_cnt sid sign
          end
          else Array.unsafe_set sid_cnt sid (c + sign);
          if Array.unsafe_get keepf sj && sign > 0 then begin
            t.st_l0_updates <- t.st_l0_updates + 1;
            Mkc_sketch.L0_bjkst.add (fallback_sketch rs sid)
              (Array.unsafe_get red (Array.unsafe_get elt_idx i))
          end
        end
      done;
      t.st_f2_updates <- t.st_f2_updates + (2 * !in_sample_edges);
      if !in_sample_edges > 0 then begin
        let na = !na and n = !in_sample_edges in
        rs.cs_dirty <- true;
        let pend = rs.cs_pending and touched = rs.cs_touched in
        for a = 0 to na - 1 do
          let sid = Array.unsafe_get active a in
          let p = Array.unsafe_get pend sid in
          let c = Array.unsafe_get sid_cnt sid in
          if p = min_int then begin
            Array.unsafe_set touched rs.cs_ntouched sid;
            rs.cs_ntouched <- rs.cs_ntouched + 1;
            Array.unsafe_set pend sid c
          end
          else Array.unsafe_set pend sid (p + c)
        done;
        tracked_chunk rs.cntr_small ~code_tab:rs.code_small ~active ~na ~sid_cnt ~esid ~esg
          ~wsid ~wsg ~n;
        tracked_chunk rs.cntr_large ~code_tab:rs.code_large ~active ~na ~sid_cnt ~esid ~esg
          ~wsid ~wsg ~n;
        for a = 0 to na - 1 do
          Array.unsafe_set sid_cnt (Array.unsafe_get active a) min_int
        done
      end)
    t.repeats

let thresholds t = (t.thr1, t.thr2)

(* A passing candidate, before cross-repeat max. *)
type candidate = { superset : int; repeat : int; est : float; via_l0 : bool }

(* The passing candidates of one repeat and how many were examined:
   every tracked candidate of both counters plus every fallback
   sketch. *)
let candidates_of_repeat t r rs =
  flush_pending rs;
  let f = t.params.Params.f in
  let of_hits threshold hits =
    List.filter_map
      (fun (h : Mkc_sketch.F2_contributing.hit) ->
        if h.freq >= threshold /. 2.0 then
          Some { superset = h.id; repeat = r; est = 2.0 *. h.freq /. (3.0 *. f); via_l0 = false }
        else None)
      hits
  in
  let small = Mkc_sketch.F2_contributing.candidates rs.cntr_small in
  let large = Mkc_sketch.F2_contributing.candidates rs.cntr_large in
  let fallback =
    Hashtbl.fold
      (fun sid sk acc ->
        let v = Mkc_sketch.L0_bjkst.estimate sk in
        if v >= t.thr2 /. 2.0 then
          (* Coverage sketch: no duplication discount needed. *)
          { superset = sid; repeat = r; est = 2.0 *. v /. 3.0; via_l0 = true } :: acc
        else acc)
      rs.fallback []
    (* Canonical order: the fold above walks the table in layout order,
       which differs between a live run and a restored/merged one. *)
    |> List.sort (fun a b -> compare a.superset b.superset)
  in
  ( List.length small + List.length large + Hashtbl.length rs.fallback,
    of_hits t.thr1 small @ of_hits t.thr2 large @ fallback )

let witness t (c : candidate) () =
  let rs = t.repeats.(c.repeat) in
  Superset_partition.members ~limit:t.params.Params.k rs.partition c.superset

(* Total order: estimate descending, then (repeat, superset, via_l0)
   — the winner must not depend on candidate-list construction
   order. *)
let before a b =
  if a.est <> b.est then a.est > b.est
  else compare (a.repeat, a.superset, a.via_l0) (b.repeat, b.superset, b.via_l0) < 0

let finalize t =
  (* Recovery success rate = recoveries / candidates: how many of the
     tracked heavy-hitter candidates (plus fallback sketches) actually
     cleared their threshold.  The winner is the first passing
     candidate under [before], taken in one scan. *)
  let examined = ref 0 and recovered = ref 0 and best = ref None in
  Array.iteri
    (fun r rs ->
      let n, passing = candidates_of_repeat t r rs in
      examined := !examined + n;
      List.iter
        (fun c ->
          incr recovered;
          match !best with Some b when not (before c b) -> () | _ -> best := Some c)
        passing)
    t.repeats;
  t.st_hh_candidates <- !examined;
  t.st_hh_recoveries <- !recovered;
  Option.map
    (fun best ->
      {
        Solution.estimate = best.est /. t.rho;
        witness = witness t best;
        provenance =
          Solution.Large_set
            { superset = best.superset; repeat = best.repeat; via_l0_fallback = best.via_l0 };
      })
    !best

(* Pending deltas from any earlier feeding must not survive into a
   thawed state: the packed counters are always flushed. *)
let clear_pending rs =
  Array.fill rs.cs_pending 0 (Array.length rs.cs_pending) min_int;
  rs.cs_ntouched <- 0;
  rs.cs_dirty <- false

(* The trackers trimmed the way candidate recovery leaves them.  A
   settle counts as a prune, so only a state that is final (a rolled
   epoch) settles; a checkpoint does not. *)
let settle t =
  Array.iter
    (fun rs ->
      flush_pending rs;
      Mkc_sketch.F2_contributing.settle rs.cntr_small;
      Mkc_sketch.F2_contributing.settle rs.cntr_large)
    t.repeats

(* Packed per repeat: both counters (flushed), then the fallback table
   in sid order, sids as gaps. *)
let freeze w t =
  let module Pk = Mkc_sketch.Packed in
  Array.iter
    (fun rs ->
      flush_pending rs;
      Pk.put_f2c w rs.cntr_small;
      Pk.put_f2c w rs.cntr_large;
      Pk.put_ids w fst (fun w (_, sk) -> Pk.put_l0 w sk) (sorted_fallback rs))
    t.repeats

let thaw r t =
  let module Pk = Mkc_sketch.Packed in
  Array.iter
    (fun rs ->
      clear_pending rs;
      Pk.get_f2c r ~ids:t.q rs.cntr_small;
      Pk.get_f2c r ~ids:t.q rs.cntr_large;
      Hashtbl.reset rs.fallback;
      ignore (Pk.get_ids r ~bound:t.q (fun r sid -> Pk.get_l0 r (fallback_sketch rs sid)) : unit list))
    t.repeats;
  t.st_elem_sampler_evals <- 0;
  t.st_fallback_sampler_evals <- 0;
  t.st_f2_updates <- 0;
  t.st_l0_updates <- 0;
  t.st_hh_recoveries <- 0;
  t.st_hh_candidates <- 0

let freeze_work w t =
  List.iter (Mkc_sketch.Packed.put w)
    [ t.st_elem_sampler_evals; t.st_fallback_sampler_evals; t.st_f2_updates; t.st_l0_updates ]

let thaw_work r t =
  t.st_elem_sampler_evals <- Mkc_sketch.Packed.get r;
  t.st_fallback_sampler_evals <- Mkc_sketch.Packed.get r;
  t.st_f2_updates <- Mkc_sketch.Packed.get r;
  t.st_l0_updates <- Mkc_sketch.Packed.get r

let merge_into ~dst src =
  Array.iteri
    (fun r (srs : repeat_state) ->
      let drs = dst.repeats.(r) in
      flush_pending srs;
      flush_pending drs;
      Mkc_sketch.F2_contributing.merge_into ~dst:drs.cntr_small srs.cntr_small;
      Mkc_sketch.F2_contributing.merge_into ~dst:drs.cntr_large srs.cntr_large;
      (* Fallback sketches are per-superset L0s with sid-derived seeds:
         identical seeds on both sides, so they union exactly.  Walk in
         sorted sid order to keep the destination layout canonical. *)
      sorted_fallback srs
      |> List.iter (fun (sid, sk) ->
             Mkc_sketch.L0_bjkst.merge_into ~dst:(fallback_sketch drs sid) sk))
    src.repeats;
  dst.st_elem_sampler_evals <- dst.st_elem_sampler_evals + src.st_elem_sampler_evals;
  dst.st_fallback_sampler_evals <-
    dst.st_fallback_sampler_evals + src.st_fallback_sampler_evals;
  dst.st_f2_updates <- dst.st_f2_updates + src.st_f2_updates;
  dst.st_l0_updates <- dst.st_l0_updates + src.st_l0_updates

(* A pure read: the tracked halves are applied chunk by chunk, and the
   CountSketch deltas still parked in [cs_pending] move no [words]
   term. *)
let words_breakdown t =
  let sampler = ref 0 and partition = ref 0 and f2 = ref 0 and l0 = ref 0 in
  Array.iter
    (fun rs ->
      sampler :=
        !sampler
        + (match rs.elem_sampler with None -> 0 | Some s -> Mkc_sketch.Sampler.Bernoulli.words s)
        + Mkc_sketch.Sampler.Bernoulli.words rs.fallback_sampler;
      partition := !partition + Superset_partition.words rs.partition;
      f2 :=
        !f2
        + Mkc_sketch.F2_contributing.words rs.cntr_small
        + Mkc_sketch.F2_contributing.words rs.cntr_large;
      l0 := !l0 + Hashtbl.fold (fun _ sk acc -> acc + Mkc_sketch.L0_bjkst.words sk) rs.fallback 0)
    t.repeats;
  [
    ("sampler", !sampler);
    ("partition", !partition);
    ("f2_contributing", !f2);
    ("l0_fallback", !l0);
  ]

let words t = List.fold_left (fun acc (_, w) -> acc + w) 0 (words_breakdown t)

(* A pure read, like [words_breakdown]: [f2_tracked]/[f2_prunes] are
   current at every chunk boundary. *)
let stats t =
  [
    ("elem_sampler_evals", t.st_elem_sampler_evals);
    ("fallback_sampler_evals", t.st_fallback_sampler_evals);
    ("f2_updates", t.st_f2_updates);
    ("l0_updates", t.st_l0_updates);
    ("hh_recoveries", t.st_hh_recoveries);
    ("hh_candidates", t.st_hh_candidates);
    ( "f2_prunes",
      Array.fold_left
        (fun acc rs ->
          acc
          + Mkc_sketch.F2_contributing.prunes rs.cntr_small
          + Mkc_sketch.F2_contributing.prunes rs.cntr_large)
        0 t.repeats );
    ( "f2_tracked",
      Array.fold_left
        (fun acc rs ->
          acc
          + Mkc_sketch.F2_contributing.tracked rs.cntr_small
          + Mkc_sketch.F2_contributing.tracked rs.cntr_large)
        0 t.repeats );
  ]
