(* One z-guess × repeat instance: an independently driveable sink, the
   unit the parallel pipeline schedules and the estimator feeds.
   Instances share no mutable state; the plan they read is the
   driver's, built once per window. *)
type inst = {
  z : int;
  rep : int;
  span_name : string; (* "estimate.z<z>.rep<rep>", precomputed off the hot path *)
  reduction : Universe_reduction.t;
  oracle : Oracle.t;
}

type body =
  | Trivial of { estimate : float; witness : unit -> int list }
  | Run of { insts : inst array }

(* Per-instance finalize verdict: (z, rep, winning-subroutine key or
   "none", passed the z-acceptance test). *)
type final = { fz : int; frep : int; fwinner : string; faccepted : bool }

type t = {
  params : Params.t;
  body : body;
  mutable finals : final list; (* populated by [finalize], newest wins *)
}

type result = { estimate : float; outcome : Solution.outcome option; z_guess : int }

let guess_ladder (p : Params.t) =
  let top = Mkc_hashing.Hash_family.ceil_log2 p.n in
  let bottom = min top 2 in
  let rec go z acc = if z > top then List.rev acc else go (z + p.z_stride) ((1 lsl z) :: acc) in
  let ladder = go bottom [] in
  (* Always include the top guess so OPT ≈ n is never missed. *)
  if List.mem (1 lsl top) ladder then ladder else ladder @ [ 1 lsl top ]

let trivial (p : Params.t) = float_of_int p.k *. p.alpha >= float_of_int p.m

let trivial_witness (p : Params.t) () =
  (* k distinct pseudo-random set ids; by set sampling, a random
     k-subset carries a ≥ k/m ≥ 1/α coverage fraction in expectation.
     Sorted: Hashtbl.fold order is implementation-defined, and the
     witness must be deterministic across OCaml versions/runs. *)
  let rng = Mkc_hashing.Splitmix.create (p.base_seed lxor 0x7777) in
  let seen = Hashtbl.create p.k in
  while Hashtbl.length seen < p.k do
    Hashtbl.replace seen (Mkc_hashing.Splitmix.below rng p.m) ()
  done;
  List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) seen [])

(* Instance (z, rep) as [create] builds it: its seeds are forked from
   the params' base seed alone, so any instance can be rebuilt on its
   own. *)
let make_inst (p : Params.t) ~z ~rep =
  let sd = Mkc_hashing.Splitmix.fork (Mkc_hashing.Splitmix.create p.base_seed) ((z * 131) + rep) in
  {
    z;
    rep;
    span_name = Printf.sprintf "estimate.z%d.rep%d" z rep;
    reduction = Universe_reduction.create ~z ~seed:(Mkc_hashing.Splitmix.fork sd 0);
    oracle = Oracle.create (Params.with_universe p z) ~seed:(Mkc_hashing.Splitmix.fork sd 1);
  }

let create (p : Params.t) =
  let body =
    if trivial p then
      Trivial
        { estimate = float_of_int p.n /. p.alpha; witness = trivial_witness p }
    else
      Run
        {
          insts =
            guess_ladder p
            |> List.concat_map (fun z -> List.init p.z_repeats (fun rep -> make_inst p ~z ~rep))
            |> Array.of_list;
        }
  in
  { params = p; body; finals = [] }

let feed_inst i e = Oracle.feed i.oracle (Universe_reduction.apply_edge i.reduction e)

(* Reduce only the chunk's DISTINCT elements (one coefficient-major hash
   pass) into the domain's {!Feed_scratch.Red} buffer; the oracle then
   decides per distinct id and replays the chunk.  One timed span per
   instance per chunk makes the Figure 1 fan-out visible as parallel
   rows on the trace timeline. *)
let feed_planned_inst i plan edges ~pos ~len =
  let obs = Mkc_obs.Registry.enabled () || Mkc_obs.Trace.enabled () in
  let t0 = if obs then Mkc_obs.Clock.now_ns () else 0 in
  let ne = Mkc_stream.Chunk_plan.num_elts plan in
  let red = Feed_scratch.(ints Red) ne in
  Universe_reduction.apply_batch i.reduction (Mkc_stream.Chunk_plan.elts plan) ~pos:0 ~len:ne red;
  Oracle.feed_planned i.oracle plan ~red edges ~pos ~len;
  if obs then Mkc_obs.Span.record i.span_name ~start_ns:t0 ~dur_ns:(Mkc_obs.Clock.now_ns () - t0)

let insts t = match t.body with Trivial _ -> [||] | Run { insts } -> insts
let iter_insts t f = Array.iter f (insts t)

(* The instances one after another over the shared plan: they are
   mutually independent, so the final state is exactly the edge-by-edge
   one. *)
let feed t e = iter_insts t (fun i -> feed_inst i e)
let feed_planned t plan edges ~pos ~len = iter_insts t (fun i -> feed_planned_inst i plan edges ~pos ~len)

let finalize_inst i =
  let obs = Mkc_obs.Registry.enabled () || Mkc_obs.Trace.enabled () in
  let t0 = if obs then Mkc_obs.Clock.now_ns () else 0 in
  let o = Oracle.finalize i.oracle in
  if obs then
    Mkc_obs.Span.record "estimate.finalize_inst" ~start_ns:t0 ~dur_ns:(Mkc_obs.Clock.now_ns () - t0);
  o

(* Theorem 3.6's selection: the largest accepted estimate, in ladder
   order, over outcomes the instances produced on their own.  It runs
   on the calling domain, in the same order whoever finalized the
   instances, so nothing it picks can depend on a pool. *)
let select t outs =
  match t.body with
  | Trivial { estimate; witness } ->
      t.finals <- [ { fz = 0; frep = 0; fwinner = "trivial"; faccepted = true } ];
      {
        estimate;
        outcome = Some { Solution.estimate; witness; provenance = Solution.Trivial };
        z_guess = 0;
      }
  | Run { insts } ->
      if Array.length outs <> Array.length insts then
        invalid_arg "Estimate.select: one outcome per instance";
      let p = t.params in
      let accepted = ref None and fallback = ref None in
      let finals = ref [] in
      let consider slot (cand : result) =
        match !slot with
        | Some (best : result) when best.estimate >= cand.estimate -> ()
        | _ -> slot := Some cand
      in
      Array.iteri
        (fun i inst ->
          match outs.(i) with
          | None ->
              finals :=
                { fz = inst.z; frep = inst.rep; fwinner = "none"; faccepted = false } :: !finals
          | Some o ->
              let cand = { estimate = o.Solution.estimate; outcome = Some o; z_guess = inst.z } in
              let threshold = float_of_int inst.z /. (p.accept_factor *. p.alpha) in
              let ok = o.Solution.estimate >= threshold in
              finals :=
                {
                  fz = inst.z;
                  frep = inst.rep;
                  fwinner = Solution.provenance_key o.Solution.provenance;
                  faccepted = ok;
                }
                :: !finals;
              if ok then consider accepted cand else consider fallback cand)
        insts;
      t.finals <- List.rev !finals;
      (match (!accepted, !fallback) with
      | Some r, _ -> r
      | None, Some r -> r
      | None, None -> { estimate = 0.0; outcome = None; z_guess = 0 })

(* The per-instance [Oracle.finalize] calls are independent, so with a
   pool they run on its slots, each writing its own slot of [outs]. *)
let finalize ?pool t =
  let insts = insts t in
  let n = Array.length insts in
  let outs = Array.make n None in
  let fin i = outs.(i) <- finalize_inst insts.(i) in
  (match pool with
  | Some pool -> Mkc_stream.Pipeline.Pool.parallel_for pool n fin
  | None -> for i = 0 to n - 1 do fin i done);
  select t outs

let guesses t = guess_ladder t.params

let words_inst i = Universe_reduction.words i.reduction + Oracle.words i.oracle

let words_breakdown_inst i =
  ("universe_reduction", Universe_reduction.words i.reduction) :: Oracle.words_breakdown i.oracle

let words t =
  match t.body with
  | Trivial _ -> t.params.k
  | Run { insts } -> Array.fold_left (fun acc i -> acc + words_inst i) 0 insts

let words_breakdown t =
  match t.body with
  | Trivial _ -> [ ("trivial_witness", t.params.k) ]
  | Run { insts } ->
      Mkc_stream.Sink.canonical_breakdown (List.concat_map words_breakdown_inst (Array.to_list insts))

let stats t =
  match t.body with
  | Trivial _ -> []
  | Run { insts } ->
      Array.to_list insts
      |> List.map (fun inst -> ((inst.z, inst.rep), Oracle.stats inst.oracle))

(* Sum the per-instance oracle stats into one canonical table — the
   sketch-health totals both [record_metrics] and the telemetry probes
   read. *)
let stats_totals t =
  let totals = Hashtbl.create 32 in
  List.iter
    (fun ((_ : int * int), stats) ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace totals k (v + Option.value ~default:0 (Hashtbl.find_opt totals k)))
        stats)
    (stats t);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])

let winners t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun f ->
      Hashtbl.replace tbl f.fwinner
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f.fwinner)))
    t.finals;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* The Õ(m/α²) space bound of Theorems 3.1/3.3 with its constants made
   explicit: each of the |ladder|·z_repeats oracle instances is allowed
   [c_mass · m/α² + c_floor] words per log²(mn) polylog factor.  The
   two-term shape matters: the mass term is the theorem's m/α² sketch
   load, while the floor covers per-instance state that does not scale
   with m/α² (L0 sketches, the keep-level memo, CountSketch rows).  The
   constants are fitted to the peaks of the strict runs (the CLI
   golden, CI's observed and crash-resume shapes, pipeline-smoke) and
   of uniform-bin at α = 2..32, which per instance and log²(mn) lie
   between 38 words at m/α² = 4 and 1,481 at m/α² = 1,024: every one
   peaks at 0.5–0.8 of its budget — tight enough that a 1.3× space
   regression trips the watchdog on some shape, loose enough that
   healthy runs never do.  This is one estimator's budget: a windowed
   run holds a ring of frozen epochs besides it, and [mkc] gives each
   held epoch a budget of its own. *)
let budget_mass = 2.5
let budget_floor = 64.0

let instances (p : Params.t) = float_of_int (List.length (guess_ladder p) * p.z_repeats)

(* In floats, so params too large for an int word count still compare. *)
let budget_words (p : Params.t) =
  if trivial p then (* witness ids only *) 4.0 *. float_of_int p.k
  else begin
    let lmn = Params.log2f (p.m * max 1 p.n) in
    let m_over_a2 = float_of_int p.m /. (p.alpha *. p.alpha) in
    instances p *. ((budget_mass *. m_over_a2) +. budget_floor) *. lmn *. lmn
  end

let word_budget p = int_of_float (ceil (budget_words p))

let record_metrics ?(registry = Mkc_obs.Registry.global) t =
  (* Publish per-(guess, repeat) oracle work counters.  Totals go under
     estimate.oracle.<stat>; the per-instance split keeps the z/rep
     labels in the metric name, so the Figure 1 fan-out is readable off
     a flat dump. *)
  List.iter
    (fun ((z, rep), stats) ->
      List.iter
        (fun (key, v) ->
          Mkc_obs.Registry.add (Mkc_obs.Registry.counter registry ("estimate.oracle." ^ key)) v;
          Mkc_obs.Registry.add
            (Mkc_obs.Registry.counter registry
               (Printf.sprintf "estimate.z%d.rep%d.%s" z rep key))
            v)
        stats)
    (stats t);
  (* Winner attribution and the z-ladder accept/reject outcomes (both
     need [finalize] to have run; the counts sum to the number of
     oracle instances). *)
  let bump name = Mkc_obs.Registry.add (Mkc_obs.Registry.counter registry name) 1 in
  List.iter
    (fun f ->
      bump ("estimate.winner." ^ f.fwinner);
      bump
        (Printf.sprintf "estimate.z%d.%s" f.fz (if f.faccepted then "accepted" else "rejected"));
      bump (if f.faccepted then "estimate.guess.accepted" else "estimate.guess.rejected"))
    t.finals;
  (* Sketch-health ratios, derived from the same stats the counters
     publish raw: memo hit ratio (top-level sampler_evals are exactly
     the misses) and the heavy-hitter recovery success rate. *)
  let totals = stats_totals t in
  let tot k = Option.value ~default:0 (List.assoc_opt k totals) in
  let memo_hits = tot "large_common.memo_hits" in
  Mkc_obs.Quality.record_ratio ~registry "estimate.quality.memo.hit_ratio" ~num:memo_hits
    ~den:(memo_hits + tot "large_common.sampler_evals");
  Mkc_obs.Quality.record_ratio ~registry "estimate.quality.f2.hh_recovery_rate"
    ~num:(tot "large_set.hh_recoveries")
    ~den:(tot "large_set.hh_candidates")

let iter_oracles t f = iter_insts t (fun i -> f i.oracle)

let fresh_inst t i =
  let i = (insts t).(i) in
  make_inst t.params ~z:i.z ~rep:i.rep

let of_insts t insts =
  match t.body with
  | Trivial _ -> { t with finals = [] }
  | Run { insts = own } ->
      if Array.length insts <> Array.length own then
        invalid_arg "Estimate.of_insts: one instance per (z, rep)";
      { params = t.params; body = Run { insts }; finals = [] }

(* A frozen instance is its oracle state as {!Oracle.freeze} packs it:
   params, samplers and hash tables are not in it — the holder rebuilds
   them from the params it already has. *)
let freeze_inst w i =
  Oracle.settle i.oracle;
  Mkc_sketch.Packed.reset w;
  Oracle.freeze w i.oracle;
  Mkc_sketch.Packed.contents w

let thaw_inst ~into f = Mkc_sketch.Packed.decode f (fun r -> Oracle.thaw r into.oracle)
let merge_inst ~dst src = Oracle.merge_into ~dst:dst.oracle src.oracle

let merge_into ~dst src =
  match (dst.body, src.body) with
  | Trivial _, Trivial _ -> ()
  | Run { insts = d }, Run { insts = s } when Array.length d = Array.length s ->
      Array.iteri (fun i si -> merge_inst ~dst:d.(i) si) s
  | _ -> invalid_arg "Estimate.merge_into: instance shapes differ"

(* A checkpoint payload: the params, the unsettled state in the frozen
   layout, then the work tail (counters and LargeCommon memo keys).  It
   does not settle: a settle counts as a prune, and a resumed run must
   count exactly as the uninterrupted one.  [w] is reset first, so one
   writer kept across saves grows to the largest payload only once. *)
let encode w t =
  Mkc_sketch.Packed.reset w;
  Params.put w t.params;
  iter_oracles t (Oracle.freeze w);
  iter_oracles t (Oracle.freeze_work w);
  Mkc_sketch.Packed.contents w

let restore_state r t =
  iter_oracles t (Oracle.thaw r);
  iter_oracles t (Oracle.thaw_work r)

let ckpt_kind = "estimate"

(* Saves run on the coordinator only, so a codec owns one writer. *)
let codec (p : Params.t) : t Mkc_stream.Checkpoint.codec =
  let w = Mkc_sketch.Packed.writer () in
  {
    kind = ckpt_kind;
    seed = p.base_seed;
    encode = encode w;
    restore =
      (fun t s ->
        Mkc_sketch.Packed.decode s (fun r ->
            if not (Params.same_instance (Params.get r) t.params) then
              Mkc_sketch.Packed.fail r
                "estimate: payload was produced by a different instance (params differ)";
            restore_state r t));
  }

(* The most words [create] may be asked to allocate, by [decode] for a
   payload's params and by the CLI for a stream's: 2^28 (2 GiB), five
   times the largest benchmark instance.
   Besides the sketches {!word_budget} bounds, [create] builds LargeSet's
   per-superset decision tables, O(m log m) words per oracle instance
   whatever α is, so both terms are checked. *)
let decode_ceiling = Float.pow 2.0 28.0

let create_words (p : Params.t) =
  if trivial p then budget_words p
  else
    Float.max (budget_words p)
      (instances p *. 16.0 *. float_of_int p.m *. Params.log2f p.m)

let check_ceiling (p : Params.t) =
  if create_words p > decode_ceiling then
    Error
      (Printf.sprintf
         "params (m=%d, n=%d, k=%d, alpha=%g) need %.3g words, over the decode ceiling of %.0f"
         p.m p.n p.k p.alpha (create_words p) decode_ceiling)
  else Ok ()

let decode s =
  Mkc_sketch.Packed.decode s (fun r ->
      let p = Params.get r in
      Result.iter_error (Mkc_sketch.Packed.fail r "estimate: %s") (check_ceiling p);
      let t = create p in
      restore_state r t;
      t)

let params t = t.params

let sink : (t, result) Mkc_stream.Sink.sink =
  (module struct
    type nonrec t = t
    type nonrec result = result

    let feed = feed
    let feed_planned = feed_planned
    let finalize t = finalize t
    let words = words
    let words_breakdown = words_breakdown
  end)

let inst_sink : (inst, unit) Mkc_stream.Sink.sink =
  (module struct
    type t = inst
    type result = unit

    let feed = feed_inst
    let feed_planned = feed_planned_inst
    let finalize _ = ()
    let words = words_inst
    let words_breakdown = words_breakdown_inst
  end)

(* None on the trivial branch, which ignores the stream. *)
let shards t = Array.map (Mkc_stream.Sink.pack inst_sink) (insts t)

(* Unit weights, index-aligned with [shards].  Every instance runs the
   same subroutine mix: the regime split (SmallSet present or not) is a
   function of [s] and [alpha], which [Params.with_universe] leaves
   alone, so any per-instance static hint would be one constant — and
   LPT with a proportional coordinator bias is scale-invariant. *)
let shard_costs t =
  match t.body with Trivial _ -> [||] | Run { insts } -> Array.map (fun _ -> 1.0) insts
