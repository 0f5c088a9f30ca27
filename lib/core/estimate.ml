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
  mutable red : int array; (* distinct-element reduction buffer, reused per chunk *)
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

let create (p : Params.t) =
  let body =
    if float_of_int p.k *. p.alpha >= float_of_int p.m then
      Trivial
        { estimate = float_of_int p.n /. p.alpha; witness = trivial_witness p }
    else begin
      let root = Mkc_hashing.Splitmix.create p.base_seed in
      let insts =
        guess_ladder p
        |> List.concat_map (fun z ->
               List.init p.z_repeats (fun rep ->
                   let sd = Mkc_hashing.Splitmix.fork root ((z * 131) + rep) in
                   {
                     z;
                     rep;
                     span_name = Printf.sprintf "estimate.z%d.rep%d" z rep;
                     reduction =
                       Universe_reduction.create ~z ~seed:(Mkc_hashing.Splitmix.fork sd 0);
                     oracle =
                       Oracle.create (Params.with_universe p z)
                         ~seed:(Mkc_hashing.Splitmix.fork sd 1);
                   }))
        |> Array.of_list
      in
      Run { insts }
    end
  in
  { params = p; body; red = [||]; finals = [] }

let feed t e =
  match t.body with
  | Trivial _ -> ()
  | Run { insts } ->
      Array.iter
        (fun inst -> Oracle.feed inst.oracle (Universe_reduction.apply_edge inst.reduction e))
        insts

let grow_red scratch n =
  if Array.length scratch >= n then scratch else Array.make (max n (2 * Array.length scratch)) 0

let feed_planned t plan edges ~pos ~len =
  match t.body with
  | Trivial _ -> ()
  | Run { insts } ->
      (* Instance-outer over the shared plan: each instance reduces only
         the chunk's DISTINCT elements (one coefficient-major hash pass
         per instance) into [red], then its oracle decides per distinct
         id and replays the chunk.  Instances are mutually independent,
         so the final state is exactly the edge-by-edge one. *)
      let ne = Mkc_stream.Chunk_plan.num_elts plan in
      t.red <- grow_red t.red ne;
      let red = t.red and elts = Mkc_stream.Chunk_plan.elts plan in
      (* One timed span per (z, rep) instance per chunk — the Figure 1
         fan-out becomes visible as parallel rows on the trace timeline.
         The obs check is hoisted so the untraced hot path pays one
         branch per chunk, not one clock read per instance. *)
      let obs = Mkc_obs.Registry.enabled () || Mkc_obs.Trace.enabled () in
      Array.iter
        (fun inst ->
          let t0 = if obs then Mkc_obs.Clock.now_ns () else 0 in
          Universe_reduction.apply_batch inst.reduction elts ~pos:0 ~len:ne red;
          Oracle.feed_planned inst.oracle plan ~red edges ~pos ~len;
          if obs then
            Mkc_obs.Span.record inst.span_name ~start_ns:t0
              ~dur_ns:(Mkc_obs.Clock.now_ns () - t0))
        insts

let finalize t =
  match t.body with
  | Trivial { estimate; witness } ->
      t.finals <- [ { fz = 0; frep = 0; fwinner = "trivial"; faccepted = true } ];
      {
        estimate;
        outcome = Some { Solution.estimate; witness; provenance = Solution.Trivial };
        z_guess = 0;
      }
  | Run { insts } ->
      let p = t.params in
      let accepted = ref None and fallback = ref None in
      let finals = ref [] in
      let consider slot (cand : result) =
        match !slot with
        | Some (best : result) when best.estimate >= cand.estimate -> ()
        | _ -> slot := Some cand
      in
      Array.iter
        (fun inst ->
          match Oracle.finalize inst.oracle with
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

let guesses t = guess_ladder t.params

let words t =
  match t.body with
  | Trivial _ -> t.params.k
  | Run { insts } ->
      Array.fold_left
        (fun acc inst -> acc + Universe_reduction.words inst.reduction + Oracle.words inst.oracle)
        0 insts

let words_breakdown t =
  match t.body with
  | Trivial _ -> [ ("trivial_witness", t.params.k) ]
  | Run { insts } ->
      Mkc_stream.Sink.canonical_breakdown
        (Array.to_list insts
        |> List.concat_map (fun inst ->
               ("universe_reduction", Universe_reduction.words inst.reduction)
               :: Oracle.words_breakdown inst.oracle))

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
   with m/α² (tabulation tables, the keep-level memo, CountSketch
   rows).  The constants are calibrated against measured peaks of the
   quickstart/bench/CI workloads at ~0.5–0.8 headroom — tight enough
   that a constant-factor space regression trips the watchdog, loose
   enough that healthy runs never do. *)
let budget_mass = 8.0
let budget_floor = 640.0

let word_budget (p : Params.t) =
  if float_of_int p.k *. p.alpha >= float_of_int p.m then (* trivial branch: witness ids only *)
    4 * p.k
  else begin
    let instances = List.length (guess_ladder p) * p.z_repeats in
    let lmn = Params.log2f (p.m * max 1 p.n) in
    let m_over_a2 = float_of_int p.m /. (p.alpha *. p.alpha) in
    let per_inst = ((budget_mass *. m_over_a2) +. budget_floor) *. lmn *. lmn in
    int_of_float (ceil (float_of_int instances *. per_inst))
  end

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

let iter_oracles t f =
  match t.body with Trivial _ -> () | Run { insts } -> Array.iter (fun i -> f i.oracle) insts

(* A frozen estimator is one byte string: the oracle states in ladder
   order, as {!Oracle.freeze} packs them (empty on the trivial branch).
   Params, samplers and hash tables are not in it — {!create} rebuilds
   them from the params the holder already has. *)
type frozen = string

let freeze t =
  iter_oracles t Oracle.settle;
  let w = Mkc_sketch.Packed.writer () in
  iter_oracles t (Oracle.freeze w);
  Mkc_sketch.Packed.contents w

(* A string of [len] bytes is a header word plus [len/8 + 1] words
   (OCaml always pads with at least one byte). *)
let frozen_words f = (String.length f / 8) + 2

let thaw ~into f = Mkc_sketch.Packed.decode f (fun r -> iter_oracles into (Oracle.thaw r))

let merge_into ~dst src =
  match (dst.body, src.body) with
  | Trivial _, Trivial _ -> ()
  | Run { insts = d }, Run { insts = s } when Array.length d = Array.length s ->
      Array.iteri (fun i si -> Oracle.merge_into ~dst:d.(i).oracle si.oracle) s
  | _ -> invalid_arg "Estimate.merge_into: instance shapes differ"

(* A checkpoint payload: the params, the unsettled state in the frozen
   layout, then the work tail (counters and LargeCommon memo keys).  It
   does not settle: a settle counts as a prune, and a resumed run must
   count exactly as the uninterrupted one. *)
let encode t =
  let w = Mkc_sketch.Packed.writer () in
  Params.put w t.params;
  iter_oracles t (Oracle.freeze w);
  iter_oracles t (Oracle.freeze_work w);
  Mkc_sketch.Packed.contents w

let restore_state r t =
  iter_oracles t (Oracle.thaw r);
  iter_oracles t (Oracle.thaw_work r)

let ckpt_kind = "estimate"

let codec (p : Params.t) : t Mkc_stream.Checkpoint.codec =
  {
    kind = ckpt_kind;
    seed = p.base_seed;
    encode;
    restore =
      (fun t s ->
        Mkc_sketch.Packed.decode s (fun r ->
            if not (Params.same_instance (Params.get r) t.params) then
              Mkc_sketch.Packed.fail r
                "estimate: payload was produced by a different instance (params differ)";
            restore_state r t));
  }

let decode s =
  Mkc_sketch.Packed.decode s (fun r ->
      let t = create (Params.get r) in
      restore_state r t;
      t)

let params t = t.params

let sink : (t, result) Mkc_stream.Sink.sink =
  (module struct
    type nonrec t = t
    type nonrec result = result

    let feed = feed
    let feed_planned = feed_planned
    let finalize = finalize
    let words = words
    let words_breakdown = words_breakdown
  end)

(* One z-guess × repeat instance as an independently driveable sink —
   the unit the parallel pipeline schedules.  Each shard owns a private
   reduction buffer so shards never share mutable state; the plan they
   read is the pipeline's, built once per window. *)
type shard = { inst : inst; mutable shard_red : int array }

let shard_sink : (shard, unit) Mkc_stream.Sink.sink =
  (module struct
    type t = shard
    type result = unit

    let feed s e =
      Oracle.feed s.inst.oracle (Universe_reduction.apply_edge s.inst.reduction e)

    let feed_planned s plan edges ~pos ~len =
      let obs = Mkc_obs.Registry.enabled () || Mkc_obs.Trace.enabled () in
      let t0 = if obs then Mkc_obs.Clock.now_ns () else 0 in
      let ne = Mkc_stream.Chunk_plan.num_elts plan in
      s.shard_red <- grow_red s.shard_red ne;
      Universe_reduction.apply_batch s.inst.reduction
        (Mkc_stream.Chunk_plan.elts plan)
        ~pos:0 ~len:ne s.shard_red;
      Oracle.feed_planned s.inst.oracle plan ~red:s.shard_red edges ~pos ~len;
      if obs then
        Mkc_obs.Span.record s.inst.span_name ~start_ns:t0
          ~dur_ns:(Mkc_obs.Clock.now_ns () - t0)

    let finalize _ = ()
    let words s = Universe_reduction.words s.inst.reduction + Oracle.words s.inst.oracle

    let words_breakdown s =
      ("universe_reduction", Universe_reduction.words s.inst.reduction)
      :: Oracle.words_breakdown s.inst.oracle
  end)

let shards t =
  match t.body with
  | Trivial _ -> [||] (* the trivial branch ignores the stream *)
  | Run { insts } ->
      Array.map (fun inst -> Mkc_stream.Sink.pack shard_sink { inst; shard_red = [||] }) insts

(* Per-shard static cost hints, index-aligned with [shards]: the
   universe-reduction batch pass (~3.0 Large_common units per edge:
   mkcbench's core.universe_reduction.ns_per_edge over
   core.large_common.ns_per_edge) plus the instance's oracle subroutine
   mix.
   Instances differ only through the regime split (small-set present or
   not, a function of the shared params), so on a fixed params ladder
   the hints are uniform — the packing they seed degrades to balanced
   counts, and the adaptive schedule's measured busy-ns supplies the
   per-instance contrast. *)
let reduction_cost = 3.0

let shard_costs t =
  match t.body with
  | Trivial _ -> [||]
  | Run { insts } ->
      Array.map (fun inst -> reduction_cost +. Oracle.cost_hint inst.oracle) insts
