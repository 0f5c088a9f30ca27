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

let create (p : Params.t) =
  let body =
    if trivial p then
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
  { params = p; body; finals = [] }

let feed_inst i e = Oracle.feed i.oracle (Universe_reduction.apply_edge i.reduction e)

(* The distinct-element reduction buffer, one per domain: a domain feeds
   its instances one at a time, and each feed rewrites the buffer's
   first [num_elts] entries before reading them. *)
let red_scratch = Domain.DLS.new_key (fun () -> ref [||])

(* Reduce only the chunk's DISTINCT elements (one coefficient-major hash
   pass) into the buffer; the oracle then decides per distinct id and
   replays the chunk.  One timed span per instance per chunk makes the
   Figure 1 fan-out visible as parallel rows on the trace timeline. *)
let feed_planned_inst i plan edges ~pos ~len =
  let obs = Mkc_obs.Registry.enabled () || Mkc_obs.Trace.enabled () in
  let t0 = if obs then Mkc_obs.Clock.now_ns () else 0 in
  let ne = Mkc_stream.Chunk_plan.num_elts plan in
  let cell = Domain.DLS.get red_scratch in
  if Array.length !cell < ne then cell := Array.make (max ne (2 * Array.length !cell)) 0;
  let red = !cell in
  Universe_reduction.apply_batch i.reduction (Mkc_stream.Chunk_plan.elts plan) ~pos:0 ~len:ne red;
  Oracle.feed_planned i.oracle plan ~red edges ~pos ~len;
  if obs then Mkc_obs.Span.record i.span_name ~start_ns:t0 ~dur_ns:(Mkc_obs.Clock.now_ns () - t0)

let iter_insts t f = match t.body with Trivial _ -> () | Run { insts } -> Array.iter f insts

(* The instances one after another over the shared plan: they are
   mutually independent, so the final state is exactly the edge-by-edge
   one. *)
let feed t e = iter_insts t (fun i -> feed_inst i e)
let feed_planned t plan edges ~pos ~len = iter_insts t (fun i -> feed_planned_inst i plan edges ~pos ~len)

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
   with m/α² (tabulation tables, the keep-level memo, CountSketch
   rows).  The constants are calibrated against measured peaks of the
   quickstart/bench/CI workloads at ~0.5–0.8 headroom — tight enough
   that a constant-factor space regression trips the watchdog, loose
   enough that healthy runs never do. *)
let budget_mass = 8.0
let budget_floor = 640.0

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

(* The most words [decode] lets a payload's params make [create]
   allocate: 2^28 (2 GiB), five times the largest benchmark instance.
   Besides the sketches {!word_budget} bounds, [create] builds LargeSet's
   per-superset decision tables, O(m log m) words per oracle instance
   whatever α is, so both terms are checked. *)
let decode_ceiling = Float.pow 2.0 28.0

let create_words (p : Params.t) =
  if trivial p then budget_words p
  else
    Float.max (budget_words p)
      (instances p *. 16.0 *. float_of_int p.m *. Params.log2f p.m)

let decode s =
  Mkc_sketch.Packed.decode s (fun r ->
      let p = Params.get r in
      if create_words p > decode_ceiling then
        Mkc_sketch.Packed.fail r
          "estimate: params (m=%d, n=%d, k=%d, alpha=%g) need %.3g words, over the decode \
           ceiling of %.0f"
          p.m p.n p.k p.alpha (create_words p) decode_ceiling;
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
    let finalize = finalize
    let words = words
    let words_breakdown = words_breakdown
  end)

let shard_sink : (inst, unit) Mkc_stream.Sink.sink =
  (module struct
    type t = inst
    type result = unit

    let feed = feed_inst
    let feed_planned = feed_planned_inst
    let finalize _ = ()
    let words = words_inst
    let words_breakdown = words_breakdown_inst
  end)

let shards t =
  match t.body with
  | Trivial _ -> [||] (* the trivial branch ignores the stream *)
  | Run { insts } -> Array.map (Mkc_stream.Sink.pack shard_sink) insts

(* Unit weights, index-aligned with [shards].  Every instance runs the
   same subroutine mix: the regime split (SmallSet present or not) is a
   function of [s] and [alpha], which [Params.with_universe] leaves
   alone, so any per-instance static hint would be one constant — and
   LPT with a proportional coordinator bias is scale-invariant. *)
let shard_costs t =
  match t.body with Trivial _ -> [||] | Run { insts } -> Array.map (fun _ -> 1.0) insts
