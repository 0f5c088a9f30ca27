type t = {
  params : Params.t;
  large_common : Large_common.t;
  large_set : Large_set.t;
  small_set : Small_set.t option; (* only when sα < 2k *)
  mutable st_edges : int;
}

let create (params : Params.t) ~seed =
  let sa = Params.s_alpha params in
  let heavy_regime = sa >= 2.0 *. float_of_int params.k in
  let w = if heavy_regime then params.k else params.w in
  {
    params;
    large_common = Large_common.create params ~seed:(Mkc_hashing.Splitmix.fork seed 1);
    large_set = Large_set.create params ~w ~seed:(Mkc_hashing.Splitmix.fork seed 2);
    small_set =
      (if heavy_regime then None
       else Some (Small_set.create params ~seed:(Mkc_hashing.Splitmix.fork seed 3)));
    st_edges = 0;
  }

let feed t e =
  t.st_edges <- t.st_edges + 1;
  Large_common.feed t.large_common e;
  Large_set.feed t.large_set e;
  Option.iter (fun ss -> Small_set.feed ss e) t.small_set

let feed_planned t plan ~red edges ~pos ~len =
  (* Chunk-deduplicated ingestion: the shared plan (distinct ids +
     per-edge indices) and the caller's reduced-element table [red] are
     fanned out to every subroutine, each of which decides per distinct
     id and replays per edge. *)
  t.st_edges <- t.st_edges + len;
  Large_common.feed_planned t.large_common plan ~red edges ~pos ~len;
  Large_set.feed_planned t.large_set plan ~red edges ~pos ~len;
  Option.iter (fun ss -> Small_set.feed_planned ss plan ~red edges ~pos ~len) t.small_set

let clamp (p : Params.t) outcome =
  (* No k-cover can exceed the universe size, so cap subroutine
     estimates at |U| — inverse-sampling scale-ups may overshoot. *)
  Option.map
    (fun (o : Solution.outcome) ->
      { o with estimate = Float.min o.estimate (float_of_int p.Params.u) })
    outcome

let finalize_all t =
  [
    clamp t.params (Large_common.finalize t.large_common);
    clamp t.params (Large_set.finalize t.large_set);
    clamp t.params (Option.bind t.small_set Small_set.finalize);
  ]

let finalize t = Solution.best (finalize_all t)

let words_breakdown t =
  let open Mkc_stream.Sink in
  canonical_breakdown
    (prefix_breakdown "oracle"
       (prefix_breakdown "large_common" (Large_common.words_breakdown t.large_common)
       @ prefix_breakdown "large_set" (Large_set.words_breakdown t.large_set)
       @
       match t.small_set with
       | None -> [ ("small_set", 0) ] (* component absent in the heavy regime *)
       | Some ss -> prefix_breakdown "small_set" (Small_set.words_breakdown ss)))

let words t = List.fold_left (fun acc (_, w) -> acc + w) 0 (words_breakdown t)

let stats t =
  let open Mkc_stream.Sink in
  canonical_breakdown
    (("edges", t.st_edges)
    (* Top-level [sampler_evals] is the headline decision count of the
       chunk engine: actual set-sampling hash evaluations (LargeCommon
       memo misses) — O(distinct set ids), not O(edges).  The per-
       subroutine breakdowns keep their own *_sampler_evals keys. *)
    :: ("sampler_evals", Large_common.sampler_evals t.large_common)
    :: prefix_breakdown "large_common" (Large_common.stats t.large_common)
    @ prefix_breakdown "large_set" (Large_set.stats t.large_set)
    @
    match t.small_set with
    | None -> []
    | Some ss -> prefix_breakdown "small_set" (Small_set.stats ss))

let settle t = Large_set.settle t.large_set

let freeze w t =
  Large_common.freeze w t.large_common;
  Large_set.freeze w t.large_set;
  Option.iter (Small_set.freeze w) t.small_set

let thaw r t =
  Large_common.thaw r t.large_common;
  Large_set.thaw r t.large_set;
  Option.iter (Small_set.thaw r) t.small_set;
  t.st_edges <- 0

let freeze_work w t =
  Mkc_sketch.Packed.put w t.st_edges;
  Large_common.freeze_work w t.large_common;
  Large_set.freeze_work w t.large_set;
  Option.iter (Small_set.freeze_work w) t.small_set

let thaw_work r t =
  t.st_edges <- Mkc_sketch.Packed.get r;
  Large_common.thaw_work r t.large_common;
  Large_set.thaw_work r t.large_set;
  Option.iter (Small_set.thaw_work r) t.small_set

let merge_into ~dst src =
  Large_common.merge_into ~dst:dst.large_common src.large_common;
  Large_set.merge_into ~dst:dst.large_set src.large_set;
  (match (dst.small_set, src.small_set) with
  | Some d, Some s -> Small_set.merge_into ~dst:d s
  | None, None -> ()
  | _ -> invalid_arg "Oracle.merge_into: regime mismatch");
  dst.st_edges <- dst.st_edges + src.st_edges

let sink : (t, Solution.outcome option) Mkc_stream.Sink.sink =
  (module struct
    type nonrec t = t
    type result = Solution.outcome option

    let feed = feed

    (* Standalone oracle sink: the stream is unreduced, so the identity
       element table (the plan's own distinct raw values) plays [red]. *)
    let feed_planned t plan edges ~pos ~len =
      feed_planned t plan ~red:(Mkc_stream.Chunk_plan.elts plan) edges ~pos ~len

    let finalize = finalize
    let words = words
    let words_breakdown = words_breakdown
  end)
