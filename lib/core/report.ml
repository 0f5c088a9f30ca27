type t = { k : int; engine : Estimate.t }

type result = {
  estimate : float;
  sets : int list;
  provenance : Solution.provenance option;
}

let create (p : Params.t) = { k = p.k; engine = Estimate.create p }
let feed t e = Estimate.feed t.engine e

let feed_planned t plan edges ~pos ~len =
  Estimate.feed_planned t.engine plan edges ~pos ~len

let shards t = Estimate.shards t.engine

let truncate k sets =
  let rec take i = function [] -> [] | x :: rest -> if i >= k then [] else x :: take (i + 1) rest in
  take 0 sets

let finalize t =
  let r = Estimate.finalize t.engine in
  match r.Estimate.outcome with
  | None -> { estimate = 0.0; sets = []; provenance = None }
  | Some o ->
      {
        estimate = r.Estimate.estimate;
        sets = truncate t.k (o.Solution.witness ());
        provenance = Some o.Solution.provenance;
      }

let words t = Estimate.words t.engine + t.k
let record_metrics ?registry t = Estimate.record_metrics ?registry t.engine

let merge_into ~dst src = Estimate.merge_into ~dst:dst.engine src.engine

let sink : (t, result) Mkc_stream.Sink.sink =
  (module struct
    type nonrec t = t
    type nonrec result = result

    let feed = feed
    let feed_planned = feed_planned
    let finalize = finalize
    let words = words
    let words_breakdown t = ("report.output", t.k) :: Estimate.words_breakdown t.engine
  end)
