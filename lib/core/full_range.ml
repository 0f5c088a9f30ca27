let switch_alpha = 3.0
let lower_limit = 1.0 /. (1.0 -. exp (-1.0)) (* 1/(1 - 1/e) ≈ 1.582 *)

type engine = Constant_factor | Sketching

type body =
  | Mv of Mkc_coverage.Mcgregor_vu.t
  | Rep of Report.t

type t = { body : body }

type result = { estimate : float; sets : int list; engine : engine }

let create (p : Params.t) =
  if p.alpha <= lower_limit then
    invalid_arg "Full_range.create: alpha must exceed 1/(1 - 1/e) (Feige's threshold)";
  if p.alpha <= switch_alpha then begin
    (* constant-factor regime: the [34]-style algorithm achieves
       1/(1 - 1/e - ε); pick ε from the slack the caller allowed *)
    let epsilon = Float.max 0.1 (Float.min 1.0 ((p.alpha -. lower_limit) /. 2.0)) in
    { body = Mv (Mkc_coverage.Mcgregor_vu.create ~m:p.m ~n:p.n ~k:p.k ~epsilon ~seed:p.base_seed ()) }
  end
  else { body = Rep (Report.create p) }

let engine t = match t.body with Mv _ -> Constant_factor | Rep _ -> Sketching

let feed t e =
  match t.body with
  | Mv mv -> Mkc_coverage.Mcgregor_vu.feed mv e
  | Rep rep -> Report.feed rep e

let feed_planned t plan edges ~pos ~len =
  match t.body with
  | Mv mv -> Mkc_coverage.Mcgregor_vu.feed_planned mv plan edges ~pos ~len
  | Rep rep -> Report.feed_planned rep plan edges ~pos ~len

let finalize t =
  match t.body with
  | Mv mv ->
      let r = Mkc_coverage.Mcgregor_vu.finalize mv in
      {
        estimate = r.Mkc_coverage.Mcgregor_vu.coverage;
        sets = r.Mkc_coverage.Mcgregor_vu.chosen;
        engine = Constant_factor;
      }
  | Rep rep ->
      let r = Report.finalize rep in
      { estimate = r.Report.estimate; sets = r.Report.sets; engine = Sketching }

let words t =
  match t.body with
  | Mv mv -> Mkc_coverage.Mcgregor_vu.words mv
  | Rep rep -> Report.words rep

let words_breakdown t =
  match t.body with
  | Mv mv -> [ ("mcgregor_vu", Mkc_coverage.Mcgregor_vu.words mv) ]
  | Rep rep ->
      let module R = (val Report.sink) in
      R.words_breakdown rep

let shards t =
  match t.body with
  | Mv mv -> [| Mkc_stream.Sink.pack Mkc_coverage.Mcgregor_vu.sink mv |]
  | Rep rep -> Report.shards rep

let merge_into ~dst src =
  match (dst.body, src.body) with
  | Mv d, Mv s -> Mkc_coverage.Mcgregor_vu.merge_into ~dst:d s
  | Rep d, Rep s -> Report.merge_into ~dst:d s
  | _ -> invalid_arg "Full_range.merge_into: engine mismatch"

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
