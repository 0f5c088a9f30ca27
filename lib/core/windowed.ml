(* Sliding-window / exponential-decay coverage estimation over linear
   sketch state: the stream is cut into fixed-size epochs, all run in
   one live {!Estimate}.  Figure 1's (z, rep) instances are
   independent until Theorem 3.6's selection, so each keeps a window of
   its own, a lane: its live state, a frozen blank, and a ring of its
   frozen epoch states.  When an epoch is full, each lane freezes its
   instance into its ring slot ({!Estimate.freeze_inst}) and resets it
   in place by thawing its blank (its seed-derived memos stay warm
   across rolls) — on whichever domain feeds that lane.  A query, one
   lane at a time (on a pool, side by side), thaws each held epoch into
   a scratch instance and merges it (oldest first) plus the in-flight
   epoch into a fresh one — exactly the shard-merge path, so the
   windowed answer is the answer a fresh run over the live suffix would
   give — and then selects once.  Exponential decay reuses the same
   ring but folds the per-epoch selected estimates through the {!Decay}
   monoid instead of trusting the undiscounted merge. *)

module Decay = struct
  type acc = { v : float; span : int }

  let identity = { v = 0.0; span = 0 }

  (* Later operand is newer: the older mass [a.v] is discounted by one
     λ-factor per epoch the newer operand spans.  Associativity is the
     law test_window checks; identity is [span = 0] (λ⁰ = 1). *)
  let combine ~lambda a b =
    { v = b.v +. (Float.pow lambda (float_of_int b.span) *. a.v); span = a.span + b.span }

  let of_estimate v = { v; span = 1 }
end

module Inst = (val Estimate.inst_sink)

(* One (z, rep) instance's window.  [ring] and [outs] are slot-aligned
   across lanes: slot s of every lane holds the same epoch. *)
type lane = {
  inst : Estimate.inst; (* the live epoch: [current]'s own instance *)
  (* [inst] frozen before its first edge: a roll thaws it back instead
     of building a new instance.  Like the memos it is a function of the
     params alone, so [words] does not charge it. *)
  blank : string;
  (* The writer this lane's freezes pack into: its buffer is grown once,
     not on every roll.  Scratch, uncounted like [blank]. *)
  pack : Mkc_sketch.Packed.writer;
  ring : string array; (* frozen epochs; a slot is held iff a live slot *)
  outs : Solution.outcome option array; (* each epoch's outcome, under decay *)
  mutable fed : int; (* edges this lane has taken *)
}

type t = {
  params : Params.t;
  window : int;
  epoch_edges : int;
  decay : float option;
  current : Estimate.t; (* the live epoch, one lane per instance *)
  lanes : lane array; (* none on the trivial branch *)
  mutable solo_fed : int; (* edges taken, when there is no lane to count them *)
  mutable merged : Estimate.t option; (* the last query's merged window *)
  c_rolled : Mkc_obs.Registry.counter;
  g_epochs : Mkc_obs.Registry.gauge;
}

let create ?decay params ~window ~epoch_edges () =
  if window < 1 then invalid_arg "Windowed.create: window must be >= 1";
  if epoch_edges < 1 then invalid_arg "Windowed.create: epoch_edges must be >= 1";
  (match decay with
  | Some l when not (l > 0.0 && l < 1.0) ->
      invalid_arg "Windowed.create: decay must lie in (0, 1)"
  | _ -> ());
  let reg = Mkc_obs.Registry.global in
  let current = Estimate.create params in
  let lane inst =
    let pack = Mkc_sketch.Packed.writer () in
    {
      inst;
      blank = Estimate.freeze_inst pack inst;
      pack;
      ring = Array.make window "";
      outs = Array.make window None;
      fed = 0;
    }
  in
  {
    params;
    window;
    epoch_edges;
    decay;
    current;
    lanes = Array.map lane (Estimate.insts current);
    solo_fed = 0;
    merged = None;
    c_rolled = Mkc_obs.Registry.counter reg "window.rolled";
    (* Set by whichever domain feeds lane 0; live epochs only grow, so
       the high-water mark across domains is the value. *)
    g_epochs = Mkc_obs.Registry.gauge ~mode:`Max reg "window.epochs";
  }

let params t = t.params
let current t = t.current
let epoch_edges t = t.epoch_edges
let merged t = t.merged

(* The ring position is a function of the edge count, which every lane
   shares between windows. *)
let fed t = if Array.length t.lanes = 0 then t.solo_fed else t.lanes.(0).fed
let rolled t = fed t / t.epoch_edges
let in_epoch t = fed t mod t.epoch_edges

(* Full epochs currently held in the ring. *)
let live_epochs t = min (rolled t) t.window

(* The ring slots held after [fed] edges, oldest epoch first: epoch e
   sits in slot [e mod window], and the held epochs are the last
   [min rolled window]. *)
let held_slots t ~fed =
  let r = fed / t.epoch_edges in
  let p = min r t.window in
  List.init p (fun i -> (r - p + i) mod t.window)

let live_slots t = held_slots t ~fed:(fed t)

(* A roll finalizes only under decay, whose fold needs each epoch's own
   outcome; without it the frozen state is all the query reads. *)
let roll t l =
  let slot = ((l.fed / t.epoch_edges) - 1) mod t.window in
  if t.decay <> None then l.outs.(slot) <- Estimate.finalize_inst l.inst;
  l.ring.(slot) <- Estimate.freeze_inst l.pack l.inst;
  match Estimate.thaw_inst ~into:l.inst l.blank with
  | Ok () -> ()
  | Error e -> invalid_arg ("Windowed.roll: the blank epoch does not thaw: " ^ e)

(* One lane took [len] edges that end at or before its next roll;
   true when they ended its epoch. *)
let took t l len =
  l.fed <- l.fed + len;
  let rolls = len > 0 && l.fed mod t.epoch_edges = 0 in
  if rolls then roll t l;
  rolls

(* Counted once per roll, by whoever feeds lane 0 (or the whole sink). *)
let note_roll t =
  Mkc_obs.Registry.incr t.c_rolled;
  Mkc_obs.Registry.set t.g_epochs (float_of_int (live_epochs t))

(* Feed [len] edges from [pos] to a window that has taken [fed] edges,
   in pieces that end at its epoch boundaries.  A slice that ends
   inside the current epoch is one piece, with the given plan; a drive
   whose windows end at the epoch boundaries only ever feeds such
   slices.  Otherwise the shared plan indexes the whole slice, so each
   piece is planned into the domain's {!Feed_scratch.plan}, and rolls
   land at exactly the per-edge drive's edge counts. *)
let pieces t ~fed plan edges ~pos ~len piece =
  if len <= t.epoch_edges - (fed mod t.epoch_edges) then piece plan ~pos ~len
  else begin
    let own = Feed_scratch.plan () in
    let rec go fed pos len =
      if len > 0 then begin
        let take = min (t.epoch_edges - (fed mod t.epoch_edges)) len in
        Mkc_stream.Chunk_plan.build own edges ~pos ~len:take;
        piece own ~pos ~len:take;
        go (fed + take) (pos + take) (len - take)
      end
    in
    go fed pos len
  end

(* The whole sink takes a piece: every lane in ladder order. *)
let take_all t ~len f =
  if Array.length t.lanes = 0 then t.solo_fed <- t.solo_fed + len
  else
    Array.iter
      (fun l ->
        f l.inst;
        ignore (took t l len : bool))
      t.lanes;
  if len > 0 && in_epoch t = 0 then note_roll t

let feed t e = take_all t ~len:1 (fun i -> Inst.feed i e)

let feed_planned t plan edges ~pos ~len =
  pieces t ~fed:(fed t) plan edges ~pos ~len (fun plan ~pos ~len ->
      take_all t ~len (fun i -> Inst.feed_planned i plan edges ~pos ~len))

type result = {
  estimate : float;
  outcome : Solution.outcome option;
  epochs : int;
  rolled : int;
}

let thaw_held ~into f =
  match Estimate.thaw_inst ~into f with
  | Ok () -> ()
  | Error e -> invalid_arg ("Windowed.finalize: a held epoch does not thaw: " ^ e)

let finalize ?pool t =
  let include_current = in_epoch t > 0 || rolled t = 0 in
  let slots = live_slots t in
  let n = Array.length t.lanes in
  let dsts = Array.make n None and outs = Array.make n None and live = Array.make n None in
  (* Rebuild each lane's window by the shard-merge path: each frozen
     epoch is a self-contained state; thawing them one by one into a
     scratch instance and merging them oldest-first into a fresh one
     (then the in-flight epoch) reproduces the instance a single pass
     over the live suffix would build.  Lanes are independent, so a
     pool runs them side by side. *)
  let query i =
    let l = t.lanes.(i) in
    let dst = Estimate.fresh_inst t.current i in
    if slots <> [] then begin
      let scratch = Estimate.fresh_inst t.current i in
      List.iter
        (fun s ->
          thaw_held ~into:scratch l.ring.(s);
          Estimate.merge_inst ~dst scratch)
        slots
    end;
    if include_current then Estimate.merge_inst ~dst l.inst;
    outs.(i) <- Estimate.finalize_inst dst;
    if t.decay <> None && include_current then live.(i) <- Estimate.finalize_inst l.inst;
    dsts.(i) <- Some dst
  in
  Mkc_obs.Span.with_ "window.decay_merge" (fun () ->
      match pool with
      | Some pool -> Mkc_stream.Pipeline.Pool.parallel_for pool n query
      | None -> for i = 0 to n - 1 do query i done);
  let merged = Estimate.of_insts t.current (Array.map Option.get dsts) in
  t.merged <- Some merged;
  (* Under decay each epoch's estimate is selected from its lanes'
     outcomes before the window's own selection, which [merged] keeps. *)
  let decayed =
    Option.map
      (fun lambda ->
        let epoch outs = (Estimate.select merged outs).Estimate.estimate in
        let vs = List.map (fun s -> epoch (Array.map (fun l -> l.outs.(s)) t.lanes)) slots in
        let vs = if include_current then vs @ [ epoch live ] else vs in
        (* Discounted fold, oldest epoch first: each step ages the
           accumulated mass by one epoch before the newer epoch lands. *)
        (List.fold_left
           (fun acc v -> Decay.combine ~lambda acc (Decay.of_estimate v))
           Decay.identity vs)
          .Decay.v)
      t.decay
  in
  let r = Estimate.select merged outs in
  {
    estimate = Option.value decayed ~default:r.Estimate.estimate;
    outcome = r.Estimate.outcome;
    epochs = live_epochs t + if include_current && in_epoch t > 0 then 1 else 0;
    rolled = rolled t;
  }

(* A held epoch is charged as one string of its lanes' states: a header
   word plus [bytes/8 + 1] words (OCaml pads with at least one byte). *)
let ring_words t =
  List.fold_left
    (fun acc s ->
      let bytes = Array.fold_left (fun b l -> b + String.length l.ring.(s)) 0 t.lanes in
      acc + (bytes / 8) + 2)
    0 (live_slots t)

let words_breakdown t =
  Mkc_stream.Sink.canonical_breakdown
    (("ring", ring_words t)
    :: Mkc_stream.Sink.prefix_breakdown "current" (Estimate.words_breakdown t.current))

let words t = List.fold_left (fun acc (_, w) -> acc + w) 0 (words_breakdown t)

let stats_totals t = Estimate.stats_totals t.current

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

(* One lane as a sink.  Lane 0's shard notes each roll once. *)
type shard = { w : t; lane : lane; first : bool }

let shard_took s len = if took s.w s.lane len && s.first then note_roll s.w

let held_bytes s =
  List.fold_left
    (fun acc slot -> acc + String.length s.lane.ring.(slot))
    0
    (held_slots s.w ~fed:s.lane.fed)

let shard_sink : (shard, unit) Mkc_stream.Sink.sink =
  (module struct
    type t = shard
    type result = unit

    let feed s e =
      Inst.feed s.lane.inst e;
      shard_took s 1

    let feed_planned s plan edges ~pos ~len =
      pieces s.w ~fed:s.lane.fed plan edges ~pos ~len (fun plan ~pos ~len ->
          Inst.feed_planned s.lane.inst plan edges ~pos ~len;
          shard_took s len)

    let finalize _ = ()

    let words_breakdown s =
      Mkc_stream.Sink.canonical_breakdown
        (("ring", held_bytes s / 8)
        :: Mkc_stream.Sink.prefix_breakdown "current" (Inst.words_breakdown s.lane.inst))

    let words s = List.fold_left (fun acc (_, w) -> acc + w) 0 (words_breakdown s)
  end)

let shards t =
  if Array.length t.lanes = 0 then [| Mkc_stream.Sink.pack sink t |]
  else
    Array.mapi
      (fun i lane -> Mkc_stream.Sink.pack shard_sink { w = t; lane; first = i = 0 })
      t.lanes
