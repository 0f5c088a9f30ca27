(* Sliding-window / exponential-decay coverage estimation over linear
   sketch state: the stream is cut into fixed-size epochs, all run in
   one live {!Estimate} instance.  When an epoch rolls, the instance is
   frozen ({!Estimate.freeze}) into a ring of the last [window] epochs
   and then reset in place by thawing a frozen blank into it (its
   seed-derived memos stay warm across rolls).  A query thaws each held
   epoch into one scratch estimator and merges it (oldest first) plus
   the in-flight epoch into a fresh one — exactly the shard-merge path,
   so the windowed answer is the answer a fresh run over the live
   suffix would give.  Exponential decay reuses the
   same ring but folds the per-epoch finalized estimates through the
   {!Decay} monoid instead of trusting the undiscounted merge. *)

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

type t = {
  params : Params.t;
  window : int;
  epoch_edges : int;
  decay : float option;
  current : Estimate.t;
  (* [current] frozen before its first edge: a roll thaws it back into
     [current] instead of creating a new estimator.  Like the memos it
     is a function of the params alone, so [words] does not charge it. *)
  blank : Estimate.frozen;
  (* The writer every freeze packs into: its buffer is grown once, not
     on every roll.  Scratch, uncounted like [blank]. *)
  pack : Mkc_sketch.Packed.writer;
  mutable in_epoch : int;
  ring : Estimate.frozen option array; (* frozen epochs, slot i valid iff Some *)
  ring_est : float array; (* per-epoch finalized estimates under decay, slot-aligned *)
  mutable head : int; (* next slot to overwrite *)
  mutable rolled : int;
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
  let pack = Mkc_sketch.Packed.writer () in
  {
    params;
    window;
    epoch_edges;
    decay;
    current;
    blank = Estimate.freeze pack current;
    pack;
    in_epoch = 0;
    ring = Array.make window None;
    ring_est = Array.make window 0.0;
    head = 0;
    rolled = 0;
    c_rolled = Mkc_obs.Registry.counter reg "window.rolled";
    g_epochs = Mkc_obs.Registry.gauge reg "window.epochs";
  }

let params t = t.params
let current t = t.current
let rolled t = t.rolled

(* Full epochs currently held in the ring. *)
let live_epochs t = min t.rolled t.window

(* Live ring slots, oldest epoch first.  Before the ring wraps the
   epochs sit in slots [0 .. rolled-1]; afterwards [head] is both the
   next victim and the oldest survivor. *)
let live_slots t =
  let p = live_epochs t in
  List.init p (fun i -> if t.rolled < t.window then i else (t.head + i) mod t.window)

(* A roll finalizes only under decay, whose fold needs each epoch's own
   estimate; without it the frozen state is all the query reads. *)
let roll t =
  if t.decay <> None then
    t.ring_est.(t.head) <- (Estimate.finalize t.current).Estimate.estimate;
  t.ring.(t.head) <- Some (Estimate.freeze t.pack t.current);
  t.head <- (t.head + 1) mod t.window;
  t.rolled <- t.rolled + 1;
  Mkc_obs.Registry.incr t.c_rolled;
  Mkc_obs.Registry.set t.g_epochs (float_of_int (live_epochs t));
  (match Estimate.thaw ~into:t.current t.blank with
  | Ok () -> ()
  | Error e -> invalid_arg ("Windowed.roll: the blank epoch does not thaw: " ^ e));
  t.in_epoch <- 0

let advance t n =
  t.in_epoch <- t.in_epoch + n;
  if t.in_epoch >= t.epoch_edges then roll t

let feed t e =
  Estimate.feed t.current e;
  advance t 1

(* A slice that ends inside the current epoch goes to it with the
   pipeline's plan.  One that crosses a boundary is cut there, so a
   chunked drive rolls at exactly the per-edge drive's edge counts
   (bit-for-bit equal states across driving modes); the shared plan
   indexes the whole slice, so each piece is planned into the domain's
   {!Feed_scratch.plan}. *)
let feed_planned t plan edges ~pos ~len =
  if len <= t.epoch_edges - t.in_epoch then begin
    Estimate.feed_planned t.current plan edges ~pos ~len;
    advance t len
  end
  else begin
    let own = Feed_scratch.plan () in
    let rec pieces pos len =
      if len > 0 then begin
        let take = min (t.epoch_edges - t.in_epoch) len in
        Mkc_stream.Chunk_plan.build own edges ~pos ~len:take;
        Estimate.feed_planned t.current own edges ~pos ~len:take;
        advance t take;
        pieces (pos + take) (len - take)
      end
    in
    pieces pos len
  end

type result = {
  estimate : float;
  outcome : Solution.outcome option;
  epochs : int;
  rolled : int;
}

let finalize t =
  let include_current = t.in_epoch > 0 || t.rolled = 0 in
  (* Rebuild the window by the shard-merge path: each frozen epoch is a
     self-contained state; thawing them one by one into a scratch
     estimator and merging them oldest-first into a fresh instance (then
     the in-flight epoch) reproduces the estimator a single pass over
     the live suffix would build. *)
  let merged =
    Mkc_obs.Span.with_ "window.decay_merge" (fun () ->
        let dst = Estimate.create t.params in
        (match live_slots t with
        | [] -> ()
        | slots ->
            let scratch = Estimate.create t.params in
            List.iter
              (fun s ->
                Option.iter
                  (fun f ->
                    (match Estimate.thaw ~into:scratch f with
                    | Ok () -> ()
                    | Error e ->
                        invalid_arg ("Windowed.finalize: a held epoch does not thaw: " ^ e));
                    Estimate.merge_into ~dst scratch)
                  t.ring.(s))
              slots);
        if include_current then Estimate.merge_into ~dst t.current;
        Estimate.finalize dst)
  in
  let estimate =
    match t.decay with
    | None -> merged.Estimate.estimate
    | Some lambda ->
        (* Discounted fold, oldest epoch first: each step ages the
           accumulated mass by one epoch before the newer epoch lands. *)
        let vs = List.map (fun s -> t.ring_est.(s)) (live_slots t) in
        let vs =
          if include_current then vs @ [ (Estimate.finalize t.current).Estimate.estimate ]
          else vs
        in
        (List.fold_left
           (fun acc v -> Decay.combine ~lambda acc (Decay.of_estimate v))
           Decay.identity vs)
          .Decay.v
  in
  {
    estimate;
    outcome = merged.Estimate.outcome;
    epochs = live_epochs t + if include_current && t.in_epoch > 0 then 1 else 0;
    rolled = t.rolled;
  }

let words_breakdown t =
  Mkc_stream.Sink.canonical_breakdown
    (( "ring",
       List.fold_left
         (fun acc s ->
           acc + Option.fold ~none:0 ~some:Estimate.frozen_words t.ring.(s))
         0 (live_slots t) )
    :: Mkc_stream.Sink.prefix_breakdown "current" (Estimate.words_breakdown t.current))

let words t = List.fold_left (fun acc (_, w) -> acc + w) 0 (words_breakdown t)

let stats_totals t = Estimate.stats_totals t.current

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
