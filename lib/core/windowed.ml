(* Sliding-window / exponential-decay coverage estimation on top of the
   checkpoint machinery: the stream is cut into fixed-size epochs, each
   epoch runs a fresh {!Estimate} instance whose encoded state is
   checkpointed into a ring of the last [window] epochs when the epoch
   rolls, and a query rebuilds one estimator by merging the ring states
   (oldest first) plus the in-flight epoch — exactly the shard-merge
   path, so the windowed answer is the answer a fresh run over the live
   suffix would give.  Exponential decay reuses the same ring but folds
   the per-epoch finalized estimates through the {!Decay} monoid instead
   of trusting the undiscounted merge. *)

module Json = Mkc_obs.Json

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
  epsilon : float;
  mutable current : Estimate.t;
  mutable in_epoch : int;
  (* Plan for the pieces of a slice that straddles a roll; created on
     the first such slice, so a drive whose chunks never straddle one
     holds no plan of its own. *)
  mutable own_plan : Mkc_stream.Chunk_plan.t option;
  ring : Json.t option array; (* encoded epoch states, slot i valid iff Some *)
  ring_est : float array; (* per-epoch finalized estimates, slot-aligned *)
  ring_words : int array; (* serialized size of each held payload *)
  mutable head : int; (* next slot to overwrite *)
  mutable rolled : int;
  mutable champion : float;
  mutable swaps : int;
  c_rolled : Mkc_obs.Registry.counter;
  c_swaps : Mkc_obs.Registry.counter;
  g_epochs : Mkc_obs.Registry.gauge;
}

let create ?(epsilon = 0.1) ?decay params ~window ~epoch_edges () =
  if window < 1 then invalid_arg "Windowed.create: window must be >= 1";
  if epoch_edges < 1 then invalid_arg "Windowed.create: epoch_edges must be >= 1";
  (match decay with
  | Some l when not (l > 0.0 && l < 1.0) ->
      invalid_arg "Windowed.create: decay must lie in (0, 1)"
  | _ -> ());
  if epsilon <= 0.0 then invalid_arg "Windowed.create: epsilon must be positive";
  let reg = Mkc_obs.Registry.global in
  {
    params;
    window;
    epoch_edges;
    decay;
    epsilon;
    current = Estimate.create params;
    in_epoch = 0;
    own_plan = None;
    ring = Array.make window None;
    ring_est = Array.make window 0.0;
    ring_words = Array.make window 0;
    head = 0;
    rolled = 0;
    champion = 0.0;
    swaps = 0;
    c_rolled = Mkc_obs.Registry.counter reg "window.rolled";
    c_swaps = Mkc_obs.Registry.counter reg "window.swaps";
    g_epochs = Mkc_obs.Registry.gauge reg "window.epochs";
  }

let params t = t.params
let current t = t.current
let rolled t = t.rolled
let swaps t = t.swaps

(* Full epochs currently held in the ring. *)
let live_epochs t = min t.rolled t.window

(* Live ring slots, oldest epoch first.  Before the ring wraps the
   epochs sit in slots [0 .. rolled-1]; afterwards [head] is both the
   next victim and the oldest survivor. *)
let live_slots t =
  let p = live_epochs t in
  List.init p (fun i -> if t.rolled < t.window then i else (t.head + i) mod t.window)

(* Payload size on the space books: a held epoch checkpoint is real
   space, same argument as Observed.note_checkpoint. *)
let payload_words j = (String.length (Json.to_string j) + 7) / 8

let roll t =
  let r = Estimate.finalize t.current in
  let payload = Estimate.encode t.current in
  t.ring.(t.head) <- Some payload;
  t.ring_est.(t.head) <- r.Estimate.estimate;
  t.ring_words.(t.head) <- payload_words payload;
  t.head <- (t.head + 1) mod t.window;
  t.rolled <- t.rolled + 1;
  Mkc_obs.Registry.incr t.c_rolled;
  Mkc_obs.Registry.set t.g_epochs (float_of_int (live_epochs t));
  (* Champion bookkeeping over the live ring: a swap fires only when
     the incoming epoch clears the sieve's (1+ε) bar over the standing
     champion, so noise-level wobble between epochs never churns it. *)
  let live_max =
    List.fold_left (fun acc s -> Float.max acc t.ring_est.(s)) 0.0 (live_slots t)
  in
  if Mkc_coverage.Sieve.improves ~epsilon:t.epsilon ~champion:t.champion r.Estimate.estimate
  then begin
    t.swaps <- t.swaps + 1;
    Mkc_obs.Registry.incr t.c_swaps
  end;
  t.champion <- live_max;
  t.current <- Estimate.create t.params;
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
   indexes the whole slice, so each piece is planned privately. *)
let feed_planned t plan edges ~pos ~len =
  if len <= t.epoch_edges - t.in_epoch then begin
    Estimate.feed_planned t.current plan edges ~pos ~len;
    advance t len
  end
  else begin
    let own =
      match t.own_plan with
      | Some p -> p
      | None ->
          let p = Mkc_stream.Chunk_plan.create () in
          t.own_plan <- Some p;
          p
    in
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
  swaps : int;
}

let finalize t =
  let include_current = t.in_epoch > 0 || t.rolled = 0 in
  (* Rebuild the window by the shard-merge path: each held payload is a
     self-contained epoch state; merging them oldest-first into a fresh
     instance (then the in-flight epoch) reproduces the estimator a
     single pass over the live suffix would build. *)
  let merged =
    Mkc_obs.Span.with_ "window.decay_merge" (fun () ->
        let dst = Estimate.create t.params in
        List.iter
          (fun s ->
            match t.ring.(s) with
            | None -> ()
            | Some payload -> (
                match Estimate.of_payload payload with
                | Ok e -> Estimate.merge_into ~dst e
                | Error msg -> invalid_arg ("Windowed.finalize: corrupt epoch state: " ^ msg)))
          (live_slots t);
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
    swaps = t.swaps;
  }

let words_breakdown t =
  Mkc_stream.Sink.canonical_breakdown
    (( "ring",
       List.fold_left (fun acc s -> acc + t.ring_words.(s)) 0 (live_slots t) )
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
