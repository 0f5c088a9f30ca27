module type S = sig
  type t
  type result

  val feed : t -> Edge.t -> unit
  val feed_planned : t -> Chunk_plan.t -> Edge.t array -> pos:int -> len:int -> unit
  val finalize : t -> result
  val words : t -> int
  val words_breakdown : t -> (string * int) list
end

type ('s, 'r) sink = (module S with type t = 's and type result = 'r)
type any = Any : ('s, 'r) sink * 's -> any

let pack m s = Any (m, s)

module Any = struct
  let feed (Any ((module M), s)) e = M.feed s e

  let feed_planned (Any ((module M), s)) plan edges ~pos ~len =
    M.feed_planned s plan edges ~pos ~len

  let words (Any ((module M), s)) = M.words s
  let words_breakdown (Any ((module M), s)) = M.words_breakdown s
end

(* Canonical form of a words_breakdown: duplicate keys merged by sum,
   sorted by key.  Component keys are dot-namespaced by convention
   ("oracle.large_common.l0"), so a sorted list reads as a tree. *)
let canonical_breakdown kvs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    kvs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let prefix_breakdown prefix kvs = List.map (fun (k, v) -> (prefix ^ "." ^ k, v)) kvs

module Observed = struct
  type t = {
    sink : any;
    profile : Mkc_obs.Space_profile.t;
    budget : Mkc_sketch.Space.Budget.t option;
    mutable edges : int;
    mutable next_at : int;
    (* Words held by the most recent serialized checkpoint of the sink
       (0 until one is taken).  Checkpointing is real space the process
       pays for, so it joins the breakdown under its own key and the
       budget watchdog sees it. *)
    mutable ckpt_words : int;
    (* Sample fan-out: the telemetry recorder (and anything else that
       wants the cadence heartbeat) hooks in here.  Called after the
       profile point is recorded but before the budget watchdog, so a
       strict-mode abort still leaves the final sample in the log. *)
    mutable on_sample : (edges:int -> words:int -> unit) option;
    (* The breakdown the most recent [sample] recorded — so the
       telemetry probes riding [on_sample] can read the walk the sample
       already paid for instead of re-walking (and re-flushing) every
       sketch.  Empty until the first sample. *)
    mutable last_bd : (string * int) list;
  }

  let default_cadence = 65536

  let create ?(cadence = default_cadence) ?budget sink =
    if cadence < 1 then invalid_arg "Sink.Observed.create: cadence must be >= 1";
    {
      sink;
      profile = Mkc_obs.Space_profile.create ~cadence;
      budget;
      edges = 0;
      next_at = cadence;
      ckpt_words = 0;
      on_sample = None;
      last_bd = [];
    }

  let profile t = t.profile
  let set_on_sample t f = t.on_sample <- Some f

  let note_checkpoint t ~words =
    if words < 0 then invalid_arg "Sink.Observed.note_checkpoint: negative words";
    t.ckpt_words <- words

  let words_breakdown t =
    let inner = Any.words_breakdown t.sink in
    canonical_breakdown
      (if t.ckpt_words > 0 then ("checkpoint", t.ckpt_words) :: inner else inner)

  let sampled_breakdown t = match t.last_bd with [] -> words_breakdown t | bd -> bd

  let sample t =
    (* One walk serves both numbers: every sink's [words] is the sum of
       its [words_breakdown] (the S contract — words split by
       component), so the total falls out of the component walk. *)
    let breakdown = words_breakdown t in
    let words = List.fold_left (fun acc (_, w) -> acc + w) 0 breakdown in
    t.last_bd <- breakdown;
    Mkc_obs.Space_profile.record t.profile ~at_edges:t.edges ~words ~breakdown;
    if Mkc_obs.Trace.enabled () then
      Mkc_obs.Trace.counter "space.words" ~at_ns:(Mkc_obs.Clock.now_ns ()) words;
    (match t.on_sample with None -> () | Some f -> f ~edges:t.edges ~words);
    (* Watchdog last: in strict mode [observe] raises on overshoot, and
       the profile point (and telemetry sample) above should survive to
       tell the story. *)
    match t.budget with None -> () | Some b -> Mkc_sketch.Space.Budget.observe b words

  (* At most one sample per window; [next_at] realigns to the cadence
     grid so oversized windows don't trigger a burst of samples. *)
  let window t ~len =
    t.edges <- t.edges + len;
    if t.edges >= t.next_at then begin
      sample t;
      let c = Mkc_obs.Space_profile.cadence t.profile in
      t.next_at <- ((t.edges / c) + 1) * c
    end

  let budget_evidence b =
    let open Mkc_sketch.Space.Budget in
    Mkc_obs.Quality.record_budget ~budget_words:(budget b) ~peak_words:(peak b)
      ~overshoots:(overshoots b) ~samples:(samples b) ()
end

module Set_arrival = struct
  type 'r t = {
    feed_set : int -> int array -> unit;
    fin : unit -> 'r;
    words_of : unit -> int;
    mutable cur : int; (* current set id; -1 = no open set *)
    mutable buf : int array;
    mutable len : int;
  }

  let create ~feed_set ~finalize ~words =
    { feed_set; fin = finalize; words_of = words; cur = -1; buf = Array.make 16 0; len = 0 }

  let flush t =
    if t.cur >= 0 then t.feed_set t.cur (Array.sub t.buf 0 t.len);
    t.cur <- -1;
    t.len <- 0

  let push t elt =
    if t.len = Array.length t.buf then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    t.buf.(t.len) <- elt;
    t.len <- t.len + 1

  let feed t (e : Edge.t) =
    if e.set <> t.cur then begin
      flush t;
      t.cur <- e.set
    end;
    push t e.elt

  (* No deduplicated path: the plan is ignored and the slice replayed
     edge by edge. *)
  let feed_planned t (_ : Chunk_plan.t) edges ~pos ~len =
    for i = pos to pos + len - 1 do
      feed t edges.(i)
    done

  let finalize t =
    flush t;
    t.fin ()

  let words t = t.words_of ()

  let sink (type r) () : (r t, r) sink =
    (module struct
      type nonrec t = r t
      type result = r

      let feed = feed
      let feed_planned = feed_planned
      let finalize = finalize
      let words = words
      let words_breakdown t = [ ("set_arrival", words t) ]
    end)
end
