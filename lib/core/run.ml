module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module Budget = Mkc_sketch.Space.Budget

type config = {
  domains : int;
  chunk : int;
  cadence : int;
  metrics : bool;
  trace : bool;
  progress : (edges:int -> unit) option;
}

let default =
  {
    domains = 1;
    chunk = Pipe.default_chunk;
    cadence = Sink.Observed.default_cadence;
    metrics = false;
    trace = false;
    progress = None;
  }

type telemetry = {
  log : string option;
  rules : Mkc_obs.Health.rule list;
  probes :
    breakdown:(unit -> (string * int) list) -> Mkc_obs.Telemetry.Recorder.probe array;
  live :
    (Mkc_obs.Series.t -> violations:(unit -> (string * int) list) -> final:bool -> unit)
    option;
}

type 's ckpt = 's Pipe.checkpoint = {
  codec : 's Mkc_stream.Checkpoint.codec;
  every : int;
  save : string option;
  resume : string option;
}

type 'r ledger = {
  path : string;
  params : (string * Mkc_obs.Json.t) list;
  mode : string;
  modes : Mkc_obs.Ledger.mode_stat list;
  stats : 'r -> (string * float) list;
}

type 'r outcome = {
  result : 'r;
  words : int;
  wall_ns : int;
  profiles : (string * Mkc_obs.Space_profile.t) list;
  samples : int;
  appended : (unit, Mkc_obs.Ledger.error) result option;
}

type error =
  | Health_violation of string
  | Budget_exceeded of { budget : int; words : int }
  | Checkpoint of Mkc_stream.Checkpoint.error
  | Telemetry_log of string * Mkc_obs.Telemetry.error
  | Health_rules of string

let error_to_string = function
  | Health_violation msg -> "health rule violated: " ^ msg
  | Budget_exceeded { budget; words } ->
      Printf.sprintf "space budget exceeded: %d words used against a budget of %d" words
        budget
  | Checkpoint e -> "checkpoint: " ^ Mkc_stream.Checkpoint.error_to_string e
  | Telemetry_log (path, e) -> path ^ ": " ^ Mkc_obs.Telemetry.error_to_string e
  | Health_rules msg -> "health rules: " ^ msg

(* Raised out of the drive and turned into [Error] by [run]. *)
exception Abort of error

(* Ring rows retained for the live view; the log and the running
   min/max/last summaries cover the whole run regardless. *)
let telemetry_ring = 512

(* Tie a recorder (and its log, health engine and live view) to the
   observer's sampling cadence. *)
let attach_telemetry t ob =
  let probes = t.probes ~breakdown:(fun () -> Sink.Observed.sampled_breakdown ob) in
  let writer =
    Option.map
      (fun path ->
        match Mkc_obs.Telemetry.Writer.create path ~tracks:(Array.map fst probes) with
        | Ok w -> w
        | Error e -> raise (Abort (Telemetry_log (path, e))))
      t.log
  in
  let recorder = Mkc_obs.Telemetry.Recorder.create ?writer ~capacity:telemetry_ring probes in
  let series = Mkc_obs.Telemetry.Recorder.series recorder in
  let engine =
    match t.rules with
    | [] -> None
    | rules -> (
        (* Rule firings also land in the log as events, stamped with
           the sample they fired on. *)
        let on_event ~name ~value =
          let n = Mkc_obs.Series.length series in
          let at_edges = if n = 0 then 0 else Mkc_obs.Series.row_edges series (n - 1) in
          Mkc_obs.Telemetry.Recorder.event recorder ~at_edges ~name ~value
        in
        try Some (Mkc_obs.Health.create ~on_event series rules)
        with Invalid_argument msg ->
          Mkc_obs.Telemetry.Recorder.close recorder;
          raise (Abort (Health_rules msg)))
  in
  let violations () = match engine with Some e -> Mkc_obs.Health.violations e | None -> [] in
  let paint = Option.map (fun live -> live series ~violations) t.live in
  Sink.Observed.set_on_sample ob (fun ~edges ~words:_ ->
      Mkc_obs.Telemetry.Recorder.sample recorder ~at_edges:edges;
      Option.iter Mkc_obs.Health.check engine;
      Option.iter (fun p -> p ~final:false) paint);
  recorder

(* The drive: one Pipeline.drive call over [shards state] when
   [domains > 1], else over the whole sink; the observer samples and
   [progress] reports between windows, and the observer once more after
   finalize. *)
let drive (type s r) cfg ~observer ~shards ?ckpt ((module M) as sink : (s, r) Sink.sink)
    (state : s) src : r =
  let sinks = if cfg.domains > 1 then shards state else [| Sink.pack sink state |] in
  let on_window ~pos ~len =
    Option.iter (fun ob -> Sink.Observed.window ob ~len) observer;
    Option.iter (fun notify -> notify ~edges:(pos + len)) cfg.progress
  in
  (* A held checkpoint is real space: each save's bytes go on the books. *)
  let on_save ~bytes =
    Option.iter
      (fun ob ->
        Sink.Observed.note_checkpoint ob ~words:(Mkc_stream.Checkpoint.words_of_bytes bytes))
      observer
  in
  match
    Pipe.drive ~domains:cfg.domains ~chunk:cfg.chunk
      ?checkpoint:(Option.map (fun c -> (c, state)) ckpt)
      ~on_save ~on_window sinks src
  with
  | Error e -> raise (Abort (Checkpoint e))
  | Ok () ->
      let r = M.finalize state in
      Option.iter Sink.Observed.sample observer;
      r

let ledger_entry l ~label ~edges ~wall_ns ~words r =
  let wall_s = float_of_int wall_ns /. 1e9 in
  let rate = if wall_s > 0.0 then float_of_int edges /. wall_s else 0.0 in
  let digests, quality = Mkc_obs.Ledger.harvest Mkc_obs.Registry.global in
  {
    Mkc_obs.Ledger.e_label = label;
    e_created_ns = int_of_float (Unix.gettimeofday () *. 1e9);
    e_host = Mkc_obs.Ledger.host_fingerprint ();
    e_params = l.params;
    e_stats =
      [
        ("edges", float_of_int edges);
        ("edges_per_sec", rate);
        ("wall_s", wall_s);
        ("space_words", float_of_int words);
      ]
      @ l.stats r;
    e_modes =
      l.modes
      @ [
          {
            Mkc_obs.Ledger.ms_mode = l.mode;
            ms_repeats = 1;
            ms_best_s = wall_s;
            ms_median_s = wall_s;
            ms_edges_per_sec = rate;
          };
        ];
    e_digests = digests;
    e_quality = quality;
  }

let run (type s r) cfg ?budget ?telemetry ?shards ?ckpt ?(record_metrics = ignore) ?ledger
    ~label ((module M) as sink : (s, r) Sink.sink) (state : s) src : (r outcome, error) result =
  let rules = match telemetry with Some t -> t.rules | None -> [] in
  (* Health counters live in the registry like every other metric. *)
  if cfg.metrics || ledger <> None || rules <> [] then Mkc_obs.Registry.set_enabled true;
  if cfg.trace then Mkc_obs.Trace.set_enabled true;
  let observer =
    if cfg.metrics || cfg.trace || budget <> None || telemetry <> None then
      Some (Sink.Observed.create ~cadence:cfg.cadence ?budget (Sink.pack sink state))
    else None
  in
  let shards = Option.value shards ~default:(fun st -> [| Sink.pack sink st |]) in
  let recorder = ref None in
  let close () = Option.iter Mkc_obs.Telemetry.Recorder.close !recorder in
  let t0 = Mkc_obs.Clock.now_ns () in
  match
    Option.iter
      (fun t -> recorder := Some (attach_telemetry t (Option.get observer)))
      telemetry;
    drive cfg ~observer ~shards ?ckpt sink state src
  with
  | exception e -> (
      close ();
      match e with
      | Abort err -> Error err
      | Mkc_obs.Health.Violation msg -> Error (Health_violation msg)
      | Budget.Exceeded { budget; words } -> Error (Budget_exceeded { budget; words })
      | e -> raise e)
  | result ->
      let wall_ns = Mkc_obs.Clock.now_ns () - t0 in
      close ();
      let words = M.words state in
      if cfg.metrics || ledger <> None then begin
        record_metrics result;
        Option.iter Sink.Observed.budget_evidence budget
      end;
      let edges = Mkc_stream.Stream_source.length src in
      Ok
        {
          result;
          words;
          wall_ns;
          profiles =
            (match observer with
            | Some ob when cfg.metrics -> [ (label, Sink.Observed.profile ob) ]
            | _ -> []);
          samples =
            (match !recorder with
            | Some r -> Mkc_obs.Series.total (Mkc_obs.Telemetry.Recorder.series r)
            | None -> 0);
          appended =
            Option.map
              (fun l ->
                Mkc_obs.Ledger.append l.path
                  (ledger_entry l ~label ~edges ~wall_ns ~words result))
              ledger;
        }
