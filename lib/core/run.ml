module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module Budget = Mkc_sketch.Space.Budget

type config = {
  domains : int;
  schedule : Pipe.schedule;
  chunk : int;
  cadence : int;
  metrics : bool;
  trace : bool;
  progress : (edges:int -> unit) option;
}

let default =
  {
    domains = 1;
    schedule = Pipe.Static;
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

type 's ckpt = {
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

(* The drive: pooled over [shards] when [domains > 1], else the whole
   sink on the calling domain — observed when [observe], tapped for
   progress unless checkpointing.  [ckpt] routes either through
   Pipeline.run_resumable. *)
let drive (type s r) cfg ~observe ?budget ?telemetry ~recorder ~shards ~costs ?ckpt ~label
    ~profiles ((module M) as sink : (s, r) Sink.sink) (state : s) src : r =
  let resumable ?costs ?on_save codec state ~shards ~finalize =
    let c = Option.get ckpt in
    match
      Pipe.run_resumable ~domains:cfg.domains ~schedule:cfg.schedule ?costs ~chunk:cfg.chunk
        ~every:c.every ?resume:c.resume ?checkpoint:c.save ?on_save codec state ~shards
        ~finalize src
    with
    | Ok r -> r
    | Error e -> raise (Abort (Checkpoint e))
  in
  if cfg.domains > 1 then begin
    (* Budgets are single-domain mutable state, so no shard observer
       gets one: the total words are checked once at finalize. *)
    let final_samples = ref [] in
    let observed_shards st =
      if not cfg.metrics then shards st
      else
        Array.mapi
          (fun i s ->
            let ob = Sink.Observed.observe_any ~cadence:cfg.cadence s in
            profiles := (Printf.sprintf "shard%d" i, ob.Sink.Observed.oprofile) :: !profiles;
            final_samples := ob.Sink.Observed.osample :: !final_samples;
            ob.Sink.Observed.osink)
          (shards st)
    in
    let finalize st =
      List.iter (fun sample -> sample ()) !final_samples;
      Option.iter (fun b -> Budget.observe b (M.words st)) budget;
      M.finalize st
    in
    match ckpt with
    | Some c -> resumable ~costs c.codec state ~shards:observed_shards ~finalize
    | None ->
        Pipe.feed_all_parallel ~domains:cfg.domains ~schedule:cfg.schedule ~costs
          ~chunk:cfg.chunk (observed_shards state) src;
        finalize state
  end
  else
    let one (type a) ?on_save ((module A) as m : (a, r) Sink.sink) (st : a) (state_of : a -> s)
        =
      match (ckpt, cfg.progress) with
      | Some c, _ ->
          resumable ?on_save
            (Mkc_stream.Checkpoint.map_codec state_of c.codec)
            st
            ~shards:(fun st -> [| Sink.pack m st |])
            ~finalize:A.finalize
      | None, Some notify ->
          let tm, tp = Sink.Tap.tap m st ~notify in
          Pipe.run ~chunk:cfg.chunk tm tp src
      | None, None -> Pipe.run ~chunk:cfg.chunk m st src
    in
    if observe then begin
      let sm, ob = Sink.Observed.observe ~cadence:cfg.cadence ?budget sink state in
      if cfg.metrics then profiles := [ (label, Sink.Observed.profile ob) ];
      Option.iter (fun t -> recorder := Some (attach_telemetry t ob)) telemetry;
      (* Aim the codec at the inner sink and put each save's bytes on the
         space books — a held checkpoint is real space. *)
      one sm ob Sink.Observed.state ~on_save:(fun ~pos:_ ~bytes:_ ~words ->
          Sink.Observed.note_checkpoint ob ~words)
    end
    else one sink state Fun.id

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

let run (type s r) cfg ?budget ?telemetry ?(shards = fun _ -> [||]) ?(costs = [||]) ?ckpt
    ?(record_metrics = ignore) ?ledger ~label ((module M) as sink : (s, r) Sink.sink)
    (state : s) src : (r outcome, error) result =
  let rules = match telemetry with Some t -> t.rules | None -> [] in
  (* Health counters live in the registry like every other metric. *)
  if cfg.metrics || ledger <> None || rules <> [] then Mkc_obs.Registry.set_enabled true;
  if cfg.trace then Mkc_obs.Trace.set_enabled true;
  let telemetry = if cfg.domains > 1 then None else telemetry in
  let observe = cfg.metrics || cfg.trace || budget <> None || telemetry <> None in
  let recorder = ref None and profiles = ref [] in
  let close () = Option.iter Mkc_obs.Telemetry.Recorder.close !recorder in
  let t0 = Mkc_obs.Clock.now_ns () in
  match
    drive cfg ~observe ?budget ?telemetry ~recorder ~shards ~costs ?ckpt ~label ~profiles sink
      state src
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
          profiles = List.rev !profiles;
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
