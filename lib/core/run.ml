module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module Budget = Mkc_sketch.Space.Budget
module Series = Mkc_obs.Series
module Telemetry = Mkc_obs.Telemetry

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
    cadence = 65536;
    metrics = false;
    trace = false;
    progress = None;
  }

type sample = {
  at_ns : int;
  at_edges : int;
  breakdown : (string * int) list;
  words : int;
  totals : (string * int) list;
}

type probe = string * (sample -> int)

type probes = {
  read_totals : unit -> (string * int) list;
  tracks : breakdown:(string * int) list -> probe array;
}

type telemetry = { log : string option; rules : Mkc_obs.Health.rule list; probes : probes }

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

(* Ring rows retained in memory for the health rules; the log and the
   running min/max/last summaries cover the whole run regardless. *)
let telemetry_ring = 512

(* A run's telemetry: each sample's probe row, kept in the series the
   health rules watch and appended to the log. *)
type recording = {
  read_totals : unit -> (string * int) list;
  probes : probe array;
  row : int array;
  series : Series.t;
  writer : Telemetry.Writer.t option;
  health : Mkc_obs.Health.engine option;
}

let start_recording (t : telemetry) observed =
  let probes =
    t.probes.tracks ~breakdown:(Sink.canonical_breakdown (Sink.Any.words_breakdown observed))
  in
  let names = Array.map fst probes in
  let writer =
    Option.map
      (fun path ->
        match Telemetry.Writer.create path ~tracks:names with
        | Ok w -> w
        | Error e -> raise (Abort (Telemetry_log (path, e))))
      t.log
  in
  let series = Series.create ~capacity:telemetry_ring ~tracks:names in
  let health =
    match t.rules with
    | [] -> None
    | rules -> (
        (* Rule firings also land in the log as events, stamped with
           the sample they fired on (a rule fires only after a row). *)
        let on_event ~name ~value =
          Option.iter
            (fun w ->
              Telemetry.Writer.event w ~at_ns:(Mkc_obs.Clock.now_ns ())
                ~at_edges:(Series.row_edges series (Series.length series - 1))
                ~name ~value)
            writer
        in
        try Some (Mkc_obs.Health.create ~on_event series rules)
        with Invalid_argument msg ->
          Option.iter Telemetry.Writer.close writer;
          raise (Abort (Health_rules msg)))
  in
  {
    read_totals = t.probes.read_totals;
    probes;
    row = Array.make (Array.length probes) 0;
    series;
    writer;
    health;
  }

(* The one sampler of a run.  It wraps nothing: the drive calls
   [window] between windows, while every worker is quiescent, and
   [sample] once after finalize.  With a pooled drive the observed sink
   is the whole composite, not its shards. *)
type sampler = {
  observed : Sink.any;
  cadence : int;
  budget : Budget.t option;
  recording : recording option;
  mutable edges : int;
  mutable next_at : int;
  (* Words of the last checkpoint saved (0 until one is): a held
     checkpoint is real space, so it joins the breakdown under its own
     key and the budget sees it. *)
  mutable ckpt_words : int;
}

let create_sampler (cfg : config) ?budget ?telemetry observed =
  if cfg.cadence < 1 then invalid_arg "Run.run: cadence must be >= 1";
  {
    observed;
    cadence = cfg.cadence;
    budget;
    recording = Option.map (fun t -> start_recording t observed) telemetry;
    edges = 0;
    next_at = cfg.cadence;
    ckpt_words = 0;
  }

let close_sampler s =
  Option.iter (fun r -> Option.iter Telemetry.Writer.close r.writer) s.recording

(* Every decision about one sample, in order: one breakdown walk (every
   sink's words are the sum of its breakdown), one totals read, the
   trace counter, the probe row (series and log), the health rules, and
   the budget last: a strict abort still leaves this sample in the log
   and the trace. *)
let sample s =
  let inner = Sink.Any.words_breakdown s.observed in
  let breakdown =
    Sink.canonical_breakdown
      (if s.ckpt_words > 0 then ("checkpoint", s.ckpt_words) :: inner else inner)
  in
  let words = List.fold_left (fun acc (_, w) -> acc + w) 0 breakdown in
  let totals = match s.recording with Some r -> r.read_totals () | None -> [] in
  let at_ns = Mkc_obs.Clock.now_ns () in
  if Mkc_obs.Trace.enabled () then Mkc_obs.Trace.counter "space.words" ~at_ns words;
  Option.iter
    (fun r ->
      let smp = { at_ns; at_edges = s.edges; breakdown; words; totals } in
      Array.iteri
        (fun i (_, probe) ->
          let v = probe smp in
          r.row.(i) <- v;
          Series.stage r.series i v)
        r.probes;
      Series.commit r.series ~at_ns ~at_edges:s.edges;
      Option.iter (fun w -> Telemetry.Writer.sample w ~at_ns ~at_edges:s.edges r.row) r.writer;
      Option.iter Mkc_obs.Health.check r.health)
    s.recording;
  Option.iter (fun b -> Budget.observe b words) s.budget

(* At most one sample per window; [next_at] realigns to the cadence
   grid, so an oversized window does not trigger a burst of samples. *)
let window s ~len =
  s.edges <- s.edges + len;
  if s.edges >= s.next_at then begin
    sample s;
    s.next_at <- ((s.edges / s.cadence) + 1) * s.cadence
  end

(* The watchdog's verdict as the space.* gauges, where the snapshot and
   the run ledger read it. *)
let budget_evidence b =
  Mkc_obs.Quality.record_budget ~budget_words:(Budget.budget b) ~peak_words:(Budget.peak b)
    ~overshoots:(Budget.overshoots b) ~samples:(Budget.samples b) ()

(* The drive: one Pipeline.drive call over [shards state] when
   [domains > 1], else over the whole sink; the sampler samples and
   [progress] reports between windows, and the sampler once more after
   finalize. *)
let drive (type s r) cfg ~sampler ~shards ?ckpt ((module M) as sink : (s, r) Sink.sink)
    (state : s) src : r =
  let sinks = if cfg.domains > 1 then shards state else [| Sink.pack sink state |] in
  let on_window ~pos ~len =
    Option.iter (fun s -> window s ~len) sampler;
    Option.iter (fun notify -> notify ~edges:(pos + len)) cfg.progress
  in
  (* A held checkpoint is real space: each save's bytes go on the books. *)
  let on_save ~bytes =
    Option.iter
      (fun s -> s.ckpt_words <- Mkc_stream.Checkpoint.words_of_bytes bytes)
      sampler
  in
  match
    Pipe.drive ~domains:cfg.domains ~chunk:cfg.chunk
      ?checkpoint:(Option.map (fun c -> (c, state)) ckpt)
      ~on_save ~on_window sinks src
  with
  | Error e -> raise (Abort (Checkpoint e))
  | Ok () ->
      let r = M.finalize state in
      Option.iter sample sampler;
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
  let shards = Option.value shards ~default:(fun st -> [| Sink.pack sink st |]) in
  let sampler = ref None in
  let close () = Option.iter close_sampler !sampler in
  let t0 = Mkc_obs.Clock.now_ns () in
  match
    if cfg.trace || budget <> None || telemetry <> None then
      sampler := Some (create_sampler cfg ?budget ?telemetry (Sink.pack sink state));
    drive cfg ~sampler:!sampler ~shards ?ckpt sink state src
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
        Option.iter budget_evidence budget
      end;
      let edges = Mkc_stream.Stream_source.length src in
      Ok
        {
          result;
          words;
          wall_ns;
          samples =
            (match !sampler with
            | Some { recording = Some r; _ } -> Series.total r.series
            | _ -> 0);
          appended =
            Option.map
              (fun l ->
                Mkc_obs.Ledger.append l.path
                  (ledger_entry l ~label ~edges ~wall_ns ~words result))
              ledger;
        }
