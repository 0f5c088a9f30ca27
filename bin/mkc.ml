(* mkc — command-line driver for the streaming Max k-Cover library.

   Subcommands:
     generate    synthesize an instance and write its edge stream to a file
     estimate    single-pass α-approximate coverage estimation (Thm 3.1)
                 (--checkpoint/--resume for crash tolerance)
     report      single-pass α-approximate k-cover reporting (Thm 3.2)
     greedy      offline full-memory greedy baseline
     merge       merge edge-partitioned shard checkpoints and finalize
     lowerbound  play the §5 one-way DSJ communication game
     top         live (or replayed) telemetry dashboard
     telemetry-report
                 summarize a --telemetry log
     doctor      validate and cross-check a run's observability artifacts *)

open Cmdliner

let stream_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "stream"; "s" ] ~docv:"FILE"
        ~doc:
          "Edge stream file: text (lines: \"set elt\") or the binary columnar format \
           (see the convert subcommand); detected by magic bytes.")

let k_arg = Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc:"Cover budget k.")

let alpha_arg =
  Arg.(
    value & opt float 4.0
    & info [ "alpha"; "a" ] ~docv:"A"
        ~doc:"Approximation target α; estimate and report need α > 1/(1 − 1/e) ≈ 1.582.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let profile_arg =
  let profile_conv =
    Arg.enum [ ("practical", Mkc_core.Params.Practical); ("paper", Mkc_core.Params.Paper) ]
  in
  Arg.(
    value & opt profile_conv Mkc_core.Params.Practical
    & info [ "profile" ] ~docv:"PROFILE"
        ~doc:"Constant profile: $(b,practical) (calibrated) or $(b,paper) (Table 2 literal).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Ingestion domains. With D > 1 the independent oracle instances are \
           bin-packed across a persistent pool of D domains; results are \
           identical to a sequential run.  Default: the host's recommended domain \
           count, capped by the instance count; 1 for a stream of at most one chunk.")

let pos_int ~what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | _ -> Error (`Msg (what ^ " must be a positive integer"))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_float ~what =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 -> Ok v
    | _ -> Error (`Msg (what ^ " must be a positive number of seconds"))
  in
  Arg.conv (parse, Format.pp_print_float)

(* Flag misuse: a named error on stderr and exit 2. *)
let misuse fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "mkc: %s@." msg;
      exit 2)
    fmt

(* Cadence-style flags are range-checked in the command body, not in a
   cmdliner converter: a converter error is a generic usage failure
   (exit 124), while the contract for a zero or negative cadence is a
   named error on stderr and exit 2. *)
let require_pos ~flag v =
  if v < 1 then misuse "%s must be a positive integer (got %d)" flag v

let chunk_arg =
  Arg.(
    value
    & opt int Mkc_stream.Pipeline.default_chunk
    & info [ "chunk" ] ~docv:"EDGES" ~doc:"Ingestion chunk size in edges.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Atomically save the sink state to $(docv) every $(b,--checkpoint-every) chunks \
           and once at end-of-stream (the final file feeds $(b,mkc merge)).")

let checkpoint_every_arg =
  Arg.(
    value
    & opt int Mkc_stream.Pipeline.default_checkpoint_every
    & info [ "checkpoint-every" ] ~docv:"CHUNKS" ~doc:"Chunks between checkpoint saves.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Restore state from a checkpoint written by $(b,--checkpoint) and continue the \
           stream from the checkpointed position.  The run must use the same stream, \
           parameters and seed; any mismatch or corruption is rejected by name.")

let stop_after_arg =
  Arg.(
    value
    & opt (some (pos_int ~what:"stop-after")) None
    & info [ "stop-after" ] ~docv:"EDGES"
        ~doc:
          "Stop ingesting after $(docv) edges of the stream (crash simulation for the \
           resume workflow; combine with --checkpoint).")

let force_m_arg =
  Arg.(
    value
    & opt (some (pos_int ~what:"m")) None
    & info [ "force-m" ] ~docv:"M"
        ~doc:
          "Override the number of sets inferred from the stream.  Shard-merge runs must \
           pass the full instance's dimensions so every shard builds the same sinks.")

let force_n_arg =
  Arg.(
    value
    & opt (some (pos_int ~what:"n")) None
    & info [ "force-n" ] ~docv:"N" ~doc:"Override the ground-set size inferred from the stream.")

(* ---------- observability plumbing ---------- *)

type obs_opts = {
  show : bool;
  json : string option;
  prom : string option;
  cadence : int;
  trace : string option;
  progress : float option;
}

let obs_term =
  let show =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Print a metrics summary after the run.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write a schema-versioned JSON metrics snapshot to $(docv).")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-prometheus" ] ~docv:"FILE"
          ~doc:"Write a Prometheus text exposition to $(docv).")
  in
  let cadence =
    Arg.(
      value
      & opt int Mkc_core.Run.default.cadence
      & info [ "metrics-cadence" ] ~docv:"EDGES"
          ~doc:
            "Space-observer sampling cadence in edges (the --telemetry samples, the \
             --trace space.words counter and the budget checks), sampled at most once per \
             --chunk window; must be positive.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event / Perfetto JSON timeline to $(docv) (open in \
             ui.perfetto.dev or chrome://tracing).")
  in
  let progress =
    Arg.(
      value
      & opt (some (pos_float ~what:"progress interval")) None
      & info [ "progress" ] ~docv:"SEC"
          ~doc:"Print an ingestion heartbeat to stderr every $(docv) seconds.")
  in
  Term.(
    const (fun show json prom cadence trace progress ->
        { show; json; prom; cadence; trace; progress })
    $ show $ json $ prom $ cadence $ trace $ progress)

let budget_strict_arg =
  Arg.(
    value & flag
    & info [ "budget-strict" ]
        ~doc:
          "Enable the space-budget watchdog in strict mode: abort (exit 3) as soon as a \
           sampled word count exceeds the theoretical budget from the parameters.")

let metrics_wanted o = o.show || o.json <> None || o.prom <> None

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg ->
    Format.eprintf "mkc: %s@." msg;
    exit 2

let emit_metrics o =
  let snap = Mkc_obs.Snapshot.capture Mkc_obs.Registry.global in
  Option.iter (fun file -> write_file file (Mkc_obs.Snapshot.to_string snap)) o.json;
  Option.iter (fun file -> write_file file (Mkc_obs.Export.prometheus snap)) o.prom;
  if o.show then print_string (Mkc_obs.Export.summary snap)

let emit_trace o =
  match o.trace with
  | None -> ()
  | Some file ->
      let events = Mkc_obs.Trace.events () in
      write_file file (Mkc_obs.Trace.to_string ~events ());
      Format.printf "wrote trace: %s (%d events)@." file (List.length events)

let print_budget b =
  let open Mkc_sketch.Space.Budget in
  Format.printf "space budget: %d words, peak %d, headroom %.2f%s@." (budget b) (peak b)
    (headroom b)
    (if overshoots b > 0 then Printf.sprintf " (%d overshoots)" (overshoots b) else "")

(* Wall-clock-throttled stderr heartbeat for [--progress]; the run
   calls it after every chunk window with the stream position, so all
   policy lives here. *)
let progress_reporter ~total interval_s =
  let interval_ns = int_of_float (interval_s *. 1e9) in
  let start = Mkc_obs.Clock.now_ns () in
  let last = ref start in
  fun ~edges ->
    let now = Mkc_obs.Clock.now_ns () in
    if now - !last >= interval_ns then begin
      last := now;
      let dt = float_of_int (now - start) /. 1e9 in
      Format.eprintf "mkc: %d/%d edges (%.0f%%), %.1fs, %.0f edges/s@." edges total
        (100.0 *. float_of_int edges /. float_of_int (max 1 total))
        dt
        (if dt > 0.0 then float_of_int edges /. dt else 0.0)
    end

(* ---------- telemetry plumbing ---------- *)

type telem_opts = { tfile : string option; thealth : string list }

let telem_term =
  let tfile =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Write a binary telemetry log to $(docv): one sample of the curated track set \
             per $(b,--metrics-cadence) crossing, replayable with \
             $(b,mkc telemetry-report), $(b,mkc doctor) and $(b,mkc top).")
  in
  let thealth =
    Arg.(
      value & opt_all string []
      & info [ "health" ] ~docv:"RULE"
          ~doc:
            "Arm a health rule checked on every telemetry sample (repeatable): \
             $(b,name=track>limit) or $(b,name=track<limit) (threshold), \
             $(b,name=num/den>ppm) (ratio drift, parts-per-million), or \
             $(b,name=stall:track:window) (no change over $(i,window) samples).  A \
             trailing $(b,!) escalates the rule: its first firing aborts the run with \
             exit 3, like $(b,--budget-strict).")
  in
  Term.(const (fun tfile thealth -> { tfile; thealth }) $ tfile $ thealth)

let telemetry_wanted t = t.tfile <> None || t.thealth <> []

let load_stream path =
  (* Format dispatch on magic bytes: binary columnar files skip text
     parsing entirely and carry (m, n) in the header. *)
  match Mkc_stream.Stream_source.load_auto_dims path with
  | src, m, n -> (src, m, n)
  | exception Failure msg ->
      Format.eprintf "mkc: %s@." msg;
      exit 2
  | exception Sys_error msg ->
      Format.eprintf "mkc: %s@." msg;
      exit 2

(* ---------- windowed-mode plumbing ---------- *)

let window_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "window" ] ~docv:"EPOCHS"
        ~doc:
          "Sliding-window mode: retain the last $(docv) epochs of \
           $(b,--epoch-edges) edges each and answer over their merged states \
           plus the in-flight epoch.")

let epoch_edges_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "epoch-edges" ] ~docv:"EDGES"
        ~doc:"Edges per window epoch (required with $(b,--window)).")

let decay_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "decay" ] ~docv:"LAMBDA"
        ~doc:
          "Exponential-decay query: fold per-epoch estimates with weight \
           $(docv) per epoch of age instead of the uniform window merge.  \
           Must lie strictly between 0 and 1; requires $(b,--window).")

(* ---------- run-ledger plumbing ---------- *)

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Append a run record (params, host fingerprint, wall/ingest stats, histogram \
           digests, quality gauges) to the $(docv) run ledger — durable evidence for \
           $(b,mkc bench-diff) and $(b,mkc doctor).")

(* ---------- generate ---------- *)

let generate kind n m k seed out churn =
  Option.iter
    (fun frac ->
      if not (frac >= 0.0 && frac < 1.0) then
        misuse "--churn must lie in [0, 1) (got %g)" frac)
    churn;
  let sys =
    match kind with
    | `Few_large -> (Mkc_workload.Planted.few_large ~n ~m ~k ~seed).system
    | `Many_small -> (Mkc_workload.Planted.many_small ~n ~m ~k ~seed).system
    | `Common_heavy -> (Mkc_workload.Planted.common_heavy ~n ~m ~k ~beta:4 ~seed).system
    | `Uniform -> Mkc_workload.Random_inst.uniform ~n ~m ~set_size:(max 1 (n / 64)) ~seed
    | `Zipf -> Mkc_workload.Random_inst.zipf_sizes ~n ~m ~max_size:(max 2 (n / 16)) ~skew:1.1 ~seed
    | `Graph -> Mkc_workload.Graph_gen.power_law ~vertices:n ~edges:(8 * n) ~skew:1.2 ~seed
  in
  let src = Mkc_stream.Stream_source.of_system ~seed:(seed + 1) sys in
  let src =
    match churn with
    | None -> src
    | Some frac ->
        Mkc_stream.Stream_source.of_array
          (Mkc_workload.Churn.apply ~frac ~seed:(seed + 2)
             (Mkc_stream.Stream_source.to_array src))
  in
  Mkc_stream.Stream_source.save src out;
  let deletions =
    Array.fold_left
      (fun acc (e : Mkc_stream.Edge.t) -> if e.sign < 0 then acc + 1 else acc)
      0
      (Mkc_stream.Stream_source.to_array src)
  in
  Format.printf "wrote %d pairs (%a%s) to %s@."
    (Mkc_stream.Stream_source.length src)
    Mkc_stream.Set_system.pp_summary sys
    (if deletions > 0 then Printf.sprintf ", %d deletions" deletions else "")
    out

let generate_cmd =
  let kind =
    let kind_conv =
      Arg.enum
        [
          ("few-large", `Few_large);
          ("many-small", `Many_small);
          ("common-heavy", `Common_heavy);
          ("uniform", `Uniform);
          ("zipf", `Zipf);
          ("graph", `Graph);
        ]
    in
    Arg.(value & opt kind_conv `Uniform & info [ "kind" ] ~docv:"KIND" ~doc:"Instance family.")
  in
  let n = Arg.(value & opt int 4096 & info [ "n" ] ~doc:"Ground set size.") in
  let m = Arg.(value & opt int 1024 & info [ "m" ] ~doc:"Number of sets.") in
  let out =
    Arg.(value & opt string "stream.txt" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let churn =
    Arg.(
      value
      & opt (some float) None
      & info [ "churn" ] ~docv:"FRAC"
          ~doc:
            "Turnstile churn: retract a $(docv)-fraction of the generated edges \
             later in the stream (sign -1 lines), each strictly after its \
             insertion.  Must lie in [0, 1).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize an instance and write its edge stream")
    Term.(const generate $ kind $ n $ m $ k_arg $ seed_arg $ out $ churn)

(* ---------- convert ---------- *)

(* The instance dimensions after --force-m/--force-n.  Set ids must stay
   below m (the SmallSet store and its checkpoint decoder check them),
   so a forced m below the stream's is a misuse, named before any
   drive or write. *)
let forced_dims ~m ~n force_m force_n =
  Option.iter
    (fun fm -> if fm < m then misuse "--force-m %d is below the stream's m=%d" fm m)
    force_m;
  (Option.value ~default:m force_m, Option.value ~default:n force_n)

let convert path out to_text force_m force_n =
  let src, m, n = load_stream path in
  let m, n = forced_dims ~m ~n force_m force_n in
  let edges = Mkc_stream.Stream_source.length src in
  (match
     if to_text then Ok (Mkc_stream.Stream_source.save src out)
     else
       Result.map
         (fun (_ : int) -> ())
         (Mkc_stream.Edge_file.write out (Mkc_stream.Stream_source.to_array src) ~n ~m)
   with
  | Ok () -> ()
  | Error e ->
      Format.eprintf "mkc: %s: %s@." out (Mkc_stream.Edge_file.error_to_string e);
      exit 2
  | exception Invalid_argument msg | exception Sys_error msg ->
      Format.eprintf "mkc: %s@." msg;
      exit 2);
  Format.printf "wrote %d edges (m=%d, n=%d) to %s (%s)@." edges m n out
    (if to_text then "text" else "binary columnar")

let convert_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let to_text =
    Arg.(
      value & flag
      & info [ "to-text" ]
          ~doc:"Write the text format instead of the default binary columnar format.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert an edge stream between the text format and the binary columnar \
          format (fixed-width set/element id columns with a checksummed header; \
          parsed without per-line string handling)")
    Term.(const convert $ stream_arg $ out $ to_text $ force_m_arg $ force_n_arg)

(* ---------- estimate ---------- *)

let ckpt_error_exit what e =
  Format.eprintf "mkc: %s: %s@." what (Mkc_stream.Checkpoint.error_to_string e);
  exit 4

let truncate_source src = function
  | None -> src
  | Some edges ->
      let arr = Mkc_stream.Stream_source.to_array src in
      if edges >= Array.length arr then src
      else Mkc_stream.Stream_source.of_array (Array.sub arr 0 edges)

(* ---------- the one answer path ---------- *)

(* The flags estimate and report share.  Report has no telemetry or
   budget flags: its term fills those two fields with the defaults. *)
type run_opts = {
  path : string;
  k : int;
  alpha : float;
  seed : int;
  profile : Mkc_core.Params.profile;
  domains : int option;  (* None: resolve_domains picks *)
  chunk : int;
  oopts : obs_opts;
  ledger : string option;
  window : int option;
  epoch_edges : int option;
  decay : float option;
  topts : telem_opts;
  budget_strict : bool;
}

let run_term telem budget_strict =
  Term.(
    const
      (fun path k alpha seed profile domains chunk oopts ledger window epoch_edges decay
           topts budget_strict ->
        { path; k; alpha; seed; profile; domains; chunk; oopts; ledger; window; epoch_edges;
          decay; topts; budget_strict })
    $ stream_arg $ k_arg $ alpha_arg $ seed_arg $ profile_arg $ domains_arg $ chunk_arg $ obs_term $ ledger_arg $ window_arg $ epoch_edges_arg $ decay_arg $ telem
    $ budget_strict)

(* Every cross-flag rule of estimate and report, decided before any
   stream I/O: a misuse is a named error on stderr and exit 2.  Returns
   the windowed configuration (epochs kept, edges per epoch, decay) and
   the parsed health rules.  [Health.create]'s track-existence check
   needs the probes, so Mkc_core.Run makes it once the sink exists. *)
let check_flags ?(every = 1) ?(ckpt = false) ro =
  require_pos ~flag:"--chunk" ro.chunk;
  require_pos ~flag:"--checkpoint-every" every;
  require_pos ~flag:"--metrics-cadence" ro.oopts.cadence;
  let wincfg =
    match ro.window with
    | None ->
        if ro.epoch_edges <> None then misuse "--epoch-edges requires --window";
        if ro.decay <> None then misuse "--decay requires --window";
        None
    | Some w ->
        require_pos ~flag:"--window" w;
        let e =
          match ro.epoch_edges with
          | Some e ->
              require_pos ~flag:"--epoch-edges" e;
              e
          | None -> misuse "--window requires --epoch-edges"
        in
        Option.iter
          (fun l ->
            if not (l > 0.0 && l < 1.0) then
              misuse "--decay must lie strictly between 0 and 1 (got %g)" l)
          ro.decay;
        if ckpt then
          misuse
            "--window holds its own per-epoch checkpoints; --checkpoint/--resume are not \
             supported in windowed mode";
        Some (w, e, ro.decay)
  in
  let rules =
    List.map
      (fun spec ->
        match Mkc_obs.Health.parse spec with
        | Ok r -> r
        | Error msg -> misuse "--health %S: %s" spec msg)
      ro.topts.thealth
  in
  (wincfg, rules)

(* The domains a run drives: [--domains] as given, else the host's
   recommended count capped by the sink's [instances].  A stream of at
   most one chunk, which a pool could not overlap, stays on the calling
   domain. *)
let resolve_domains ro ~edges ~instances =
  match ro.domains with
  | Some d -> d
  | None when edges <= ro.chunk -> 1
  | None -> max 1 (min (Domain.recommended_domain_count ()) instances)

let ledger_params ro ~domains ~m ~n =
  [
    ("alpha", Mkc_obs.Json.Float ro.alpha);
    ("chunk", Mkc_obs.Json.Int ro.chunk);
    ("domains", Mkc_obs.Json.Int domains);
    ("k", Mkc_obs.Json.Int ro.k);
    ("m", Mkc_obs.Json.Int m);
    ("n", Mkc_obs.Json.Int n);
    ( "profile",
      Mkc_obs.Json.String
        (match ro.profile with Mkc_core.Params.Practical -> "practical" | Paper -> "paper") );
    ("seed", Mkc_obs.Json.Int ro.seed);
    ("stream", Mkc_obs.Json.String (Filename.basename ro.path));
  ]

(* The one observed run behind estimate and report, plain and windowed.
   The flags become one Mkc_core.Run: the space budget (only for a
   command that has a [word_budget]), the progress reporter, telemetry
   (only with [probes]) and the ledger record.  Then the answer and the
   metrics, trace and ledger evidence — or, on an abort, its message
   and exit code.  [print] writes the answer's lines; the "space:" line
   and everything after it are common. *)
let answer ro ~rules ~src ~m ~n ~label ?mode ?word_budget ?probes ?shards ?finalize ?epoch
    ?ckpt ~record_metrics ~print ~stats sink state =
  let total = Mkc_stream.Stream_source.length src in
  let domains =
    resolve_domains ro ~edges:total
      ~instances:(match shards with Some f -> Array.length (f state) | None -> 1)
  in
  let mode =
    match mode with Some m -> m | None -> if domains > 1 then "pool" else "sequential"
  in
  let oopts = ro.oopts in
  let want = metrics_wanted oopts in
  let budget =
    match word_budget with
    | Some words when ro.budget_strict || want ->
        Some (Mkc_sketch.Space.Budget.create ~strict:ro.budget_strict words)
    | _ -> None
  in
  let progress = Option.map (fun sec -> progress_reporter ~total sec) oopts.progress in
  let telemetry =
    match probes with
    | Some probes when telemetry_wanted ro.topts ->
        Some { Mkc_core.Run.log = ro.topts.tfile; rules; probes }
    | _ -> None
  in
  let ledger =
    Option.map
      (fun path ->
        { Mkc_core.Run.path; params = ledger_params ro ~domains ~m ~n; mode; modes = []; stats })
      ro.ledger
  in
  let cfg =
    {
      Mkc_core.Run.domains = domains;
      chunk = ro.chunk;
      cadence = oopts.cadence;
      metrics = want;
      trace = oopts.trace <> None;
      progress;
    }
  in
  match
    Mkc_core.Run.run cfg ?budget ?telemetry ?shards ?finalize ?epoch ?ckpt ~record_metrics
      ?ledger ~label sink state src
  with
  | Error (Checkpoint e) -> ckpt_error_exit "checkpoint" e
  | Error (Health_rules msg) -> misuse "--health: %s" msg
  | Error (Telemetry_log _ as e) -> misuse "%s" (Mkc_core.Run.error_to_string e)
  | Error ((Health_violation _ | Budget_exceeded _) as e) ->
      Format.eprintf "mkc: %s%s@." (Mkc_core.Run.error_to_string e)
        (match e with Budget_exceeded _ -> " (--budget-strict)" | _ -> "");
      (* Still flush the trace: the timeline up to the abort is exactly
         what one wants when diagnosing it. *)
      emit_trace oopts;
      exit 3
  | Ok o ->
      print o.result;
      Format.printf "space: %d words@." o.words;
      Option.iter print_budget budget;
      if telemetry <> None then
        Option.iter
          (fun path -> Format.printf "wrote telemetry: %s (%d samples)@." path o.samples)
          ro.topts.tfile;
      if want then emit_metrics oopts;
      emit_trace oopts;
      Option.iter
        (fun path ->
          match o.appended with
          | Some (Error e) ->
              Format.eprintf "mkc: %s: %s@." path (Mkc_obs.Ledger.error_to_string e);
              exit 2
          | _ -> Format.printf "appended run record to %s@." path)
        ro.ledger

let print_stream ~src ~m ~n =
  Format.printf "stream: %d pairs, m=%d, n=%d@." (Mkc_stream.Stream_source.length src) m n

(* The estimate's answer lines, shared by estimate and merge. *)
let print_estimate ~k (r : Mkc_core.Estimate.result) =
  Format.printf "estimated optimal %d-cover coverage: %.0f@." k r.estimate;
  match r.outcome with
  | Some o ->
      Format.printf "winning subroutine: %a (guess z=%d)@." Mkc_core.Solution.pp_provenance
        o.provenance r.z_guess
  | None -> Format.printf "no subroutine produced a feasible estimate@."

let print_sets sets =
  Format.printf "reported %d sets:@." (List.length sets);
  List.iter (fun id -> Format.printf "  S%d@." id) sets

(* A windowed answer: the same run over Windowed's epoch rings, one shard
   per instance, with the drive's windows cut at the epoch boundaries.
   Estimate and report differ only in the headline and in how the
   merged window's winning oracle is shown; for report it carries the
   witness ids, so the reported cover is the one a fresh pass over the
   live suffix would name.  The metrics are the query's: the merged
   window's winners and finalize-time stats. *)
let answer_windowed ro ~rules ~src ~m ~n ~label ?word_budget ~headline ~print_outcome params
    (window, epoch_edges, decay) =
  let w = Mkc_core.Windowed.create ?decay params ~window ~epoch_edges () in
  answer ro ~rules ~src ~m ~n ~label ~mode:"windowed" ?word_budget
    ~probes:(Mkc_core.Telemetry_probes.build_windowed w)
    ~shards:Mkc_core.Windowed.shards ~finalize:Mkc_core.Windowed.finalize ~epoch:epoch_edges
    ~record_metrics:(fun _ ->
      Option.iter Mkc_core.Estimate.record_metrics (Mkc_core.Windowed.merged w))
    ~print:(fun (r : Mkc_core.Windowed.result) ->
      print_stream ~src ~m ~n;
      Format.printf "%s (%d epochs%s): %.0f@." headline r.epochs
        (match decay with Some l -> Printf.sprintf ", decay %g" l | None -> "")
        r.estimate;
      print_outcome r.outcome;
      Format.printf "epochs rolled: %d@." r.rolled)
    ~stats:(fun r -> [ ("epochs_rolled", float_of_int r.rolled); ("estimate", r.estimate) ])
    Mkc_core.Windowed.sink w

(* Feige's threshold 1/(1 − 1/e): no polynomial-time algorithm
   approximates max k-cover within a smaller factor unless P = NP, and
   Theorem 3.1's range of α starts above it. *)
let feige_alpha = 1.0 /. (1.0 -. exp (-1.0))

(* The instance's params, refused by name (exit 2) before anything is
   allocated when α is not above Feige's threshold, when the flags and
   the stream's dimensions do not make a valid instance, or when the
   instance is over [Estimate]'s size ceiling: a stray huge set id would
   otherwise size LargeSet's tables from it. *)
let instance_params ro ~m ~n =
  if ro.alpha <= feige_alpha then
    misuse "--alpha must exceed 1/(1 - 1/e) = %.4f, Feige's threshold (got %g)" feige_alpha
      ro.alpha;
  match
    Mkc_core.Params.make ~m ~n ~k:ro.k ~alpha:ro.alpha ~profile:ro.profile ~seed:ro.seed ()
  with
  | exception Invalid_argument msg -> misuse "%s" msg
  | p -> (
      match Mkc_core.Estimate.check_ceiling p with Ok () -> p | Error msg -> misuse "%s" msg)

let estimate ro ckpt every resume stop_after force_m force_n =
  let wincfg, rules = check_flags ~every ~ckpt:(ckpt <> None || resume <> None) ro in
  let src, m, n = load_stream ro.path in
  let src = truncate_source src stop_after in
  let m, n = forced_dims ~m ~n force_m force_n in
  let params = instance_params ro ~m ~n in
  let word_budget = Mkc_core.Estimate.word_budget params in
  match wincfg with
  | Some ((window, _, _) as cfg) ->
      (* The ring holds up to [window] frozen epochs beside the live
         estimator, each one estimator's state: one budget apiece. *)
      answer_windowed ro ~rules ~src ~m ~n ~label:"estimate"
        ~word_budget:((window + 1) * word_budget)
        ~headline:(Printf.sprintf "windowed %d-cover coverage estimate" ro.k)
        ~print_outcome:(function
          | Some o ->
              Format.printf "winning subroutine: %a@." Mkc_core.Solution.pp_provenance
                o.Mkc_core.Solution.provenance
          | None -> Format.printf "no subroutine produced a feasible estimate@.")
        params cfg
  | None ->
      let est = Mkc_core.Estimate.create params in
      let ckpt =
        if ckpt = None && resume = None then None
        else Some { Mkc_core.Run.codec = Mkc_core.Estimate.codec params; every; save = ckpt; resume }
      in
      answer ro ~rules ~src ~m ~n ~label:"estimate" ~word_budget
        ~probes:(Mkc_core.Telemetry_probes.build est)
        ~shards:Mkc_core.Estimate.shards ~finalize:Mkc_core.Estimate.finalize ?ckpt
        ~record_metrics:(fun _ -> Mkc_core.Estimate.record_metrics est)
        ~print:(fun r ->
          print_stream ~src ~m ~n;
          print_estimate ~k:ro.k r)
        ~stats:(fun r -> [ ("estimate", r.Mkc_core.Estimate.estimate) ])
        Mkc_core.Estimate.sink est

let estimate_cmd =
  Cmd.v
    (Cmd.info "estimate" ~doc:"α-approximate coverage estimation (Theorem 3.1)")
    Term.(
      const estimate $ run_term telem_term budget_strict_arg $ checkpoint_arg
      $ checkpoint_every_arg $ resume_arg $ stop_after_arg $ force_m_arg $ force_n_arg)

(* ---------- report ---------- *)

let report ro =
  let wincfg, rules = check_flags ro in
  let src, m, n = load_stream ro.path in
  let params = instance_params ro ~m ~n in
  match wincfg with
  | Some cfg ->
      answer_windowed ro ~rules ~src ~m ~n ~label:"report"
        ~headline:"windowed estimated coverage"
        ~print_outcome:(fun outcome ->
          print_sets
            (match outcome with
            | Some o ->
                Format.printf "via: %a@." Mkc_core.Solution.pp_provenance o.provenance;
                List.filteri (fun i _ -> i < ro.k) (o.witness ())
            | None -> []))
        params cfg
  | None ->
      let rep = Mkc_core.Report.create params in
      answer ro ~rules ~src ~m ~n ~label:"report" ~shards:Mkc_core.Report.shards
        ~finalize:Mkc_core.Report.finalize
        ~record_metrics:(fun _ -> Mkc_core.Report.record_metrics rep)
        ~print:(fun (r : Mkc_core.Report.result) ->
          Format.printf "estimated coverage: %.0f@." r.estimate;
          Option.iter (Format.printf "via: %a@." Mkc_core.Solution.pp_provenance) r.provenance;
          print_sets r.sets)
        ~stats:(fun r -> [ ("estimate", r.estimate) ])
        Mkc_core.Report.sink rep

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"α-approximate k-cover reporting (Theorem 3.2)")
    Term.(
      const report
      $ run_term (Term.const { tfile = None; thealth = [] }) (Term.const false))

(* ---------- greedy ---------- *)

let greedy path k =
  let src, m, n = load_stream path in
  let sys =
    Mkc_stream.Set_system.of_edges ~n ~m
      (Array.to_list (Mkc_stream.Stream_source.to_array src))
  in
  let r = Mkc_coverage.Greedy.run sys ~k in
  Format.printf "greedy %d-cover coverage: %d@." k r.Mkc_coverage.Greedy.coverage;
  List.iter (fun id -> Format.printf "  S%d@." id) r.Mkc_coverage.Greedy.chosen

let greedy_cmd =
  Cmd.v
    (Cmd.info "greedy" ~doc:"Offline full-memory greedy baseline (1 - 1/e)")
    Term.(const greedy $ stream_arg $ k_arg)

(* ---------- stats ---------- *)

let stats path =
  let src, m, n = load_stream path in
  let sys =
    Mkc_stream.Set_system.of_edges ~n ~m
      (Array.to_list (Mkc_stream.Stream_source.to_array src))
  in
  Format.printf "%a@." Mkc_stream.Set_system.pp_summary sys;
  Format.printf "max element frequency: %d@." (Mkc_stream.Stats.max_frequency sys);
  List.iter
    (fun lambda ->
      Format.printf "|Ucmn(λ=%g)| (freq ≥ m/λ): %d@." lambda
        (Mkc_stream.Stats.ucmn_size sys ~lambda))
    [ 4.0; 16.0; 64.0 ];
  Format.printf "frequency histogram (freq: #elements):@.";
  List.iter
    (fun (f, c) -> if f <= 16 then Format.printf "  %4d: %d@." f c)
    (Mkc_stream.Stats.frequency_histogram sys)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Instance statistics (frequencies, λ-common elements)")
    Term.(const stats $ stream_arg)

(* ---------- lowerbound ---------- *)

let lowerbound m alpha trials seed =
  let r = max 2 (int_of_float (ceil alpha)) in
  let correct = ref 0 and words = ref 0 in
  for t = 1 to trials do
    let case = if t mod 2 = 0 then Mkc_lowerbound.Disjointness.Yes else Mkc_lowerbound.Disjointness.No in
    let d = Mkc_lowerbound.Disjointness.generate ~r ~m ~case ~seed:(seed + t) () in
    let out =
      Mkc_lowerbound.Protocol.play d
        (Mkc_lowerbound.Protocol.coverage_distinguisher ~m ~alpha ~seed:(seed + (1000 * t)) ())
    in
    if out.Mkc_lowerbound.Protocol.correct then incr correct;
    words := max !words out.Mkc_lowerbound.Protocol.message_words
  done;
  Format.printf "α-player DSJ(m=%d, α=%d): %d/%d correct, max message %d words (m/α² = %.0f)@."
    m r !correct trials !words
    (float_of_int m /. (alpha *. alpha))

let lowerbound_cmd =
  let m = Arg.(value & opt int 1024 & info [ "m" ] ~doc:"Item universe size.") in
  let trials = Arg.(value & opt int 10 & info [ "trials" ] ~doc:"Number of game plays.") in
  Cmd.v
    (Cmd.info "lowerbound" ~doc:"Play the §5 one-way set-disjointness game")
    Term.(const lowerbound $ m $ alpha_arg $ trials $ seed_arg)

(* ---------- merge ---------- *)

let merge files =
  (* Shard-merge: each file is the final checkpoint of an independent
     run over one contiguous slice of the stream (same params and seed;
     pass them stream-ordered).  The payload embeds the params, so the
     files are self-describing — no instance flags here. *)
  match files with
  | [] -> assert false (* cmdliner enforces at least one positional *)
  | first :: rest ->
      let load path =
        match
          Mkc_stream.Checkpoint.load ~expect_kind:Mkc_core.Estimate.ckpt_kind ~path ()
        with
        | Ok c -> c
        | Error e -> ckpt_error_exit path e
      in
      let of_ckpt (c : Mkc_stream.Checkpoint.t) path =
        match Mkc_core.Estimate.decode c.payload with
        | Ok est -> est
        | Error msg ->
            Format.eprintf "mkc: %s: %s@." path msg;
            exit 4
      in
      let c0 = load first in
      let est = of_ckpt c0 first in
      let edges = ref c0.pos in
      List.iter
        (fun path ->
          let c = load path in
          if c.seed <> c0.seed then
            ckpt_error_exit path
              (Mkc_stream.Checkpoint.Seed_mismatch { expected = c0.seed; got = c.seed });
          let shard = of_ckpt c path in
          if not (Mkc_core.Params.same_instance (Mkc_core.Estimate.params shard)
                    (Mkc_core.Estimate.params est))
          then begin
            Format.eprintf "mkc: %s: shard params differ from %s@." path first;
            exit 4
          end;
          edges := !edges + c.pos;
          Mkc_core.Estimate.merge_into ~dst:est shard)
        rest;
      let r = Mkc_core.Estimate.finalize est in
      Format.printf "merged %d shard checkpoints covering %d edges@." (List.length files)
        !edges;
      print_estimate ~k:(Mkc_core.Estimate.params est).Mkc_core.Params.k r;
      Format.printf "space: %d words@." (Mkc_core.Estimate.words est)

let merge_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"Shard checkpoint files (from $(b,--checkpoint)), stream-ordered.")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge edge-partitioned shard checkpoints and finalize the combined estimate")
    Term.(const merge $ files)

(* ---------- validate-checkpoint ---------- *)

let validate_checkpoint file =
  match Mkc_stream.Checkpoint.validate (read_file file) with
  | Error e ->
      Format.eprintf "%s: invalid checkpoint: %s@." file
        (Mkc_stream.Checkpoint.error_to_string e);
      exit 1
  | Ok c ->
      (* Deep-validate known payload kinds: the envelope checksum pins
         the bytes, the decoder pins the shape. *)
      (if c.kind = Mkc_core.Estimate.ckpt_kind then
         match Mkc_core.Estimate.decode c.payload with
         | Ok _ -> ()
         | Error msg ->
             Format.eprintf "%s: invalid %s payload: %s@." file c.kind msg;
             exit 1);
      Format.printf "%s: valid %s checkpoint (kind %s, %d edges, seed %d)@." file
        Mkc_stream.Checkpoint.schema c.kind c.pos c.seed

let validate_checkpoint_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Checkpoint file (from --checkpoint).")
  in
  Cmd.v
    (Cmd.info "validate-checkpoint"
       ~doc:
         (Printf.sprintf "Validate a checkpoint file against the %s format"
            Mkc_stream.Checkpoint.schema))
    Term.(const validate_checkpoint $ file)

(* ---------- telemetry subcommands ---------- *)

let telemetry_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Telemetry log file (from --telemetry).")

let load_telemetry file =
  match Mkc_obs.Telemetry.read file with
  | Ok log -> log
  | Error e ->
      Format.eprintf "%s: invalid telemetry log: %s@." file
        (Mkc_obs.Telemetry.error_to_string e);
      exit 1

let warn_torn file (log : Mkc_obs.Telemetry.log) =
  Option.iter
    (fun e ->
      Format.eprintf "%s: warning: torn tail skipped: %s@." file
        (Mkc_obs.Telemetry.error_to_string e))
    log.torn

(* Fold the log's events into sorted (name, (firings, total)) rows. *)
let aggregate_events (log : Mkc_obs.Telemetry.log) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Mkc_obs.Telemetry.event) ->
      let c, v = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl e.e_name) in
      Hashtbl.replace tbl e.e_name (c + 1, v + e.e_value))
    log.events;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let telemetry_report file =
  let log = load_telemetry file in
  warn_torn file log;
  Format.printf "%s: %d tracks, %d samples, %d events@." file (Array.length log.tracks)
    (List.length log.samples) (List.length log.events);
  (* Raw integers, not human-scaled: this table is what round-trip
     checks and scripts consume. *)
  Format.printf "%-26s %8s %14s %14s %14s %14s %14s@." "track" "count" "min" "max" "last"
    "p50" "p99";
  List.iter
    (fun (s : Mkc_obs.Telemetry.summary) ->
      Format.printf "%-26s %8d %14d %14d %14d %14d %14d@." s.t_name s.t_count s.t_min
        s.t_max s.t_last s.t_p50 s.t_p99)
    (Mkc_obs.Telemetry.summarize log);
  match aggregate_events log with
  | [] -> ()
  | events ->
      Format.printf "events:@.";
      List.iter
        (fun (name, (count, total)) ->
          Format.printf "  %-24s x%d (total %d)@." name count total)
        events

let telemetry_report_cmd =
  Cmd.v
    (Cmd.info "telemetry-report"
       ~doc:
         "Replay a --telemetry log into per-track min/max/last/p50/p99 summaries and an \
          event digest")
    Term.(const telemetry_report $ telemetry_file_arg)

(* ---------- top ---------- *)

let top file follow interval =
  (* A torn tail is the normal mid-append state in follow mode; [read]
     already tolerates it, so each poll sees the intact prefix. *)
  let render_once () =
    let log = load_telemetry file in
    let violations =
      List.filter_map
        (fun (name, (_, total)) ->
          match String.split_on_char '.' name with
          | [ "health"; rule; "violations" ] -> Some (rule, total)
          | _ -> None)
        (aggregate_events log)
    in
    Mkc_obs.Top.render ~violations log
  in
  if not follow then print_string (render_once ())
  else begin
    let tty = Unix.isatty Unix.stdout in
    let prev_lines = ref 0 in
    while true do
      let s = render_once () in
      if tty && !prev_lines > 0 then Printf.printf "\027[%dA\027[0J" !prev_lines;
      prev_lines := List.length (String.split_on_char '\n' s) - 1;
      print_string s;
      flush stdout;
      Unix.sleepf interval
    done
  end

let top_cmd =
  let follow =
    Arg.(
      value & flag
      & info [ "follow"; "f" ]
          ~doc:"Keep polling the log and repainting until interrupted (live tail).")
  in
  let interval =
    Arg.(
      value
      & opt (pos_float ~what:"poll interval") 0.5
      & info [ "interval" ] ~docv:"SEC" ~doc:"Poll interval for $(b,--follow).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Render the telemetry dashboard from a --telemetry log (once, or live with \
          $(b,--follow) while a run appends to it)")
    Term.(const top $ telemetry_file_arg $ follow $ interval)

(* ---------- ledger / bench-diff / doctor ---------- *)

let load_ledger ~exit_code file =
  match Mkc_obs.Ledger.read file with
  | Ok store -> store
  | Error e ->
      Format.eprintf "%s: invalid run ledger: %s@." file (Mkc_obs.Ledger.error_to_string e);
      exit exit_code

let warn_ledger_torn file (store : Mkc_obs.Ledger.store) =
  Option.iter
    (fun e ->
      Format.eprintf "%s: warning: torn tail skipped: %s@." file
        (Mkc_obs.Ledger.error_to_string e))
    store.torn

let ledger_action action file index =
  let store = load_ledger ~exit_code:1 file in
  warn_ledger_torn file store;
  let entries = store.entries in
  let n = List.length entries in
  match action with
  | `List ->
      Format.printf "%s: %d records@." file n;
      List.iteri
        (fun i (e : Mkc_obs.Ledger.entry) ->
          let rate =
            match e.e_modes with
            | m :: _ ->
                Printf.sprintf " %s %.0f edges/s (best of %d)" m.ms_mode m.ms_edges_per_sec
                  m.ms_repeats
            | [] -> ""
          in
          Format.printf "  [%d] %-16s created_ns=%d%s@." i e.e_label e.e_created_ns rate)
        entries
  | `Show ->
      if n = 0 then begin
        Format.eprintf "%s: empty run ledger, nothing to show@." file;
        exit 1
      end;
      let i = Option.value ~default:(n - 1) index in
      if i < 0 || i >= n then misuse "--index %d out of range (%d records)" i n;
      print_endline (Mkc_obs.Json.to_string (Mkc_obs.Ledger.entry_to_json (List.nth entries i)))

let ledger_cmd =
  let action =
    let action_conv = Arg.enum [ ("list", `List); ("show", `Show) ] in
    Arg.(
      required
      & pos 0 (some action_conv) None
      & info [] ~docv:"ACTION" ~doc:"$(b,list) or $(b,show).")
  in
  let file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Run ledger file (from --ledger or the pipeline bench).")
  in
  let index =
    Arg.(
      value
      & opt (some int) None
      & info [ "index" ] ~docv:"N" ~doc:"Record to show (0-based; default the newest).")
  in
  Cmd.v
    (Cmd.info "ledger"
       ~doc:
         "List or show the records of an MKCLEDG1 run ledger (checksummed frames; a \
          torn tail is reported but tolerated; $(b,mkc doctor --ledger) validates it)")
    Term.(const ledger_action $ action $ file $ index)

let pick_ledger_entry ~what ~label ~index file =
  let store = load_ledger ~exit_code:2 file in
  warn_ledger_torn file store;
  let entries =
    match label with
    | None -> store.entries
    | Some l ->
        List.filter (fun (e : Mkc_obs.Ledger.entry) -> String.equal e.e_label l) store.entries
  in
  let n = List.length entries in
  if n = 0 then begin
    Format.eprintf "mkc: %s %s has no matching records%s@." what file
      (match label with Some l -> Printf.sprintf " (label %S)" l | None -> "");
    exit 2
  end;
  let i = Option.value ~default:(n - 1) index in
  if i < 0 || i >= n then begin
    Format.eprintf "mkc: %s index %d out of range (%d matching records)@." what i n;
    exit 2
  end;
  List.nth entries i

let bench_diff baseline candidate label bindex cindex noise_floor allow_incomparable =
  if not (Float.is_finite noise_floor && noise_floor >= 0.0) then
    misuse "--noise-floor must be a non-negative number (got %g)" noise_floor;
  let b = pick_ledger_entry ~what:"baseline" ~label ~index:bindex baseline in
  let c = pick_ledger_entry ~what:"candidate" ~label ~index:cindex candidate in
  let opts = { Mkc_obs.Sentinel.default_opts with noise_floor } in
  let r = Mkc_obs.Sentinel.compare_entries ~opts ~baseline:b ~candidate:c () in
  List.iter (fun l -> Format.printf "  %s@." l) r.Mkc_obs.Sentinel.r_lines;
  Format.printf "bench-diff: %s@."
    (Mkc_obs.Sentinel.verdict_to_string r.Mkc_obs.Sentinel.r_verdict);
  match r.Mkc_obs.Sentinel.r_verdict with
  | Mkc_obs.Sentinel.Improved _ | Mkc_obs.Sentinel.Within_noise -> ()
  | Mkc_obs.Sentinel.Regressed _ -> exit 5
  | Mkc_obs.Sentinel.Incomparable _ -> if not allow_incomparable then exit 6

let bench_diff_cmd =
  let baseline =
    Arg.(
      required
      & opt (some string) None
      & info [ "baseline" ] ~docv:"LEDGER" ~doc:"Baseline run ledger.")
  in
  let candidate =
    Arg.(
      required
      & opt (some string) None
      & info [ "candidate" ] ~docv:"LEDGER" ~doc:"Candidate run ledger.")
  in
  let label =
    Arg.(
      value
      & opt (some string) None
      & info [ "label" ] ~docv:"LABEL"
          ~doc:"Compare only records with this label (default: any; newest wins).")
  in
  let bindex =
    Arg.(
      value
      & opt (some int) None
      & info [ "baseline-index" ] ~docv:"N"
          ~doc:"Baseline record (0-based among matches; default the newest).")
  in
  let cindex =
    Arg.(
      value
      & opt (some int) None
      & info [ "candidate-index" ] ~docv:"N"
          ~doc:"Candidate record (0-based among matches; default the newest).")
  in
  let noise_floor =
    Arg.(
      value
      & opt float Mkc_obs.Sentinel.default_opts.Mkc_obs.Sentinel.noise_floor
      & info [ "noise-floor" ] ~docv:"FRAC"
          ~doc:
            "Minimum relative noise band; the effective band is the larger of this and \
             the baseline's own best-vs-median dispersion.")
  in
  let allow_incomparable =
    Arg.(
      value & flag
      & info [ "allow-incomparable" ]
          ~doc:
            "Exit 0 instead of 6 when the records are incomparable (different labels or \
             params) — for CI baselines that may predate a workload change.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare a candidate run-ledger record against a baseline one: throughput \
          against a noise band from the baseline's own repeat dispersion, histogram-p99 \
          shifts, and quality drift.  Exit 0 when within noise or improved, 5 on a \
          regression, 6 when incomparable.")
    Term.(
      const bench_diff $ baseline $ candidate $ label $ bindex $ cindex $ noise_floor
      $ allow_incomparable)

(* ---------- doctor ---------- *)

let torn_note torn = if Option.is_some torn then ", torn tail skipped" else ""

let doctor snapshot telemetry trace ledger =
  if snapshot = None && telemetry = None && trace = None && ledger = None then
    misuse "doctor needs at least one artifact (--snapshot, --telemetry, --trace, --ledger)";
  let checked = ref 0 in
  let snap =
    Option.map
      (fun file ->
        match Mkc_obs.Snapshot.validate (read_file file) with
        | Error e ->
            Format.eprintf "%s: invalid snapshot: %s@." file e;
            exit 1
        | Ok s ->
            incr checked;
            let headroom =
              List.find_map
                (function
                  | { Mkc_obs.Snapshot.mname = "space.headroom"; mvalue = Gauge g } ->
                      Some (Printf.sprintf ", space headroom %.2f" g)
                  | _ -> None)
                s.Mkc_obs.Snapshot.metrics
            in
            Format.printf "doctor: %s: valid %s snapshot (%d metrics%s)@." file
              s.Mkc_obs.Snapshot.schema
              (List.length s.Mkc_obs.Snapshot.metrics)
              (Option.value ~default:"" headroom);
            (file, s))
      snapshot
  in
  Option.iter
    (fun file ->
      let log = load_telemetry file in
      warn_torn file log;
      incr checked;
      Format.printf "doctor: %s: valid telemetry log (%d tracks, %d samples%s)@." file
        (Array.length log.tracks) (List.length log.samples) (torn_note log.torn))
    telemetry;
  Option.iter
    (fun file ->
      match Mkc_obs.Trace.validate (read_file file) with
      | Ok n ->
          incr checked;
          Format.printf "doctor: %s: valid trace_event JSON (%d events)@." file n
      | Error e ->
          Format.eprintf "%s: invalid trace: %s@." file e;
          exit 1)
    trace;
  Option.iter
    (fun file ->
      let store = load_ledger ~exit_code:1 file in
      warn_ledger_torn file store;
      incr checked;
      Format.printf "doctor: %s: valid run ledger (%d records%s)@." file
        (List.length store.entries) (torn_note store.torn);
      (* Cross-check the newest record's final gauges against a
         snapshot from the same run: the ledger's quality gauges and
         histogram digests must agree with what the snapshot froze. *)
      match (snap, List.rev store.entries) with
      | Some (snapfile, s), (last : Mkc_obs.Ledger.entry) :: _ ->
          let metric name =
            List.find_opt
              (fun (m : Mkc_obs.Snapshot.metric) -> String.equal m.mname name)
              s.Mkc_obs.Snapshot.metrics
          in
          List.iter
            (fun (name, q) ->
              match metric name with
              | Some { mvalue = Mkc_obs.Snapshot.Gauge g; _ } when Float.abs (g -. q) <= 1e-9
                ->
                  ()
              | Some { mvalue = Mkc_obs.Snapshot.Gauge g; _ } ->
                  Format.eprintf "%s: quality gauge %S is %.9f in the ledger, %.9f in %s@."
                    file name q g snapfile;
                  exit 1
              | _ ->
                  Format.eprintf "%s: quality gauge %S has no gauge in %s@." file name
                    snapfile;
                  exit 1)
            last.e_quality;
          List.iter
            (fun (name, (d : Mkc_obs.Histogram.digest)) ->
              match metric name with
              | Some { mvalue = Histogram h; _ } when h.count = d.d_count && h.sum = d.d_sum -> ()
              | Some { mvalue = Histogram h; _ } ->
                  Format.eprintf
                    "%s: digest %S (count %d, sum %d) disagrees with %s (count %d, sum %d)@."
                    file name d.d_count d.d_sum snapfile h.count h.sum;
                  exit 1
              | _ ->
                  Format.eprintf "%s: digest %S has no histogram in %s@." file name snapfile;
                  exit 1)
            last.e_digests;
          Format.printf "doctor: %s: newest record matches %s final gauges@." file snapfile
      | _ -> ())
    ledger;
  Format.printf "doctor: %d artifacts consistent@." !checked

let doctor_cmd =
  let opt_file name docv doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)
  in
  let snapshot = opt_file "snapshot" "FILE" "Metrics snapshot (from --metrics-json)." in
  let telemetry = opt_file "telemetry" "FILE" "Telemetry log (from --telemetry)." in
  let trace = opt_file "trace" "FILE" "Trace timeline (from --trace)." in
  let ledger = opt_file "ledger" "FILE" "Run ledger (from --ledger)." in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "One-shot audit of a run's observability artifacts: validate each given file \
          (snapshot, telemetry log, trace, run ledger) and cross-check the one fact two \
          of them share — the newest ledger record's quality gauges and histogram \
          digests against the snapshot's final metrics.  Exit 1 on any invalid file or \
          inconsistency.")
    Term.(const doctor $ snapshot $ telemetry $ trace $ ledger)

let () =
  let info =
    Cmd.info "mkc" ~version:"1.0.0"
      ~doc:"Streaming maximum k-coverage (Indyk-Vakilian, PODS 2019)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            convert_cmd;
            estimate_cmd;
            report_cmd;
            greedy_cmd;
            stats_cmd;
            lowerbound_cmd;
            merge_cmd;
            validate_checkpoint_cmd;
            top_cmd;
            telemetry_report_cmd;
            ledger_cmd;
            bench_diff_cmd;
            doctor_cmd;
          ]))
