(* CLI contract tests: flag validation must fail with a named error on
   stderr and exit 2 — not cmdliner's generic usage failure (124) —
   and it must fire before any stream I/O, so a bad flag is reported
   even when the stream file is also wrong.  The answer stdout of every
   estimate/report mode, of a shard merge, and of top and
   telemetry-report on a fixed log is pinned byte for byte against
   test/golden_cli.

   These spawn the real binary (declared as a test dep in dune, so it
   is built and the relative path resolves from the test's cwd). *)

let mkc = "../bin/mkc.exe"

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec find i = i + lb <= ls && (String.sub s i lb = sub || find (i + 1)) in
  find 0

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* exit code, captured stdout and captured stderr of one mkc invocation *)
let run args =
  let out = Filename.temp_file "mkc_cli" ".out" and err = Filename.temp_file "mkc_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s >%s 2>%s" mkc args (Filename.quote out) (Filename.quote err))
      in
      (code, read_all out, read_all err))

let run_capture args =
  let code, _, stderr = run args in
  (code, stderr)

let expect_named_rejection cmd_args ~flag ~got =
  let code, stderr = run_capture cmd_args in
  checki (Printf.sprintf "%s: exit code" cmd_args) 2 code;
  checkb
    (Printf.sprintf "%s: stderr names the flag" cmd_args)
    true
    (contains ~sub:(flag ^ " must be a positive integer") stderr);
  checkb
    (Printf.sprintf "%s: stderr echoes the value" cmd_args)
    true
    (contains ~sub:(Printf.sprintf "(got %d)" got) stderr)

let test_estimate_flag_validation () =
  expect_named_rejection "estimate --stream nope.txt --chunk=0" ~flag:"--chunk" ~got:0;
  expect_named_rejection "estimate --stream nope.txt --chunk=-3" ~flag:"--chunk" ~got:(-3);
  expect_named_rejection "estimate --stream nope.txt --checkpoint-every=0"
    ~flag:"--checkpoint-every" ~got:0;
  expect_named_rejection "estimate --stream nope.txt --checkpoint-every=-8"
    ~flag:"--checkpoint-every" ~got:(-8);
  expect_named_rejection "estimate --stream nope.txt --metrics-cadence=0"
    ~flag:"--metrics-cadence" ~got:0;
  expect_named_rejection "estimate --stream nope.txt --metrics-cadence=-1"
    ~flag:"--metrics-cadence" ~got:(-1)

let test_report_flag_validation () =
  expect_named_rejection "report --stream nope.txt --chunk=-1" ~flag:"--chunk" ~got:(-1);
  expect_named_rejection "report --stream nope.txt --metrics-cadence=0"
    ~flag:"--metrics-cadence" ~got:0

let test_flag_check_precedes_stream_io () =
  (* Same missing stream without the bad flag: still exit 2, but the
     message is about the stream, proving the flag check above (not the
     missing file) produced the named error. *)
  let code, stderr = run_capture "estimate --stream nope.txt" in
  checki "missing stream is exit 2" 2 code;
  checkb "missing stream error is not the flag error" false
    (contains ~sub:"positive integer" stderr)

(* The stream files below are all "nope.txt" (missing): getting the
   flag message instead of the missing-file one proves the validation
   fires before any stream I/O. *)
let expect_rejection cmd_args ~msg =
  let code, stderr = run_capture cmd_args in
  checki (Printf.sprintf "%s: exit code" cmd_args) 2 code;
  checkb (Printf.sprintf "%s: stderr says %S" cmd_args msg) true (contains ~sub:msg stderr);
  checkb
    (Printf.sprintf "%s: stderr does not mention the stream" cmd_args)
    false
    (contains ~sub:"nope.txt" stderr)

let test_windowed_flag_validation () =
  expect_rejection "estimate --stream nope.txt --window 4"
    ~msg:"--window requires --epoch-edges";
  expect_rejection "estimate --stream nope.txt --epoch-edges 10"
    ~msg:"--epoch-edges requires --window";
  expect_rejection "estimate --stream nope.txt --decay 0.5"
    ~msg:"--decay requires --window";
  expect_rejection "estimate --stream nope.txt --window 4 --epoch-edges 10 --decay 1.5"
    ~msg:"--decay must lie strictly between 0 and 1 (got 1.5)";
  expect_rejection "estimate --stream nope.txt --window 4 --epoch-edges 10 --decay 0"
    ~msg:"--decay must lie strictly between 0 and 1 (got 0)";
  expect_rejection
    "estimate --stream nope.txt --window 4 --epoch-edges 10 --checkpoint c.json"
    ~msg:"--checkpoint/--resume are not supported in windowed mode";
  expect_named_rejection "estimate --stream nope.txt --window 0 --epoch-edges 10"
    ~flag:"--window" ~got:0;
  expect_named_rejection "estimate --stream nope.txt --window 4 --epoch-edges=-2"
    ~flag:"--epoch-edges" ~got:(-2);
  (* report shares the same windowed-flag contract *)
  expect_rejection "report --stream nope.txt --window 4"
    ~msg:"--window requires --epoch-edges";
  expect_rejection "report --stream nope.txt --window 4 --epoch-edges 10 --decay 2"
    ~msg:"--decay must lie strictly between 0 and 1 (got 2)";
  (* --health syntax is a cross-flag rule too *)
  expect_rejection "estimate --stream nope.txt --health garbage"
    ~msg:"--health \"garbage\": health rule \"garbage\": expected name=spec"

let test_sign_column_parse_error () =
  (* A bad sign token must be rejected with the 1-based line number and
     the offending token, exit 2 — not a crash, not a partial load. *)
  let path = Filename.temp_file "mkc_cli" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "0 1\n0 2 2\n1 3\n";
      close_out oc;
      let code, stderr = run_capture (Printf.sprintf "estimate --stream %s" path) in
      checki "bad sign token is exit 2" 2 code;
      checkb "stderr names the line" true (contains ~sub:"malformed line 2" stderr);
      checkb "stderr names the token" true
        (contains ~sub:"sign token \"2\" is not +1 or -1" stderr);
      let oc = open_out path in
      output_string oc "0 1\n0 2 +1 9\n" ;
      close_out oc;
      let code, stderr = run_capture (Printf.sprintf "estimate --stream %s" path) in
      checki "extra field is exit 2" 2 code;
      checkb "stderr counts the fields" true
        (contains ~sub:"expected 2 or 3 fields, got 4" stderr))

let run_ok args =
  let code, out, _ = run args in
  checki (Printf.sprintf "%s: exit code" args) 0 code;
  out

(* A few-large planted stream, 17021 pairs (m=512, n=2048), fixed seed:
   the input every golden stdout below was recorded on. *)
let with_stream f =
  let path = Filename.temp_file "mkc_cli_stream" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore
        (run_ok
           (Printf.sprintf "generate --kind few-large -n 2048 -m 512 -k 8 --seed 4 -o %s"
              (Filename.quote path)));
      f path)

let test_report_window_observability () =
  with_stream (fun stream ->
      let snap = Filename.temp_file "mkc_cli" ".json" in
      let trace = Filename.temp_file "mkc_cli" ".trace.json" in
      Fun.protect
        ~finally:(fun () -> List.iter Sys.remove [ snap; trace ])
        (fun () ->
          ignore
            (run_ok
               (Printf.sprintf
                  "report -s %s -k 8 --alpha 4 --window 4 --epoch-edges 2048 --metrics-json \
                   %s --trace %s"
                  stream snap trace));
          (match Mkc_obs.Snapshot.validate (read_all snap) with
          | Ok s -> checkb "snapshot has metrics" true (s.Mkc_obs.Snapshot.metrics <> [])
          | Error e -> Alcotest.failf "report --window snapshot invalid: %s" e);
          match Mkc_obs.Trace.validate (read_all trace) with
          | Ok n -> checkb "trace has events" true (n > 0)
          | Error e -> Alcotest.failf "report --window trace invalid: %s" e))

(* A pooled report finalizes its (z, rep) instances on the drive's
   pool: a traced --domains 2 run shows one estimate.finalize_inst span
   per instance, on both domains, and the trace stays valid. *)
let test_pooled_finalize_spans () =
  with_stream (fun stream ->
      let trace = Filename.temp_file "mkc_cli" ".trace.json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove trace)
        (fun () ->
          ignore
            (run_ok
               (Printf.sprintf "report -s %s -k 8 --alpha 4 --domains 2 --trace %s" stream trace));
          let events =
            match Mkc_obs.Json.parse (read_all trace) with
            | Ok j -> Option.value ~default:[] (Mkc_obs.Json.to_list j)
            | Error e -> Alcotest.failf "trace unparsable: %s" e
          in
          let tids =
            List.filter_map
              (fun ev ->
                match
                  Option.bind (Mkc_obs.Json.member "name" ev) Mkc_obs.Json.to_string_opt
                with
                | Some "estimate.finalize_inst" ->
                    Option.bind (Mkc_obs.Json.member "tid" ev) Mkc_obs.Json.to_int
                | _ -> None)
              events
          in
          checkb "one span per instance, several instances" true (List.length tids > 2);
          checki "the spans are on two domains" 2 (List.length (List.sort_uniq compare tids));
          ignore (run_ok (Printf.sprintf "doctor --trace %s" trace))))

(* The durable log must agree with the live accounting: the last
   space.words sample of a --telemetry run is the "space: N words" line
   the same run prints, plain, pooled and windowed. *)
let test_telemetry_matches_printed_space () =
  with_stream (fun stream ->
      List.iter
        (fun flags ->
          let log = Filename.temp_file "mkc_cli" ".mkctel" in
          Fun.protect
            ~finally:(fun () -> Sys.remove log)
            (fun () ->
              let out =
                run_ok
                  (Printf.sprintf "estimate -s %s -k 8 --alpha 4 --telemetry %s %s" stream
                     log flags)
              in
              let printed =
                List.find_map
                  (fun l -> Scanf.sscanf_opt l "space: %d words%!" Fun.id)
                  (String.split_on_char '\n' out)
              in
              match (printed, Mkc_obs.Telemetry.read log) with
              | None, _ -> Alcotest.failf "%S: no space line in stdout" flags
              | _, Error e ->
                  Alcotest.failf "%S: telemetry log invalid: %s" flags
                    (Mkc_obs.Telemetry.error_to_string e)
              | Some words, Ok t -> (
                  checkb (flags ^ ": no pool tracks") false
                    (Array.exists
                       (fun n -> String.starts_with ~prefix:"pipeline.pool." n)
                       t.tracks);
                  let track = ref (-1) in
                  Array.iteri (fun i n -> if n = "space.words" then track := i) t.tracks;
                  match List.rev t.samples with
                  | last :: _ when !track >= 0 ->
                      checki (flags ^ ": last space.words sample") words
                        last.values.(!track)
                  | _ -> Alcotest.failf "%S: no space.words sample" flags)))
        [ ""; "--domains 2"; "--window 4 --epoch-edges 2048" ])

(* A strict windowed run is charged its ring: at 16 epochs of 1024
   edges this healthy stream peaks above one estimator's budget (that
   of the plain strict run), so it passes only because each held epoch
   brings a budget of its own, the live estimator one more. *)
let test_window_budget_strict () =
  with_stream (fun stream ->
      let budget_line flags =
        let out =
          run_ok (Printf.sprintf "estimate -s %s -k 8 --alpha 4 --budget-strict %s" stream flags)
        in
        match
          List.find_map
            (fun l -> Scanf.sscanf_opt l "space budget: %d words, peak %d" (fun b p -> (b, p)))
            (String.split_on_char '\n' out)
        with
        | Some bp -> bp
        | None -> Alcotest.failf "%S: no space budget line" flags
      in
      let one, _ = budget_line "" in
      let ring, peak = budget_line "--window 16 --epoch-edges 1024" in
      checki "16 held epochs and the live one" (17 * one) ring;
      checkb "the ring outgrows one estimator's budget" true (peak > one))

(* An escalated health rule aborts the run with exit 3: the violation is
   named on stderr, no answer reaches stdout, and the evidence survives —
   the telemetry log is closed untorn with the samples up to the abort,
   and the trace is still written. *)
let test_health_abort_keeps_evidence () =
  with_stream (fun stream ->
      List.iter
        (fun flags ->
          let log = Filename.temp_file "mkc_cli" ".mkctel" in
          let trace = Filename.temp_file "mkc_cli" ".trace.json" in
          Fun.protect
            ~finally:(fun () -> List.iter Sys.remove [ log; trace ])
            (fun () ->
              let code, out, err =
                run
                  (Printf.sprintf
                     "estimate -s %s -k 8 --alpha 4 --telemetry %s --trace %s --health \
                      'cap=space.words>1!' %s"
                     stream log trace flags)
              in
              checki (flags ^ ": health abort is exit 3") 3 code;
              checkb (flags ^ ": stderr names the violated rule") true
                (contains ~sub:"mkc: health rule violated: cap" err);
              checkb (flags ^ ": no answer line on stdout") false
                (contains ~sub:"estimated optimal" out);
              checkb (flags ^ ": no space line on stdout") false (contains ~sub:"space:" out);
              ignore (run_ok (Printf.sprintf "doctor --telemetry %s --trace %s" log trace));
              match Mkc_obs.Telemetry.read log with
              | Error e ->
                  Alcotest.failf "telemetry log invalid: %s" (Mkc_obs.Telemetry.error_to_string e)
              | Ok t ->
                  checkb (flags ^ ": log is untorn") true (t.torn = None);
                  checkb (flags ^ ": log holds a sample") true (t.samples <> [])))
        [ ""; "--domains 2" ])

(* --progress reports on every drive mode: pooled, and resumed from a
   checkpoint, where it counts from the checkpoint's position. *)
let test_progress_on_every_drive () =
  with_stream (fun stream ->
      let ckpt = Filename.temp_file "mkc_cli" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove ckpt)
        (fun () ->
          let progress flags =
            let code, _, err =
              run (Printf.sprintf "estimate -s %s -k 8 --alpha 4 --progress 1e-9 %s" stream flags)
            in
            checki (flags ^ ": exit code") 0 code;
            checkb (flags ^ ": no ignoring warning") false (contains ~sub:"ignoring" err);
            checkb (flags ^ ": reports the end of the stream") true
              (contains ~sub:"mkc: 17021/17021 edges" err);
            err
          in
          ignore (progress "--domains 2");
          ignore
            (run_ok
               (Printf.sprintf
                  "estimate -s %s -k 8 --alpha 4 --checkpoint %s --checkpoint-every 1 \
                   --stop-after 8192 --chunk 4096"
                  stream ckpt));
          let err = progress (Printf.sprintf "--resume %s --chunk 4096 --domains 1" ckpt) in
          checkb "resumed: first report is past the checkpoint" true
            (contains ~sub:"mkc: 12288/17021 edges" err);
          checkb "resumed: no report before the checkpoint" false
            (contains ~sub:"mkc: 4096/17021 edges" err)))

(* A --force-m below the stream's m would build an instance whose set
   ids overflow it; estimate and convert name the misuse up front. *)
let test_force_m_below_stream () =
  with_stream (fun stream ->
      List.iter
        (fun (cmd, rest) ->
          let code, out, err = run (Printf.sprintf "%s -s %s %s" cmd stream rest) in
          checki (cmd ^ ": exit code") 2 code;
          checkb (cmd ^ ": stderr names the flag and the stream's m") true
            (contains ~sub:"--force-m 100 is below the stream's m=512" err);
          checkb (cmd ^ ": nothing on stdout") true (out = ""))
        [
          ("estimate", "-k 8 --alpha 4 --force-m 100");
          ("convert", "-o nope_out.mkce --force-m 100");
        ];
      checkb "convert wrote no file" false (Sys.file_exists "nope_out.mkce"))

(* Answer stdout pinned byte for byte (golden_cli/NAME.out).  No case
   carries a flag whose output includes timing. *)
let golden_cases =
  [
    ("estimate_d1", "estimate", "");
    ("estimate_d2", "estimate", "--domains 2");
    ("estimate_window", "estimate", "--window 4 --epoch-edges 2048");
    ("estimate_window_decay", "estimate", "--window 4 --epoch-edges 2048 --decay 0.5");
    ("estimate_budget_strict", "estimate", "--budget-strict");
    ("report_d1", "report", "");
    ("report_d2", "report", "--domains 2");
    ("report_window", "report", "--window 4 --epoch-edges 2048");
  ]

(* [name]'s first word names the golden file. *)
let check_golden name out =
  let file = List.hd (String.split_on_char ' ' name) in
  Alcotest.(check string) (name ^ " stdout") (read_all ("golden_cli/" ^ file ^ ".out")) out

let test_golden_stdout () =
  with_stream (fun stream ->
      List.iter
        (fun (name, sub, flags) ->
          check_golden name
            (run_ok (Printf.sprintf "%s -s %s -k 8 --alpha 4 %s" sub stream flags)))
        golden_cases;
      (* A windowed run pools like any other: each instance rolls on its
         slot, and the answer is the one-domain answer, on a chunk grid
         that straddles the epochs too. *)
      List.iter
        (fun (name, sub, flags) ->
          List.iter
            (fun pool ->
              check_golden
                (Printf.sprintf "%s %s" name pool)
                (run_ok (Printf.sprintf "%s -s %s -k 8 --alpha 4 %s %s" sub stream flags pool)))
            [ "--domains 2"; "--domains 3 --chunk 1000" ])
        (List.filter (fun (name, _, _) -> contains ~sub:"window" name) golden_cases);
      (* A 2-shard merge: each half of the stream checkpointed by its own
         run at the full instance's dimensions. *)
      let lines = String.split_on_char '\n' (String.trim (read_all stream)) in
      let half = List.length lines / 2 in
      let shard i keep =
        let path = Filename.temp_file (Printf.sprintf "mkc_cli_shard%d" i) ".txt" in
        let oc = open_out path in
        List.iteri (fun j l -> if keep j then output_string oc (l ^ "\n")) lines;
        close_out oc;
        path
      in
      let a = shard 0 (fun j -> j < half) and b = shard 1 (fun j -> j >= half) in
      let ckpts = List.map (fun p -> p ^ ".ckpt") [ a; b ] in
      Fun.protect
        ~finally:(fun () -> List.iter Sys.remove ([ a; b ] @ ckpts))
        (fun () ->
          List.iter2
            (fun s c ->
              ignore
                (run_ok
                   (Printf.sprintf
                      "estimate -s %s -k 8 --alpha 4 --force-m 512 --force-n 2048 \
                       --checkpoint %s"
                      s c)))
            [ a; b ] ckpts;
          check_golden "merge_2shard" (run_ok ("merge " ^ String.concat " " ckpts))))

(* [mkc top] and [mkc telemetry-report] pinned byte for byte
   (golden_cli/top.out, golden_cli/telemetry_report.out) on a log
   written with fixed coordinates: 45 samples, so the 32-wide sparkline
   clips, every track family [Top.render] lays out plus two generic
   tracks, two health-violation events and one other event.  The log
   has a fixed name so the report's header line is stable. *)
let golden_log = "golden_telemetry.mkctel"

let write_golden_log () =
  let tracks =
    [|
      "pipeline.edges"; "pipeline.edges_per_sec"; "space.words"; "space.large_set";
      "space.small_set"; "gc.minor_words"; "gc.major_words"; "gc.heap_words";
      "sketch.l0_occupancy"; "sketch.f2_tracked"; "sketch.hh_recovery_ppm"; "ckpt.saves";
      "window.lag";
    |]
  in
  let w =
    match Mkc_obs.Telemetry.Writer.create golden_log ~tracks with
    | Ok w -> w
    | Error e -> Alcotest.failf "writer: %s" (Mkc_obs.Telemetry.error_to_string e)
  in
  for i = 1 to 45 do
    let edges = 4096 * i and wobble = i * 7919 mod 1000 in
    let large = 30_000 + (150 * i) and small = 2_000 + wobble in
    Mkc_obs.Telemetry.Writer.sample w ~at_ns:(250_000_000 * i) ~at_edges:edges
      [|
        edges; 1_500_000 + (1_000 * wobble); large + small; large; small; 90 * edges;
        4 * edges; 250_000 + (512 * i); 400 + (i mod 9); 64 + (i / 3); 990_000 - (137 * i);
        i / 10; (i mod 7) - 3;
      |];
    if i = 20 then
      Mkc_obs.Telemetry.Writer.event w ~at_ns:(250_000_000 * i) ~at_edges:edges
        ~name:"health.space.violations" ~value:1;
    if i = 30 then
      Mkc_obs.Telemetry.Writer.event w ~at_ns:(250_000_000 * i) ~at_edges:edges
        ~name:"ckpt.saves" ~value:2;
    if i = 33 then
      Mkc_obs.Telemetry.Writer.event w ~at_ns:(250_000_000 * i) ~at_edges:edges
        ~name:"health.progress.violations" ~value:1
  done;
  Mkc_obs.Telemetry.Writer.close w

let test_golden_telemetry_views () =
  write_golden_log ();
  Fun.protect
    ~finally:(fun () -> Sys.remove golden_log)
    (fun () ->
      check_golden "top" (run_ok ("top " ^ golden_log));
      check_golden "telemetry_report" (run_ok ("telemetry-report " ^ golden_log)))

(* Forged lengths and counts end in a named error, not an uncaught
   exception (exit 125): a telemetry directory declaring 2^40 tracks
   under a valid checksum fails doctor with exit 1, and an edge-file
   header promising 2^59 edges (16 · 2^59 wraps to 0) fails stats with
   exit 2. *)
let test_forged_artifacts_are_named_errors () =
  let log = Filename.temp_file "mkc_cli" ".mkctel" in
  let edges = Filename.temp_file "mkc_cli" ".mkce" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ log; edges ])
    (fun () ->
      (match Mkc_obs.Telemetry.Writer.create log ~tracks:[| "space.words" |] with
      | Ok w -> Mkc_obs.Telemetry.Writer.close w
      | Error e -> Alcotest.failf "writer: %s" (Mkc_obs.Telemetry.error_to_string e));
      let b = Bytes.of_string (read_all log) in
      (* the directory frame starts at byte 16; its track count at 40 *)
      Bytes.set_int64_le b 40 (Int64.shift_left 1L 40);
      Mutation.reseal_frame b ~frame:16;
      Out_channel.with_open_bin log (fun oc -> Out_channel.output_bytes oc b);
      let code, _, err = run ("doctor --telemetry " ^ log) in
      checki "forged log: doctor exit 1" 1 code;
      checkb "forged log: the error is named" true
        (contains ~sub:"invalid telemetry log: malformed telemetry log: directory declares" err);
      Out_channel.with_open_bin edges (fun oc ->
          Out_channel.output_string oc (Mutation.edge_header ~count:(1 lsl 59)));
      let code, _, err = run ("stats -s " ^ edges) in
      checki "forged edge count: stats exit 2" 2 code;
      checkb "forged edge count: the error is named" true
        (contains ~sub:"truncated edge file" err))

(* A telemetry directory that names a track twice is refused by name:
   every command that reads a log exits 1, never 125. *)
let test_repeated_track_log () =
  let log = Filename.temp_file "mkc_cli" ".mkctel" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      Mutation.repeated_track_log log;
      List.iter
        (fun cmd ->
          let code, _, err = run (cmd ^ " " ^ log) in
          checki (cmd ^ ": exit 1") 1 code;
          checkb (cmd ^ ": names the repeated track") true
            (contains ~sub:"track directory repeats \"a\"" err))
        [ "top"; "telemetry-report"; "doctor --telemetry" ])

(* A checkpoint whose params describe an instance far too large to
   build (m = 2^24) is a named payload error: validate-checkpoint exits
   1 and merge exits 4, before anything sized from the params is
   allocated. *)
let test_forged_params_checkpoint () =
  let path = Filename.temp_file "mkc_cli" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc Mutation.forged_params_checkpoint);
      let code, _, err = run ("validate-checkpoint " ^ path) in
      checki "forged params: validate-checkpoint exit 1" 1 code;
      checkb "forged params: validate names the ceiling" true
        (contains ~sub:"over the decode ceiling" err);
      let code, _, err = run ("merge " ^ path) in
      checki "forged params: merge exit 4" 4 code;
      checkb "forged params: merge names the ceiling" true
        (contains ~sub:"over the decode ceiling" err))

(* Hostile ids in a text stream, dimensions too large to build, and an
   α at or below Feige's threshold 1/(1 - 1/e): each is exit 2 with a
   named message and no answer, before any instance is allocated (a
   10^9 set id would size LargeSet's tables from m).  The same ceiling
   covers a binary header's m and --force-m. *)
let test_hostile_stream_ids () =
  let text = Filename.temp_file "mkc_cli" ".txt" and bin = Filename.temp_file "mkc_cli" ".mkce" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ text; bin ])
    (fun () ->
      let refused ?(cmds = [ "estimate"; "report" ]) ?(alpha = "2") ?(flags = "") ?(path = text)
          content ~msg =
        Option.iter (fun c -> Out_channel.with_open_bin text (fun oc -> output_string oc c)) content;
        List.iter
          (fun cmd ->
            let code, out, err =
              run (Printf.sprintf "%s -s %s -k 1 --alpha %s %s" cmd path alpha flags)
            in
            let what = Printf.sprintf "%s, %S" cmd msg in
            checki (what ^ ": exit code") 2 code;
            checkb (what ^ ": stderr names the fault") true (contains ~sub:msg err);
            checkb (what ^ ": no answer") true (out = ""))
          cmds
      in
      refused (Some "0 1\n-3 2\n") ~msg:"malformed line 2 (set id -3 is negative)";
      refused (Some "0 4611686018427387903\n")
        ~msg:"malformed line 1 (element id 4611686018427387903 is too large)";
      refused (Some "4611686018427387903 1\n")
        ~msg:"malformed line 1 (set id 4611686018427387903 is too large)";
      refused (Some "0 1\n1000000000 2\n") ~msg:"(m=1000000001, n=3, k=1, alpha=2) need";
      refused (Some "0 1\n1 1152921504606846976\n") ~msg:"n must be <= 2^56";
      refused (Some "0 1\n1 2\n") ~alpha:"1.5"
        ~msg:"--alpha must exceed 1/(1 - 1/e) = 1.5820, Feige's threshold (got 1.5)";
      refused None ~alpha:"1.58" ~msg:"Feige's threshold (got 1.58)";
      refused ~cmds:[ "estimate" ] (Some "0 1\n1 2\n") ~flags:"--force-m 1000000000"
        ~msg:"over the decode ceiling";
      ignore (run_ok (Printf.sprintf "convert -s %s -o %s --force-m 1000000000" text bin));
      refused None ~path:bin ~msg:"(m=1000000000, n=3, k=1, alpha=2) need")

let test_generate_churn_validation () =
  expect_rejection "generate -n 10 -m 4 -k 2 -o nope_out.txt --churn 1.5"
    ~msg:"--churn must lie in [0, 1) (got 1.5)";
  expect_rejection "generate -n 10 -m 4 -k 2 -o nope_out.txt --churn=-0.25"
    ~msg:"--churn must lie in [0, 1) (got -0.25)"

(* The index just past [sub] in [s], if [sub] occurs. *)
let after ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec find i =
    if i + lb > ls then None else if String.sub s i lb = sub then Some (i + lb) else find (i + 1)
  in
  find 0

(* A checkpoint resumes at another domain count: windows are [--chunk]
   edges at any domain count, so a run saved at one count and resumed
   at the other prints the uninterrupted run's stdout and ends in its
   checkpoint bytes, work counters included. *)
let test_resume_across_domains () =
  let tmp suffix = Filename.temp_file "mkc_cli" suffix in
  let stream = tmp ".txt" and full = tmp ".ckpt" and part = tmp ".ckpt" and res = tmp ".ckpt" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ stream; full; part; res ])
    (fun () ->
      ignore
        (run_ok
           (Printf.sprintf
              "generate --kind few-large -n 4096 -m 1024 -k 8 --churn 0.3 --seed 11 -o %s"
              stream));
      let est flags =
        run_ok (Printf.sprintf "estimate -s %s -k 8 --alpha 4 --chunk 4096 %s" stream flags)
      in
      let out = est (Printf.sprintf "--domains 1 --checkpoint %s" full) in
      let bytes = read_all full in
      List.iter
        (fun (saved, resumed) ->
          let label = Printf.sprintf "saved at %d domains, resumed at %d" saved resumed in
          ignore
            (est
               (Printf.sprintf "--domains %d --checkpoint %s --checkpoint-every 1 --stop-after 16384"
                  saved part));
          Alcotest.(check string)
            (label ^ ": stdout")
            out
            (est (Printf.sprintf "--domains %d --resume %s --checkpoint %s" resumed part res));
          checkb (label ^ ": final checkpoint bytes") true (read_all res = bytes))
        [ (2, 1); (1, 2) ])

(* With no --domains a run takes the host's domains, but answers as one
   domain does, windowed runs included; a one-chunk stream stays on one
   domain, so it records no pool gauge. *)
let test_default_domains () =
  with_stream (fun stream ->
      let snap = Filename.temp_file "mkc_cli" ".json" in
      let ledger = Filename.temp_file "mkc_cli" ".mkcledg" in
      Fun.protect
        ~finally:(fun () -> List.iter Sys.remove [ snap; ledger ])
        (fun () ->
          let est flags = run_ok (Printf.sprintf "estimate -s %s -k 8 --alpha 4 %s" stream flags) in
          Alcotest.(check string)
            "multi-chunk default: stdout as --domains 1"
            (est "--chunk 4096 --domains 1")
            (est "--chunk 4096");
          Sys.remove ledger;
          ignore (est (Printf.sprintf "--chunk 4096 --ledger %s" ledger));
          let recorded =
            let record = run_ok (Printf.sprintf "ledger show %s" ledger) in
            match after ~sub:"\"chunk\":4096,\"domains\":" record with
            | Some i ->
                let j = ref i in
                while !j < String.length record && record.[!j] >= '0' && record.[!j] <= '9' do
                  incr j
                done;
                int_of_string (String.sub record i (!j - i))
            | None -> Alcotest.fail "ledger params carry no domains"
          in
          let rec_d = Domain.recommended_domain_count () in
          if rec_d = 1 then checki "one-CPU host: the ledger records 1 domain" 1 recorded
          else
            checkb "the ledger records the resolved domain count" true
              (recorded >= 2 && recorded <= rec_d);
          check_golden "estimate_window with no --domains" (est "--window 4 --epoch-edges 2048");
          check_golden "estimate_window --domains 2"
            (est "--window 4 --epoch-edges 2048 --domains 2");
          check_golden "report_window --domains 2"
            (run_ok
               (Printf.sprintf "report -s %s -k 8 --alpha 4 --window 4 --epoch-edges 2048 --domains 2"
                  stream));
          ignore (est (Printf.sprintf "--metrics-json %s" snap));
          checkb "a one-chunk stream records no pipeline.domains" true
            (contains ~sub:"\"pipeline.domains\",\"kind\":\"gauge\",\"value\":0.0}"
               (read_all snap))))

let suite =
  [
    Alcotest.test_case "estimate rejects non-positive cadence flags" `Quick
      test_estimate_flag_validation;
    Alcotest.test_case "report rejects non-positive cadence flags" `Quick
      test_report_flag_validation;
    Alcotest.test_case "flag validation precedes stream i/o" `Quick
      test_flag_check_precedes_stream_io;
    Alcotest.test_case "windowed flags reject misuse by name" `Quick
      test_windowed_flag_validation;
    Alcotest.test_case "sign column parse error names line and token" `Quick
      test_sign_column_parse_error;
    Alcotest.test_case "generate rejects out-of-range churn" `Quick
      test_generate_churn_validation;
    Alcotest.test_case "telemetry space.words ends at the printed words" `Quick
      test_telemetry_matches_printed_space;
    Alcotest.test_case "report --window honours observability flags" `Quick
      test_report_window_observability;
    Alcotest.test_case "a strict window is budgeted per held epoch" `Quick
      test_window_budget_strict;
    Alcotest.test_case "an escalated health rule aborts with exit 3, evidence intact" `Quick
      test_health_abort_keeps_evidence;
    Alcotest.test_case "answer stdout matches the golden files" `Quick test_golden_stdout;
    Alcotest.test_case "top and telemetry-report match the golden files" `Quick
      test_golden_telemetry_views;
    Alcotest.test_case "progress reports pooled and resumed runs" `Quick
      test_progress_on_every_drive;
    Alcotest.test_case "--force-m below the stream's m is a misuse" `Quick
      test_force_m_below_stream;
    Alcotest.test_case "forged artifacts end in named errors" `Quick
      test_forged_artifacts_are_named_errors;
    Alcotest.test_case "a repeated telemetry track is refused by name" `Quick
      test_repeated_track_log;
    Alcotest.test_case "forged checkpoint params end in named errors" `Quick
      test_forged_params_checkpoint;
    Alcotest.test_case "hostile stream ids and oversized instances exit 2" `Quick
      test_hostile_stream_ids;
    Alcotest.test_case "a checkpoint resumes at another domain count" `Quick
      test_resume_across_domains;
    Alcotest.test_case "--domains defaults to the host, one domain where a pool idles" `Quick
      test_default_domains;
    Alcotest.test_case "a pooled report traces its finalize fan-out" `Quick
      test_pooled_finalize_spans;
  ]
