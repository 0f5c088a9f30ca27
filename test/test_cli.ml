(* CLI contract tests: flag validation must fail with a named error on
   stderr and exit 2 — not cmdliner's generic usage failure (124) —
   and it must fire before any stream I/O, so a bad flag is reported
   even when the stream file is also wrong.  The answer stdout of every
   estimate/report mode and of a shard merge is pinned byte for byte
   against test/golden_cli.

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
  expect_rejection "estimate --stream nope.txt --window 4 --epoch-edges 10 --domains 2"
    ~msg:"--window runs single-domain";
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

let check_golden name out =
  Alcotest.(check string) (name ^ " stdout") (read_all ("golden_cli/" ^ name ^ ".out")) out

let test_golden_stdout () =
  with_stream (fun stream ->
      List.iter
        (fun (name, sub, flags) ->
          check_golden name
            (run_ok (Printf.sprintf "%s -s %s -k 8 --alpha 4 %s" sub stream flags)))
        golden_cases;
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

let test_generate_churn_validation () =
  expect_rejection "generate -n 10 -m 4 -k 2 -o nope_out.txt --churn 1.5"
    ~msg:"--churn must lie in [0, 1) (got 1.5)";
  expect_rejection "generate -n 10 -m 4 -k 2 -o nope_out.txt --churn=-0.25"
    ~msg:"--churn must lie in [0, 1) (got -0.25)"

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
    Alcotest.test_case "an escalated health rule aborts with exit 3, evidence intact" `Quick
      test_health_abort_keeps_evidence;
    Alcotest.test_case "answer stdout matches the golden files" `Quick test_golden_stdout;
    Alcotest.test_case "progress reports pooled and resumed runs" `Quick
      test_progress_on_every_drive;
    Alcotest.test_case "--force-m below the stream's m is a misuse" `Quick
      test_force_m_below_stream;
    Alcotest.test_case "forged artifacts end in named errors" `Quick
      test_forged_artifacts_are_named_errors;
    Alcotest.test_case "forged checkpoint params end in named errors" `Quick
      test_forged_params_checkpoint;
  ]
