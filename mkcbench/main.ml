(* File-to-answer benchmark of the mkc CLI.

     main.exe --workload NAME --seed S --seconds T --trace 0|1

   One invocation runs one workload, one process at a time:
   1. repeat r = 1, 2, ... until T seconds have passed and at least
      [min_repeats] repeats ran: generate input r from (S, r), print its
      digest, score it offline (greedy reference G), time set-up (the
      workload's command on a one-edge stream that pins its (m, n))
      [setup_per_repeat] times, run `mkc` on input r with the algorithm
      seed [algo_seed] draws from (S, r) and check the answer.  Each
      repeat draws its own input so a run measures the workload, not one
      draw of it: peak memory, for one, depends on the draw through the
      GC's cycle count;
   2. recompute the repeat-1 answer in a child process driving the
      library directly (the `--in-process` mode below) and, for a
      workload with [check_domains], in one more `mkc` run on the pool
      executor, and require equality; with --trace 1 the child is the
      traced run (Layers), and [toggled_repeats] more `mkc` runs with
      observability toggled price it;
   3. append a record to ledger.mkcledg and print the metrics, the last
      line as JSON: the end-to-end metrics with --trace 0, the per-layer
      ones with --trace 1. *)

type workload = {
  name : string;
  sub : string;  (** mkc subcommand *)
  k : int;
  alpha : float;
  check_domains : int;
      (** The timed runs are sequential: on two shared cores a pool drive
          times the scheduler.  If > 1, input 1 also runs once with this
          --domains and must answer as repeat 1 did. *)
  window : (int * int) option;  (** epochs kept, edges per epoch *)
  binary : bool;  (** converted to MKCEDG by `mkc convert` before the run *)
  obs : bool;  (** telemetry log and metrics snapshot on *)
  m : int;
  n : int;
  make : int -> Gen.stream;  (** an input over exactly (m, n) *)
}

(* README.md says why each workload is here and what it stresses. *)
let workloads =
  [
    {
      name = "uniform-bin";
      sub = "estimate";
      k = 32;
      alpha = 8.0;
      check_domains = 1;
      window = None;
      binary = true;
      obs = false;
      m = 4096;
      n = 65536;
      make = (fun seed -> Gen.uniform ~n:65536 ~m:4096 ~draws:64 ~seed);
    };
    {
      name = "graph-text-report";
      sub = "report";
      k = 16;
      alpha = 8.0;
      check_domains = 2;
      window = None;
      binary = false;
      obs = false;
      m = 16384;
      n = 16384;
      make =
        (fun seed -> Gen.power_law_in_arrival ~vertices:16384 ~arcs:(32 * 16384) ~skew:1.2 ~seed);
    };
    {
      name = "churn-window";
      sub = "estimate";
      k = 16;
      alpha = 8.0;
      check_domains = 1;
      window = Some (4, 65536);
      binary = true;
      obs = true;
      m = 1024;
      n = 32768;
      make =
        (fun seed ->
          Gen.churn ~frac:0.3 ~seed:(seed + 1)
            (Gen.planted_few_large ~n:32768 ~m:1024 ~k:16 ~seed));
    };
  ]

let min_repeats = 7

(* Set-up samples come in streaks: one command took 0.045-0.054 s for
   eight runs in a row, then 0.036-0.040 s.  A few per repeat spread
   them over the whole run. *)
let setup_per_repeat = 3
let toggled_repeats = 3
let run_timeout_s = 120.0

(* The whole invocation stays under the 180 s a run may take. *)
let budget_s = 170.0

let input_seed ~seed r = (seed * 1000) + r

(* The algorithm seed of repeat r, mixed rather than S + r: the space an
   estimator takes follows its seed, and with S + r runs at nearby S
   would share most of their draws. *)
let algo_seed ~seed r = Int64.to_int (Gen.next (Gen.rng (-input_seed ~seed r))) land 0x3FFF_FFFF

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = if xs = [] then 0.0 else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let cli_args ?(domains = 1) wl ~file ~seed ~obs ~workdir =
  [ wl.sub; "-s"; file; "-k"; string_of_int wl.k; "--alpha"; Printf.sprintf "%g" wl.alpha ]
  @ [ "--seed"; string_of_int seed ]
  @ (if domains > 1 then [ "--domains"; string_of_int domains ] else [])
  @ (match wl.window with
    | Some (w, e) -> [ "--window"; string_of_int w; "--epoch-edges"; string_of_int e ]
    | None -> [])
  @
  if not obs then []
  else
    (if wl.sub = "estimate" then [ "--telemetry"; Filename.concat workdir "run.mkctel" ] else [])
    @ [ "--metrics-json"; Filename.concat workdir "snapshot.json" ]

(* ---------- child: the library driven in this process ---------- *)

(* Prints the answer in the CLI's own line format, so Cli.parse reads
   both, then the traced run's layer rows. *)
let in_process wl ~path ~seed ~trace =
  let report = wl.sub = "report" in
  let print_answer (a : Cli.answer) =
    Printf.printf "in-process coverage: %.0f\nspace: %d words\n" a.estimate a.space_words;
    List.iter (Printf.printf "  S%d\n") a.witness
  in
  if trace then begin
    let t = Layers.traced ~path ~k:wl.k ~alpha:wl.alpha ~seed ~report ~window:wl.window in
    print_answer t.t_answer;
    Printf.printf "explained_s %.17g\n" t.explained_s;
    List.iter (fun (name, unit, v) -> Printf.printf "layer %s %s %.17g\n" name unit v) t.metrics
  end
  else print_answer (Layers.answer ~path ~k:wl.k ~alpha:wl.alpha ~seed ~report ~window:wl.window)

(* ---------- parent ---------- *)

let one_minus_inv_e = 1.0 -. exp (-1.0)

(* 1 when the estimate lies in OPT's certified interval
   [G, G/(1-1/e)], else how far outside it, as a factor. *)
let opt_gap ~g est = Float.max 1.0 (Float.max (g /. est) (est *. one_minus_inv_e /. g))

type input = {
  file : string;  (** what `mkc` reads *)
  edges : int;
  sets : int array array;  (** the net instance the answer is about *)
  g : float;  (** greedy coverage of [sets] *)
}

(* Input r of a run: written as text, converted by `mkc convert` for the
   binary workloads.  Each file's digest is printed; those of the first
   [min_repeats] inputs also go into [digests]. *)
let make_input wl ~workdir ~spawn ~digests ~seed r =
  let s = wl.make (input_seed ~seed r) in
  assert (s.m = wl.m && s.n = wl.n);
  let text = Filename.concat workdir (Printf.sprintf "input-%d.txt" r) in
  Gen.write_text s text;
  let file =
    if not wl.binary then text
    else begin
      let bin = Filename.concat workdir (Printf.sprintf "input-%d.mkcedg" r) in
      ignore (spawn [ "convert"; "-s"; text; "-o"; bin ]);
      bin
    end
  in
  List.iter
    (fun f ->
      let d = Digest.to_hex (Digest.file f) in
      if r <= min_repeats then Buffer.add_string digests d;
      Printf.printf "input %s: %d bytes, md5 %s\n" (Filename.basename f) (Unix.stat f).st_size d)
    (List.sort_uniq compare [ text; file ]);
  (* A window answers about the suffix it keeps. *)
  let edges = Gen.edges s in
  let live =
    match wl.window with
    | None -> edges
    | Some (window, epoch_edges) -> Gen.live_suffix_len ~window ~epoch_edges ~total:edges
  in
  let sets = Gen.net_sets s ~pos:(edges - live) ~len:live in
  { file; edges; sets; g = float_of_int (Gen.greedy sets ~n:wl.n ~k:wl.k) }

(* Why a parsed answer is wrong, if it is. *)
let malformed wl (a : Cli.answer) =
  let ids = a.witness in
  if not (Float.is_finite a.estimate && a.estimate > 0.0 && a.space_words > 0) then
    Some "estimate or space not positive"
  else if
    wl.sub = "report"
    && (ids = []
       || List.length ids > wl.k
       || List.exists (fun id -> id < 0 || id >= wl.m) ids
       || List.length (List.sort_uniq compare ids) <> List.length ids)
  then Some "witness empty, over k sets, repeated, or outside [0, m)"
  else None

(* One measured repeat. *)
type repeat = {
  r : int;
  input : input;
  run : Cli.run;
  answer : Cli.answer;
  witness_coverage : int;  (** true coverage of the reported sets *)
}

let ledger_append wl ~seed ~repeats ~stats ~quality =
  let module J = Mkc_obs.Json in
  let walls = List.map (fun x -> x.run.wall_s) repeats in
  let best =
    List.fold_left
      (fun a x -> if x.run.wall_s < a.run.wall_s then x else a)
      (List.hd repeats) repeats
  in
  let entry =
    {
      Mkc_obs.Ledger.e_label = "benchmark." ^ wl.name;
      e_created_ns = int_of_float (Unix.gettimeofday () *. 1e9);
      e_host = Mkc_obs.Ledger.host_fingerprint ();
      e_params =
        [
          ("alpha", J.Float wl.alpha);
          ("command", J.String wl.sub);
          ("check_domains", J.Int wl.check_domains);
          ("k", J.Int wl.k);
          ("m", J.Int wl.m);
          ("n", J.Int wl.n);
          ("seed", J.Int seed);
          ( "window",
            match wl.window with
            | Some (w, e) -> J.String (Printf.sprintf "%dx%d" w e)
            | None -> J.Null );
        ];
      e_stats = List.sort compare stats;
      e_modes =
        [
          {
            Mkc_obs.Ledger.ms_mode = "cli";
            ms_repeats = List.length walls;
            ms_best_s = best.run.wall_s;
            ms_median_s = median walls;
            ms_edges_per_sec = float_of_int best.input.edges /. best.run.wall_s;
          };
        ];
      e_digests = [];
      e_quality = List.sort compare quality;
    }
  in
  match Mkc_obs.Ledger.append "ledger.mkcledg" entry with
  | Ok () -> Printf.printf "appended run record benchmark.%s to ledger.mkcledg\n" wl.name
  | Error e -> Printf.printf "warning: ledger.mkcledg: %s\n" (Mkc_obs.Ledger.error_to_string e)

let print_rows title rows =
  print_endline title;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-40s %14.6g %s\n" name v unit) rows

let run wl ~seed ~seconds ~tracing =
  let t_start = Unix.gettimeofday () in
  let deadline () = Float.min (Unix.gettimeofday () +. run_timeout_s) (t_start +. budget_s) in
  let workdir = Filename.concat ".mkcbench" wl.name in
  if Sys.file_exists workdir then
    Array.iter (fun f -> Sys.remove (Filename.concat workdir f)) (Sys.readdir workdir)
  else begin
    if not (Sys.file_exists ".mkcbench") then Sys.mkdir ".mkcbench" 0o755;
    Sys.mkdir workdir 0o755
  end;
  let attempted = ref 0 and failed = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failed;
        Printf.printf "FAIL: %s\n%!" msg)
      fmt
  in
  let spawn ?exe args =
    incr attempted;
    let r = Cli.spawn ?exe ~workdir ~deadline:(deadline ()) args in
    if not r.Cli.ok then
      fail "%s: non-zero exit or timeout after %.1f s" (String.concat " " args) r.wall_s;
    r
  in
  let one = Filename.concat workdir "one-edge.txt" in
  Out_channel.with_open_bin one (fun oc -> Printf.fprintf oc "%d %d\n" (wl.m - 1) (wl.n - 1));
  (* 1. set-up samples and repeats; every input but the first is
     deleted after its run *)
  let digests = Buffer.create 256 in
  let t_meas = Unix.gettimeofday () in
  let setup = ref [] and repeats = ref [] and r = ref 1 and first_file = ref "" in
  while
    !r <= min_repeats
    || Unix.gettimeofday () -. t_meas < float_of_int seconds
       && Unix.gettimeofday () -. t_start < budget_s /. 2.0
  do
    let r' = !r in
    let input = make_input wl ~workdir ~spawn ~digests ~seed r' in
    let aseed = algo_seed ~seed r' in
    for _ = 1 to setup_per_repeat do
      setup := (spawn (cli_args wl ~file:one ~seed:aseed ~obs:wl.obs ~workdir)).wall_s :: !setup
    done;
    let run = spawn (cli_args wl ~file:input.file ~seed:aseed ~obs:wl.obs ~workdir) in
    (match if run.ok then Cli.parse run.stdout else None with
    | None -> if run.ok then fail "repeat %d: unparsable output" r'
    | Some a -> (
        match malformed wl a with
        | Some why -> fail "repeat %d: %s" r' why
        | None ->
            let witness_coverage = Gen.coverage input.sets ~n:wl.n a.witness in
            Printf.printf
              "repeat %d (seed %d): %d edges, %.3f s, cpu %.3f s, peak %d KiB, \
               estimate %.0f (G %.0f), space %d words%s\n%!"
              r' aseed input.edges run.wall_s run.cpu_s run.peak_rss_kib a.estimate input.g
              a.space_words
              (if a.witness = [] then ""
               else
                 Printf.sprintf ", witness of %d sets covers %d" (List.length a.witness)
                   witness_coverage);
            repeats := { r = r'; input; run; answer = a; witness_coverage } :: !repeats));
    if r' = 1 then first_file := input.file
    else
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ input.file; Filename.remove_extension input.file ^ ".txt" ];
    incr r
  done;
  let repeats = List.rev !repeats in
  Printf.printf "inputs of repeats 1-%d: md5 %s\n" min_repeats
    (Digest.to_hex (Digest.string (Buffer.contents digests)));
  (* 2. the in-process answer for repeat 1, traced or not *)
  let seed1 = algo_seed ~seed 1 in
  let child =
    spawn ~exe:Sys.executable_name
      ([ "--workload"; wl.name; "--seed"; string_of_int seed1 ]
      @ [ "--trace"; (if tracing then "1" else "0"); "--in-process"; !first_file ])
  in
  let lines = String.split_on_char '\n' child.stdout in
  List.iter (fun l -> if String.starts_with ~prefix:"warning" l then print_endline l) lines;
  let differ what (a : Cli.answer) (b : Cli.answer) =
    if a <> b then
      fail "repeat 1 answered %.0f in %d words, %s %.0f in %d words%s" a.estimate a.space_words what
        b.estimate b.space_words
        (if a.witness <> b.witness then ", witnesses differ" else "")
  in
  (match (Cli.parse child.stdout, repeats) with
  | Some expected, { r = 1; answer = a; _ } :: _ -> differ "the in-process drive" a expected
  | None, _ -> if child.ok then fail "in-process drive: unparsable output"
  | Some _, _ -> ());
  let pooled =
    if wl.check_domains <= 1 then None
    else begin
      let domains = wl.check_domains in
      let run =
        spawn (cli_args ~domains wl ~file:!first_file ~seed:seed1 ~obs:wl.obs ~workdir)
      in
      (match (Cli.parse run.stdout, repeats) with
      | Some b, { r = 1; answer = a; _ } :: _ ->
          differ (Printf.sprintf "the --domains %d run" domains) a b
      | None, _ -> if run.ok then fail "--domains %d run: unparsable output" domains
      | Some _, _ -> ());
      Some run
    end
  in
  (* 3. metrics; space and the gaps over the first repeats only, so the
     same seed always gives the same values *)
  let first = List.filter (fun x -> x.r <= min_repeats) repeats in
  let opt_gap_row =
    ("opt_gap", "ratio", median (List.map (fun x -> opt_gap ~g:x.input.g x.answer.estimate) first))
  in
  let e2e =
    [
      (* The fastest repeat, not the median: on a shared host one input
         at one seed takes 2.8-4.1 s from run to run, user time with it,
         and contention only ever slows a run down. *)
      ( "edges_per_s",
        "edges/s",
        List.fold_left
          (fun acc x -> Float.max acc (float_of_int x.input.edges /. x.run.wall_s))
          0.0 repeats );
      ("setup_s", "s", median !setup);
      (* Means, not medians: space moves ±12% with the hash draw on
         graph-text-report, and the peak takes one of two values by the
         input on uniform-bin; a median of a few such samples jumps. *)
      ("space_words", "words", mean (List.map (fun x -> float_of_int x.answer.space_words) first));
      ( "peak_rss_mb",
        "MiB",
        mean (List.map (fun x -> float_of_int x.run.peak_rss_kib /. 1024.0) repeats) );
      opt_gap_row;
    ]
  in
  let gaps =
    opt_gap_row
    ::
    (if wl.sub <> "report" then []
     else
       let gap x = x.input.g /. float_of_int (max 1 x.witness_coverage) in
       [ ("witness_gap", "ratio", median (List.map gap first)) ])
  in
  let layers =
    if not tracing then []
    else begin
      let cli_wall = median (List.map (fun x -> x.run.wall_s) repeats) in
      (* A few more runs on input 1 with observability toggled price it
         against the median.  The traced drive has none, so the layer
         times are held against the wall without it. *)
      let toggled =
        median
          (List.init toggled_repeats (fun _ ->
               let obs = not wl.obs in
               (spawn (cli_args wl ~file:!first_file ~seed:seed1 ~obs ~workdir)).wall_s))
      in
      let on, off = if wl.obs then (cli_wall, toggled) else (toggled, cli_wall) in
      let explained =
        List.fold_left
          (fun acc l -> Option.value ~default:acc (Scanf.sscanf_opt l "explained_s %f%!" Fun.id))
          0.0 lines
      in
      List.filter_map
        (fun l -> Scanf.sscanf_opt l "layer %s %s %f%!" (fun name unit v -> (name, unit, v)))
        lines
      @ [
          ( "cli.cpu_per_wall",
            "ratio",
            match pooled with
            | Some p -> p.cpu_s /. p.wall_s
            | None -> median (List.map (fun x -> x.run.cpu_s /. x.run.wall_s) repeats) );
          ("obs.overhead_frac", "fraction", (on /. off) -. 1.0);
          ("trace.unexplained_frac", "fraction", 1.0 -. (explained /. off));
        ]
    end
  in
  print_rows
    (Printf.sprintf
       "%s end to end over %d repeats (space_words and the gaps over the first %d); edges/s \
        of the fastest, space and peak means, the rest medians; too few for a tail percentile; \
        %d of %d operations failed:"
       wl.name (List.length repeats) (List.length first) !failed !attempted)
    (e2e @ List.tl gaps);
  if tracing then
    print_rows
      (Printf.sprintf "%s per layer (traced run on input 1, seed %d):" wl.name seed1)
      layers;
  if repeats <> [] then
    ledger_append wl ~seed ~repeats
      ~stats:
        (("repeats", float_of_int (List.length repeats))
        :: List.map (fun (name, _, v) -> (name, v)) e2e)
      ~quality:(List.map (fun (name, _, v) -> (name, v)) gaps);
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          (if tracing then layers else e2e)))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let in_process_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "S seeds the inputs and the algorithm seeds of every repeat");
      ("--seconds", Arg.Set_int seconds, "T measure for T seconds");
      ("--trace", Arg.Set_int trace, "0|1 print the end-to-end (0) or the per-layer (1) metrics");
      ( "--in-process",
        Arg.Set_string in_process_file,
        "FILE (internal) answer for FILE at seed S in this process" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed S --seconds T --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some wl -> wl
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  if !in_process_file <> "" then
    in_process wl ~path:!in_process_file ~seed:!seed ~trace:(!trace = 1)
  else if not (Sys.file_exists Cli.mkc) then begin
    Printf.eprintf "%s not found: build it and run from the repository root\n" Cli.mkc;
    exit 2
  end
  else run wl ~seed:!seed ~seconds:!seconds ~tracing:(!trace = 1)
