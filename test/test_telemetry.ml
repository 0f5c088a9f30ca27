(* Mkc_obs.Telemetry — the durable MKCTEL1 log behind [--telemetry],
   the one home of a run's sample rows — and Mkc_obs.Top, the pure
   renderer over a read log.

   Claims checked here:
   1. Writer → read round-trips tracks, samples, and events exactly.
   2. Corruption handling mirrors Edge_file: every rejection is a
      named error (Bad_magic, Bad_version, Truncated, Malformed,
      Checksum_mismatch) — except a torn FINAL frame, which yields
      the intact prefix plus [torn = Some _], because a telemetry log
      is most valuable for runs that died mid-append.  Forged lengths
      and counts, a directory naming a track twice, and a seeded fuzz
      over the framed logs and the edge file, end the same way: never
      an exception.
   3. summarize/quantile follow the snapshot convention: rank
      ceil(q·n) over the ascending sort, so 1..100 gives p50=50 and
      p99=99.
   4. The writer refuses a repeated track name, allocates nothing per
      sample, and flushes every frame, so a live or killed run's log
      reads back without a close.
   5. Top.render is total: it renders the standard track families,
      degrades to generic lines for unknown tracks, and never fails
      on a log with no samples. *)

module T = Mkc_obs.Telemetry
module Top = Mkc_obs.Top

let temp_log () = Filename.temp_file "mkc_telemetry" ".mkctel"

let write_sample_log ?(events = []) path tracks rows =
  match T.Writer.create path ~tracks with
  | Error e -> Alcotest.failf "Writer.create: %s" (T.error_to_string e)
  | Ok w ->
      List.iter (fun (ns, edges, values) -> T.Writer.sample w ~at_ns:ns ~at_edges:edges values) rows;
      List.iter
        (fun (ns, edges, name, value) -> T.Writer.event w ~at_ns:ns ~at_edges:edges ~name ~value)
        events;
      T.Writer.close w

let read_ok path =
  match T.read path with
  | Ok log -> log
  | Error e -> Alcotest.failf "read %s: %s" path (T.error_to_string e)

let read_err path =
  match T.read path with
  | Ok _ -> Alcotest.failf "read %s unexpectedly succeeded" path
  | Error e -> e

let truncate_to path keep =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let keep = if keep < 0 then len + keep else keep in
  let data = really_input_string ic keep in
  close_in_noerr ic;
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let patch_bytes path f =
  let data = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  f data;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc data)

let patch_byte path ~pos f =
  patch_bytes path (fun data ->
      let pos = if pos < 0 then Bytes.length data + pos else pos in
      Bytes.set data pos (f (Bytes.get data pos)))

let flip c = Char.chr (Char.code c lxor 0xFF)

let rows3 = [ (1000, 64, [| 1; 10 |]); (2000, 128, [| 5; 8 |]); (3000, 192, [| 3; 12 |]) ]

let test_round_trip () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_sample_log path [| "x"; "y" |] rows3
        ~events:[ (2500, 150, "health.space.violations", 1); (3500, 192, "ckpt.saves", 2) ];
      let log = read_ok path in
      Alcotest.(check (array string)) "tracks" [| "x"; "y" |] log.T.tracks;
      Alcotest.(check (option string)) "no tear" None (Option.map T.error_to_string log.T.torn);
      Alcotest.(check int) "samples" 3 (List.length log.T.samples);
      let s2 = List.nth log.T.samples 1 in
      Alcotest.(check int) "sample ns" 2000 s2.T.s_ns;
      Alcotest.(check int) "sample edges" 128 s2.T.s_edges;
      Alcotest.(check (array int)) "sample values" [| 5; 8 |] s2.T.values;
      Alcotest.(check int) "events" 2 (List.length log.T.events);
      let e1 = List.hd log.T.events in
      Alcotest.(check string) "event name" "health.space.violations" e1.T.e_name;
      Alcotest.(check int) "event value" 1 e1.T.e_value;
      Alcotest.(check int) "event edges" 150 e1.T.e_edges)

let test_rejection_matrix () =
  let with_log mutate k =
    let path = temp_log () in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        write_sample_log path [| "x"; "y" |] rows3 ~events:[ (3500, 192, "ev", 1) ];
        mutate path;
        k path)
  in
  (* magic *)
  with_log (fun p -> patch_byte p ~pos:0 flip) (fun p ->
      match read_err p with
      | T.Bad_magic _ -> ()
      | e -> Alcotest.failf "wanted Bad_magic, got %s" (T.error_to_string e));
  (* version *)
  with_log (fun p -> patch_byte p ~pos:8 flip) (fun p ->
      match read_err p with
      | T.Bad_version _ -> ()
      | e -> Alcotest.failf "wanted Bad_version, got %s" (T.error_to_string e));
  (* sub-header file: a hard error, not a tear *)
  with_log (fun p -> truncate_to p 10) (fun p ->
      match read_err p with
      | T.Truncated _ -> ()
      | e -> Alcotest.failf "wanted Truncated, got %s" (T.error_to_string e));
  (* checksum flip inside a frame payload *)
  with_log (fun p -> patch_byte p ~pos:(-1) flip) (fun p ->
      match read_err p with
      | T.Checksum_mismatch _ -> ()
      | e -> Alcotest.failf "wanted Checksum_mismatch, got %s" (T.error_to_string e));
  (* directory payload corruption with frames after it *)
  with_log (fun p -> patch_byte p ~pos:40 flip) (fun p ->
      match read_err p with
      | T.Checksum_mismatch _ | T.Malformed _ -> ()
      | e -> Alcotest.failf "wanted Checksum_mismatch/Malformed, got %s" (T.error_to_string e));
  (* header-only log: no directory frame at all *)
  with_log (fun p -> truncate_to p 16) (fun p ->
      match read_err p with
      | T.Malformed _ -> ()
      | e -> Alcotest.failf "wanted Malformed, got %s" (T.error_to_string e));
  (* Forged fields under a valid checksum.  The directory frame starts
     at byte 16 (payload at 32: kind, track count at 40, then the first
     name's length at 48); the first sample frame starts at 66. *)
  let forge ~at v ~reseal p =
    patch_bytes p (fun b ->
        Bytes.set_int64_le b at v;
        reseal b)
  in
  let directory b = Mutation.reseal_frame b ~frame:16 in
  (* 2^40 tracks: checked against the payload bytes, not allocated *)
  with_log (forge ~at:40 (Int64.shift_left 1L 40) ~reseal:directory) (fun p ->
      match read_err p with
      | T.Malformed _ -> ()
      | e -> Alcotest.failf "wanted Malformed, got %s" (T.error_to_string e));
  (* a track name of max_int bytes: no overflow past the bound check *)
  with_log (forge ~at:48 (Int64.of_int max_int) ~reseal:directory) (fun p ->
      match read_err p with
      | T.Malformed _ -> ()
      | e -> Alcotest.failf "wanted Malformed, got %s" (T.error_to_string e));
  (* a directory naming a track twice: refused by name *)
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mutation.repeated_track_log path;
      match read_err path with
      | T.Malformed msg ->
          Alcotest.(check string) "names the track" "track directory repeats \"a\"" msg
      | e -> Alcotest.failf "wanted Malformed, got %s" (T.error_to_string e));
  (* a frame of max_int - 4 bytes sealed as empty: more than the file
     holds, so the walk stops there and names the tear *)
  with_log
    (forge ~at:66 (Int64.of_int (max_int - 4)) ~reseal:(fun b ->
         Bytes.set_int64_le b 74 (T.Framed.fnv1a64 b ~pos:0 ~len:0)))
    (fun p ->
      let log = read_ok p in
      Alcotest.(check int) "the samples from the forged frame on are dropped" 0
        (List.length log.T.samples);
      match log.T.torn with
      | Some (T.Truncated _) -> ()
      | _ -> Alcotest.fail "wanted the forged frame reported as a Truncated tear")

let test_torn_tail () =
  (* Cut the final frame short at several depths: mid-payload and
     mid-header.  Every cut keeps the intact prefix and names the
     tear; nothing before the tear is lost. *)
  List.iter
    (fun cut ->
      let path = temp_log () in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          write_sample_log path [| "x"; "y" |] rows3;
          truncate_to path (-cut);
          let log = read_ok path in
          (match log.T.torn with
          | Some (T.Truncated _) -> ()
          | Some e -> Alcotest.failf "cut %d: tear is %s, wanted Truncated" cut (T.error_to_string e)
          | None -> Alcotest.failf "cut %d: no tear reported" cut);
          Alcotest.(check int)
            (Printf.sprintf "cut %d keeps intact prefix" cut)
            2 (List.length log.T.samples);
          let s = List.nth log.T.samples 1 in
          Alcotest.(check (array int)) "prefix values intact" [| 5; 8 |] s.T.values))
    (* sample frames are 16 + 24 + 2·8 = 56 bytes: cut 7 tears the
       payload, cut 48 leaves 8 of the 16 header bytes *)
    [ 7; 48 ];
  (* an exactly-frame-aligned truncation is simply a shorter valid log *)
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_sample_log path [| "x"; "y" |] rows3;
      truncate_to path (-56);
      let log = read_ok path in
      Alcotest.(check bool) "aligned cut is not a tear" true (log.T.torn = None);
      Alcotest.(check int) "aligned cut drops one sample" 2 (List.length log.T.samples))

let test_writer_validation () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.check_raises "empty tracks" (Invalid_argument "Telemetry.Writer.create: no tracks")
        (fun () -> ignore (T.Writer.create path ~tracks:[||]));
      Alcotest.check_raises "repeated track"
        (Invalid_argument "Telemetry.Writer.create: track \"x\" repeats") (fun () ->
          ignore (T.Writer.create path ~tracks:[| "x"; "y"; "x" |]));
      match T.Writer.create path ~tracks:[| "x"; "y" |] with
      | Error e -> Alcotest.failf "create: %s" (T.error_to_string e)
      | Ok w ->
          Fun.protect
            ~finally:(fun () -> T.Writer.close w)
            (fun () ->
              Alcotest.check_raises "arity mismatch"
                (Invalid_argument
                   "Telemetry.Writer.sample: value count does not match the directory") (fun () ->
                  T.Writer.sample w ~at_ns:1 ~at_edges:1 [| 1; 2; 3 |])))

let test_summarize_quantiles () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* track "up" runs 1..100 in order; track "down" runs 100..1 —
         same sorted distribution, different last. *)
      let rows =
        List.init 100 (fun i -> (1000 + i, 64 * (i + 1), [| i + 1; 100 - i |]))
      in
      write_sample_log path [| "up"; "down" |] rows;
      let log = read_ok path in
      match T.summarize log with
      | [ up; down ] ->
          Alcotest.(check string) "name" "up" up.T.t_name;
          Alcotest.(check int) "count" 100 up.T.t_count;
          Alcotest.(check int) "min" 1 up.T.t_min;
          Alcotest.(check int) "max" 100 up.T.t_max;
          Alcotest.(check int) "last up" 100 up.T.t_last;
          Alcotest.(check int) "p50" 50 up.T.t_p50;
          Alcotest.(check int) "p99" 99 up.T.t_p99;
          Alcotest.(check int) "last down" 1 down.T.t_last;
          Alcotest.(check int) "p50 down" 50 down.T.t_p50
      | l -> Alcotest.failf "summarize returned %d tracks" (List.length l));
  Alcotest.(check int) "quantile empty" 0 (Mkc_obs.Histogram.quantile_sorted [||] 0.5);
  Alcotest.(check int) "quantile singleton" 7 (Mkc_obs.Histogram.quantile_sorted [| 7 |] 0.99);
  Alcotest.(check int) "quantile p50 of 4" 2 (Mkc_obs.Histogram.quantile_sorted [| 1; 2; 3; 4 |] 0.5)

(* A sample frame is assembled and checksummed in the writer's scratch
   buffer: the same warm-up, settle and minor-words delta as
   test_alloc.ml, over 30 tracks. *)
let test_writer_zero_alloc () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match T.Writer.create path ~tracks:(Array.init 30 (Printf.sprintf "t%d")) with
      | Error e -> Alcotest.failf "create: %s" (T.error_to_string e)
      | Ok w ->
          Fun.protect
            ~finally:(fun () -> T.Writer.close w)
            (fun () ->
              let row = Array.init 30 (fun i -> i * 1_000_003) in
              let burst n =
                for i = 1 to n do
                  T.Writer.sample w ~at_ns:i ~at_edges:(i * 10) row
                done
              in
              burst 100;
              Gc.full_major ();
              let before = Gc.minor_words () in
              burst 10_000;
              let per_sample = (Gc.minor_words () -. before) /. 10_000. in
              if per_sample >= 0.1 then
                Alcotest.failf "Writer.sample allocates %.3f words/sample (want 0)" per_sample))

(* Every frame reaches the file as it is written: a reader sees the
   samples and events of a run that is still going (or was killed), with
   no close. *)
let test_writer_flushes () =
  let path = temp_log () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match T.Writer.create path ~tracks:[| "pipeline.edges"; "counter" |] with
      | Error e -> Alcotest.failf "create: %s" (T.error_to_string e)
      | Ok w ->
          Fun.protect
            ~finally:(fun () -> T.Writer.close w)
            (fun () ->
              T.Writer.sample w ~at_ns:1 ~at_edges:100 [| 100; 10 |];
              T.Writer.sample w ~at_ns:2 ~at_edges:200 [| 200; 20 |];
              T.Writer.event w ~at_ns:3 ~at_edges:150 ~name:"health.x.violations" ~value:1;
              let log = read_ok path in
              Alcotest.(check int) "samples before close" 2 (List.length log.T.samples);
              Alcotest.(check int) "events before close" 1 (List.length log.T.events);
              Alcotest.(check bool) "untorn" true (log.T.torn = None);
              Alcotest.(check (array int))
                "last row" [| 200; 20 |] (List.nth log.T.samples 1).T.values))

(* ---------- Top rendering ---------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains what needle hay =
  if not (contains ~needle hay) then Alcotest.failf "%s: %S not found in:\n%s" what needle hay

let test_top_pp_count () =
  Alcotest.(check string) "small untouched" "999" (Top.pp_count 999);
  Alcotest.(check string) "thousands comma" "1,234" (Top.pp_count 1234);
  Alcotest.(check string) "tens of thousands" "12.3k" (Top.pp_count 12_345);
  Alcotest.(check string) "millions" "1.23M" (Top.pp_count 1_234_567);
  Alcotest.(check string) "billions" "2.50G" (Top.pp_count 2_500_000_000);
  Alcotest.(check string) "negative" "-1,234" (Top.pp_count (-1234));
  Alcotest.(check string) "zero" "0" (Top.pp_count 0)

(* A log read back, built in memory: rows of (edges, values), one
   second apart. *)
let log_of tracks rows =
  {
    T.tracks;
    samples =
      List.mapi
        (fun i (edges, values) -> { T.s_ns = 1_000_000_000 * (i + 1); s_edges = edges; values })
        rows;
    events = [];
    torn = None;
  }

let test_top_sparkline () =
  let log = log_of [| "v" |] (List.map (fun v -> (v, [| v |])) [ 0; 7; 3 ]) in
  let spark = Top.sparkline log 0 in
  (* three levels: min → lowest glyph, max → highest, newest right *)
  Alcotest.(check string) "sparkline shape" "\u{2581}\u{2588}\u{2584}" spark;
  let wide = Top.sparkline ~width:2 log 0 in
  Alcotest.(check string) "width clips to newest" "\u{2588}\u{2581}" wide;
  Alcotest.(check string) "empty sparkline" "" (Top.sparkline (log_of [| "v" |] []) 0)

let test_top_render () =
  check_contains "empty view" "waiting for the first sample"
    (Top.render (log_of [| "space.words" |] []));
  let tracks =
    [| "pipeline.edges"; "pipeline.edges_per_sec"; "space.words"; "space.oracle.l0"; "other.track" |]
  in
  let log =
    log_of tracks
      (List.map
         (fun (edges, rate, words, l0, other) -> (edges, [| edges; rate; words; l0; other |]))
         [ (1000, 500, 2048, 100, 1); (2000, 600, 4096, 120, 9) ])
  in
  let view = Top.render ~violations:[ ("space", 0); ("stall", 2) ] log in
  check_contains "header edges" "2,000 edges" view;
  check_contains "sample count" "2 samples" view;
  check_contains "throughput line" "throughput" view;
  check_contains "space line" "4,096 words" view;
  check_contains "space component" "oracle.l0" view;
  check_contains "unknown family fallback" "other.track" view;
  check_contains "violations" "stall \xc3\x972" view;
  let armed = Top.render ~violations:[ ("space", 0) ] log in
  check_contains "armed but quiet" "OK (space armed)" armed;
  let no_rules = Top.render log in
  check_contains "no rules" "health      OK" no_rules

(* --- hostile input: seeded mutation fuzz over every framed or
   columnar format (the checkpoint envelope has its own in
   test_checkpoint) --- *)

type fuzz_format = {
  fname : string;
  valid : string;
  fields : int array;  (** offsets of the int64 fields a lie rewrites *)
  reseal : string -> string;
  decode : string -> (unit, string) result;
}

let file_of path write =
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write path;
      In_channel.with_open_bin path In_channel.input_all)

(* Every int64 slot of every frame: lengths, checksums, kinds, counts,
   name lengths and values. *)
let frame_fields s =
  let b = Bytes.of_string s in
  Array.of_list
    (List.concat_map
       (fun pos ->
         let plen = Int64.to_int (Bytes.get_int64_le b pos) in
         List.init ((plen / 8) + 2) (fun i -> pos + (8 * i)))
       (Mutation.frame_starts b))

let fuzz_formats =
  lazy
    (let module L = Mkc_obs.Ledger in
    let module Ef = Mkc_stream.Edge_file in
    let decode_with read to_string path =
      Result.map ignore (read path) |> Result.map_error to_string
    in
    let tel =
      file_of (temp_log ()) (fun p ->
          write_sample_log p [| "space.words"; "x" |] rows3 ~events:[ (3500, 192, "ev", 1) ])
    in
    let entry =
      {
        L.e_label = "fuzz";
        e_created_ns = 1;
        e_host = [];
        e_params = [];
        e_stats = [ ("wall_s", 1.0) ];
        e_modes = [];
        e_digests = [];
        e_quality = [];
      }
    in
    let ledger =
      file_of (temp_log ()) (fun p ->
          Sys.remove p;
          ignore (L.append p entry);
          ignore (L.append p entry))
    in
    let edges signed =
      Array.init 40 (fun i ->
          Mkc_stream.Edge.signed ~sign:(if signed && i mod 3 = 0 then -1 else 1) ~set:(i mod 7)
            ~elt:(i * 5 mod 23))
    in
    let edge_file signed =
      file_of (temp_log ()) (fun p -> ignore (Ef.write p (edges signed) ~n:23 ~m:7))
    in
    let edge name signed =
      {
        fname = name;
        valid = edge_file signed;
        fields = [| 8; 16; 24; 32; 40 |];
        reseal = Mutation.reseal_edge_file;
        decode = decode_with Ef.read Ef.error_to_string;
      }
    in
    [|
      {
        fname = "MKCTEL1";
        valid = tel;
        fields = frame_fields tel;
        reseal = Mutation.reseal_frames;
        decode = decode_with T.read T.error_to_string;
      };
      {
        fname = "MKCLEDG1";
        valid = ledger;
        fields = frame_fields ledger;
        reseal = Mutation.reseal_frames;
        decode = decode_with L.read L.error_to_string;
      };
      edge "MKCEDG1" false;
      edge "MKCEDG2" true;
    |])

let prop_fuzz_framed =
  let arb =
    QCheck.make
      ~print:(fun (f, m) ->
        Printf.sprintf "%s, %s" (Lazy.force fuzz_formats).(f).fname (Mutation.to_string m))
      QCheck.Gen.(pair (int_bound 3) Mutation.gen)
  in
  QCheck.Test.make ~name:"fuzz: mutated logs and edge files end in Ok or a named error"
    ~count:1000 arb (fun (f, m) ->
      let fmt = (Lazy.force fuzz_formats).(f) in
      let path = temp_log () in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      (* Lies and every other flip are re-sealed, so they reach the
         parsers behind the checksum instead of stopping at it. *)
      let bytes =
        Mutation.apply m fmt.valid ~lie:(fun s ~spot v ->
            Mutation.set_int64 s ~at:fmt.fields.(spot mod Array.length fmt.fields) v)
      in
      let bytes =
        if m.kind = 2 || List.hd m.spots land 1 = 0 then fmt.reseal bytes else bytes
      in
      let read s =
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
        Mutation.allocated (fun () -> fmt.decode path)
      in
      let valid_words = read fmt.valid in
      match read bytes with
      | words ->
          (* a lying field cannot allocate more than the input's size allows *)
          if words > (4 * valid_words) + (64 * String.length bytes) then
            QCheck.Test.fail_reportf "%s: read allocated %d words from %d bytes" fmt.fname words
              (String.length bytes);
          true
      | exception e -> QCheck.Test.fail_reportf "%s: raised %s" fmt.fname (Printexc.to_string e))

let suite =
  [
    Alcotest.test_case "writer/reader round trip" `Quick test_round_trip;
    Alcotest.test_case "rejection matrix" `Quick test_rejection_matrix;
    Alcotest.test_case "torn tail keeps prefix" `Quick test_torn_tail;
    Alcotest.test_case "writer validation" `Quick test_writer_validation;
    Alcotest.test_case "summarize quantile convention" `Quick test_summarize_quantiles;
    Alcotest.test_case "writer allocates nothing per sample" `Quick test_writer_zero_alloc;
    Alcotest.test_case "writer flushes every frame" `Quick test_writer_flushes;
    Alcotest.test_case "top pp_count" `Quick test_top_pp_count;
    Alcotest.test_case "top sparkline" `Quick test_top_sparkline;
    Alcotest.test_case "top render families" `Quick test_top_render;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20 |]) prop_fuzz_framed;
  ]
