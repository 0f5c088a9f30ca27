(* Tests for Mkc_obs.Ledger, the append-only MKCLEDG1 run-record store.

   The load-bearing claims:
     1. append/read round-trips entries exactly, across multiple
        appends and re-opens (the file accumulates, never overwrites);
     2. the encoder is deterministic: identical entries encode to
        identical bytes (sorted fields), the golden-test property that
        lets bench-diff compare records from different builds;
     3. the corruption matrix mirrors the telemetry log's contract —
        a torn final frame keeps the intact prefix and is reported by
        name, while bad magic, a foreign version, an in-file checksum
        flip, and a malformed record are hard named errors;
     4. appending to a foreign or corrupt file is refused before any
        byte is written;
     5. entry_of_json rejects semantic nonsense (wrong schema,
        negative timestamps, zero repeats, inverted timings) so a
        ledger can be trusted as comparison evidence. *)

module L = Mkc_obs.Ledger
module H = Mkc_obs.Histogram
module J = Mkc_obs.Json

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let with_tmp k =
  let path = Filename.temp_file "mkc_ledger_test" ".mkcledg" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> k path)

let digest_of values =
  let h = H.create () in
  List.iter (H.record h) values;
  H.digest h

let sample_entry ?(label = "bench") ?(created_ns = 1000) ?(best = 0.5) () =
  {
    L.e_label = label;
    e_created_ns = created_ns;
    e_host = [ ("hostname", J.String "testhost"); ("word_size", J.Int 64) ];
    e_params = [ ("k", J.Int 8); ("n", J.Int 1024); ("seed", J.Int 7) ];
    e_stats = [ ("edges", 4096.0); ("wall_s", best) ];
    e_modes =
      [
        {
          L.ms_mode = "batched";
          ms_repeats = 3;
          ms_best_s = best;
          ms_median_s = best *. 1.5;
          ms_edges_per_sec = 4096.0 /. best;
        };
      ];
    e_digests = [ ("feed_ns", digest_of [ 100; 200; 400 ]) ];
    e_quality = [ ("estimate.quality.vs_greedy.relative_error", 0.05) ];
  }

let append_ok path e =
  match L.append path e with
  | Ok () -> ()
  | Error err -> Alcotest.failf "append: %s" (L.error_to_string err)

let read_ok path =
  match L.read path with
  | Ok store -> store
  | Error err -> Alcotest.failf "read: %s" (L.error_to_string err)

(* --- round trip and accumulation --- *)

let test_round_trip () =
  with_tmp (fun path ->
      let a = sample_entry ~created_ns:1000 () in
      let b = sample_entry ~created_ns:2000 ~best:0.4 () in
      append_ok path a;
      append_ok path b;
      let store = read_ok path in
      checkb "no tear" true (store.L.torn = None);
      checki "both records survive" 2 (List.length store.L.entries);
      checkb "oldest first, field-exact" true (store.L.entries = [ a; b ]);
      (* a third append after a full read/close cycle keeps accumulating *)
      append_ok path (sample_entry ~created_ns:3000 ());
      checki "append keeps accumulating" 3 (List.length (read_ok path).L.entries))

let test_encoding_deterministic () =
  let e = sample_entry () in
  checks "identical entries encode identically"
    (J.to_string (L.entry_to_json e))
    (J.to_string (L.entry_to_json (sample_entry ())));
  (* field order in the record does not leak into the bytes *)
  let shuffled = { e with L.e_params = List.rev e.L.e_params } in
  checks "encoder sorts object fields"
    (J.to_string (L.entry_to_json e))
    (J.to_string (L.entry_to_json shuffled));
  match Result.bind (J.parse (J.to_string (L.entry_to_json e))) L.entry_of_json with
  | Error msg -> Alcotest.failf "entry JSON round trip: %s" msg
  | Ok e' ->
      (* decoded assoc lists come back sorted; compare against the
         sorted original *)
      let sort l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
      checkb "JSON round trip preserves the entry" true
        (e' = { e with L.e_params = sort e.L.e_params; e_host = sort e.L.e_host })

(* --- corruption matrix --- *)

let file_bytes path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  b

let write_bytes path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let truncate_to path keep =
  let b = file_bytes path in
  write_bytes path (Bytes.sub b 0 keep)

let flip_byte path pos =
  let b = file_bytes path in
  let pos = if pos < 0 then Bytes.length b + pos else pos in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  write_bytes path b

let test_torn_tail_keeps_prefix () =
  with_tmp (fun path ->
      append_ok path (sample_entry ~created_ns:1000 ());
      append_ok path (sample_entry ~created_ns:2000 ());
      let full = Bytes.length (file_bytes path) in
      (* cut into the final frame's payload: crash mid-append *)
      truncate_to path (full - 7);
      let store = read_ok path in
      checki "intact prefix survives" 1 (List.length store.L.entries);
      checkb "the tear is reported by name" true
        (match store.L.torn with Some (Mkc_obs.Telemetry.Truncated _) -> true | _ -> false);
      (* appending after a tear still works — the header is intact *)
      append_ok path (sample_entry ~created_ns:3000 ());
      ())

let test_rejection_matrix () =
  let expect_error what mutate pred =
    with_tmp (fun path ->
        append_ok path (sample_entry ());
        mutate path;
        match L.read path with
        | Ok _ -> Alcotest.failf "read accepted %s" what
        | Error e ->
            checkb (what ^ " is the named error") true (pred e);
            (* the same damage must also refuse an append *)
            (match L.append path (sample_entry ()) with
            | Ok () -> Alcotest.failf "append accepted %s" what
            | Error _ -> ()))
  in
  expect_error "a foreign magic"
    (fun p -> flip_byte p 0)
    (function Mkc_obs.Telemetry.Bad_magic _ -> true | _ -> false);
  expect_error "an unsupported version"
    (fun p -> flip_byte p 8)
    (function Mkc_obs.Telemetry.Bad_version _ -> true | _ -> false);
  expect_error "a header cut short"
    (fun p -> truncate_to p 10)
    (function Mkc_obs.Telemetry.Truncated _ -> true | _ -> false);
  (* in-file payload damage: fatal checksum mismatch, not a tear —
     note append is refused only for header damage, so check read *)
  with_tmp (fun path ->
      append_ok path (sample_entry ());
      append_ok path (sample_entry ~created_ns:2000 ());
      flip_byte path 40;
      match L.read path with
      | Ok _ -> Alcotest.fail "read accepted a flipped payload byte"
      | Error (Mkc_obs.Telemetry.Checksum_mismatch _) -> ()
      | Error e -> Alcotest.failf "expected a checksum mismatch, got: %s" (L.error_to_string e));
  (* a frame length of max_int - 4 sealed as empty: the length is
     compared against the bytes left (no overflow), so the forged
     record is a named tear, never an exception *)
  with_tmp (fun path ->
      append_ok path (sample_entry ());
      let b = file_bytes path in
      Bytes.set_int64_le b 16 (Int64.of_int (max_int - 4));
      Bytes.set_int64_le b 24 (Mkc_obs.Telemetry.Framed.fnv1a64 b ~pos:0 ~len:0);
      write_bytes path b;
      match L.read path with
      | Ok { entries = []; torn = Some (Mkc_obs.Telemetry.Truncated _) } -> ()
      | Ok _ -> Alcotest.fail "a forged frame length must read as a named tear"
      | Error e -> Alcotest.failf "expected a tear, got: %s" (L.error_to_string e))

let test_empty_and_missing () =
  with_tmp (fun path ->
      (* a missing file reads as an error, not an empty store *)
      (match L.read path with
      | Ok _ -> Alcotest.fail "read of a missing file succeeded"
      | Error (Mkc_obs.Telemetry.Io_error _) -> ()
      | Error e -> Alcotest.failf "expected io error, got %s" (L.error_to_string e));
      (* an empty file is `Fresh for append (header gets written) *)
      write_bytes path (Bytes.create 0);
      append_ok path (sample_entry ());
      checki "record lands in the freshly-headed file" 1
        (List.length (read_ok path).L.entries))

(* --- semantic validation --- *)

let test_entry_validation () =
  let reject what patch =
    let j = L.entry_to_json (sample_entry ()) in
    let s = patch (J.to_string j) in
    match Result.bind (J.parse s) L.entry_of_json with
    | Ok _ -> Alcotest.failf "entry_of_json accepted %s" what
    | Error _ -> ()
  in
  let replace ~sub ~by s =
    let ls = String.length s and lb = String.length sub in
    let rec find i =
      if i + lb > ls then invalid_arg ("replace: " ^ sub ^ " not found")
      else if String.sub s i lb = sub then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + lb) (ls - i - lb)
  in
  reject "a foreign record schema" (replace ~sub:"mkc-ledger/1" ~by:"mkc-ledger/9");
  reject "a negative created_ns" (replace ~sub:"\"created_ns\":1000" ~by:"\"created_ns\":-1");
  reject "zero repeats" (replace ~sub:"\"repeats\":3" ~by:"\"repeats\":0");
  reject "a median below best" (replace ~sub:"\"median_s\":0.75" ~by:"\"median_s\":0.25");
  reject "a tampered digest (min above max)"
    (replace ~sub:"\"min\":100" ~by:"\"min\":500")

(* A run's evidence is every populated histogram, digested, plus the
   gauges under a ".quality." name — nothing else. *)
let test_harvest () =
  let module R = Mkc_obs.Registry in
  let was = R.enabled () in
  R.set_enabled true;
  Fun.protect
    ~finally:(fun () -> R.set_enabled was)
    (fun () ->
      let r = R.create () in
      List.iter (R.record (R.histogram r "feed_ns")) [ 3; 5; 8 ];
      ignore (R.histogram r "empty_ns" : R.histogram);
      R.set (R.gauge r "estimate.quality.hit_ratio") 0.25;
      R.set (R.gauge r "space.headroom") 0.5;
      R.incr (R.counter r "edges");
      let digests, quality = L.harvest r in
      Alcotest.(check (list string)) "populated histograms only" [ "feed_ns" ]
        (List.map fst digests);
      checki "digest count" 3 (List.assoc "feed_ns" digests).H.d_count;
      checki "digest sum" 16 (List.assoc "feed_ns" digests).H.d_sum;
      checkb "quality gauges only" true (quality = [ ("estimate.quality.hit_ratio", 0.25) ]))

let suite =
  [
    Alcotest.test_case "append/read round trip accumulates" `Quick test_round_trip;
    Alcotest.test_case "encoding is deterministic and sorted" `Quick
      test_encoding_deterministic;
    Alcotest.test_case "torn tail keeps the intact prefix" `Quick
      test_torn_tail_keeps_prefix;
    Alcotest.test_case "corruption rejection matrix" `Quick test_rejection_matrix;
    Alcotest.test_case "missing vs empty files" `Quick test_empty_and_missing;
    Alcotest.test_case "record semantic validation" `Quick test_entry_validation;
    Alcotest.test_case "harvest reads digests and quality gauges" `Quick test_harvest;
  ]
