(* Tests for the checkpoint / shard-merge subsystem.

   The contract has two halves:

   1. crash tolerance — kill a run at any chunk boundary, restore from
      the latest checkpoint, finish: the result, the word counts and
      every work counter are bit-for-bit those of the uninterrupted run
      (checkpoints land on chunk boundaries only, so the resumed run
      re-chunks the suffix on the same grid);
   2. mergeability — the sketches are linear (F2/CountSketch,
      Thm 2.11) or pure functions of the element set seen (L0, Fig 3),
      so P edge-partitioned shard runs merge into exactly the
      single-stream state.

   Plus the envelope itself: a byte-stable mkc-ckpt/1 golden, and named
   rejection of every tampering mode (foreign magic, unknown version,
   truncated bytes, forged seed, flipped payload, wrong kind). *)

module Edge = Mkc_stream.Edge
module Src = Mkc_stream.Stream_source
module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module Ck = Mkc_stream.Checkpoint
module Json = Mkc_obs.Json
module P = Mkc_core.Params
module E = Mkc_core.Estimate
module L0 = Mkc_sketch.L0_bjkst
module F2 = Mkc_sketch.F2_ams
module Sm = Mkc_hashing.Splitmix

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Same regime as test_chunk_engine: small enough for qcheck volume,
   rich enough that all three oracle subroutines carry live state. *)
let params () = P.make ~m:32 ~n:64 ~k:3 ~alpha:4.0 ~seed:13 ()

let edges_gen =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 300) (pair (int_range 0 31) (int_range 0 63)))
      (int_range 1 128))

let edges_arb =
  QCheck.make
    ~print:(fun (edges, chunk) ->
      Printf.sprintf "%d edges, chunk %d" (List.length edges) chunk)
    edges_gen

let to_edges pairs = Array.of_list (List.map (fun (s, e) -> Edge.make ~set:s ~elt:e) pairs)

let fingerprint (r : E.result) =
  let witness =
    match r.E.outcome with
    | None -> []
    | Some o -> List.sort compare (o.Mkc_core.Solution.witness ())
  in
  (r.E.estimate, r.E.z_guess, witness)

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* Shard runs make their sampler decisions per shard-local chunk and
   rebuild the decision memo from scratch after a merge, so the
   evaluation/hit counter families legitimately differ from the
   single-stream run — everything else must not. *)
let invariant_stats est =
  List.map
    (fun (inst, stats) ->
      ( inst,
        List.filter
          (fun (k, _) ->
            not (has_suffix ~suffix:"sampler_evals" k || has_suffix ~suffix:"memo_hits" k))
          stats ))
    (E.stats est)

let with_tmp f =
  let path = Filename.temp_file "mkc_ckpt" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The resumable drive over the whole estimator as one sink. *)
let resumable ?chunk ?every ?resume ?checkpoint p est src =
  Pipe.run_resumable ?chunk ?every ?resume ?checkpoint (E.codec p) est
    ~shards:(fun e -> [| Sink.pack E.sink e |])
    ~finalize:E.finalize src

(* --- 1. differential crash-resume (sequential) --- *)

(* Uninterrupted run vs: run the prefix with a checkpoint at every
   chunk, "crash" at a random chunk boundary, restore into a fresh
   estimator, finish the suffix.  Everything observable must match bit
   for bit — including the sampler-eval counters, because the resumed
   run re-chunks the suffix on the same grid. *)
let prop_crash_resume =
  QCheck.Test.make ~name:"crash at a chunk boundary + resume ≡ uninterrupted run"
    ~count:25 edges_arb (fun (pairs, chunk) ->
      let edges = to_edges pairs in
      let n = Array.length edges in
      let p = params () in
      let full = E.create p in
      let r_full = Pipe.run ~chunk E.sink full (Src.of_array edges) in
      (* crash after [cut] edges, a chunk multiple chosen pseudo-randomly
         from the instance (qcheck shrinks stay reproducible) *)
      let nchunks = (n + chunk - 1) / chunk in
      let cut = chunk * (1 + ((n * 7919) mod nchunks)) in
      let cut = min cut n in
      with_tmp (fun path ->
          let interrupted = E.create p in
          (match
             resumable ~chunk ~every:1 ~checkpoint:path p interrupted
               (Src.of_array (Array.sub edges 0 cut))
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "prefix run: %s" (Ck.error_to_string e));
          let resumed = E.create p in
          match
            resumable ~chunk ~resume:path p resumed (Src.of_array edges)
          with
          | Error e -> Alcotest.failf "resume: %s" (Ck.error_to_string e)
          | Ok r_res ->
              fingerprint r_full = fingerprint r_res
              && E.words full = E.words resumed
              && E.words_breakdown full = E.words_breakdown resumed
              && E.stats full = E.stats resumed))

(* Same law under the parallel driver: restore a checkpoint taken at a
   coordinator chunk boundary, re-derive the shards, drive the suffix
   with [feed_all_parallel ~start].  The coordinator chunks at
   [chunk × domains], so the cut must sit on that wider grid. *)
let prop_crash_resume_parallel =
  QCheck.Test.make ~name:"parallel resume (feed_all_parallel ~start) ≡ uninterrupted"
    ~count:15 edges_arb (fun (pairs, chunk) ->
      let domains = 2 in
      let edges = to_edges pairs in
      let n = Array.length edges in
      let p = params () in
      let wide = chunk * domains in
      let drive_from est start =
        Pipe.feed_all_parallel ~domains ~chunk ~start (E.shards est) (Src.of_array edges);
        E.finalize est
      in
      let full = E.create p in
      let r_full = drive_from full 0 in
      let nchunks = (n + wide - 1) / wide in
      let cut = min n (wide * (1 + ((n * 104729) mod nchunks))) in
      (* drive the prefix in parallel, snapshot through the codec's
         string form (exercising the envelope), restore, finish *)
      let interrupted = E.create p in
      Pipe.feed_all_parallel ~domains ~chunk (E.shards interrupted)
        (Src.of_array (Array.sub edges 0 cut));
      let env =
        { Ck.kind = (E.codec p).Ck.kind; pos = cut; seed = (E.codec p).Ck.seed;
          payload = E.encode interrupted }
      in
      let resumed = E.create p in
      match Ck.of_string ~expect_kind:"estimate" ~expect_seed:p.P.base_seed
              (Ck.to_string env)
      with
      | Error e -> Alcotest.failf "envelope round trip: %s" (Ck.error_to_string e)
      | Ok env -> (
          match E.restore resumed env.Ck.payload with
          | Error msg -> Alcotest.failf "restore: %s" msg
          | Ok () ->
              let r_res = drive_from resumed env.Ck.pos in
              fingerprint r_full = fingerprint r_res
              && E.words full = E.words resumed
              && E.words_breakdown full = E.words_breakdown resumed
              && E.stats full = E.stats resumed))

(* --- 2. merge laws --- *)

(* P edge-partitioned shard runs, merged stream-ordered, then finalized
   ≡ the single-stream run: same answer, same words, same invariant
   work counters (the sampler-eval families are per-shard-schedule). *)
let prop_shard_merge =
  let gen = QCheck.Gen.(pair edges_gen (int_range 2 4)) in
  let arb =
    QCheck.make
      ~print:(fun ((edges, chunk), shards) ->
        Printf.sprintf "%d edges, chunk %d, %d shards" (List.length edges) chunk shards)
      gen
  in
  QCheck.Test.make ~name:"P edge-partitioned shards merged ≡ single-stream run" ~count:20
    arb (fun ((pairs, chunk), shards) ->
      let edges = to_edges pairs in
      let p = params () in
      let single = E.create p in
      let r_single = Pipe.run ~chunk E.sink single (Src.of_array edges) in
      let merged = ref None in
      let r_merged =
        Pipe.run_sharded ~chunk ~shards
          ~create:(fun () ->
            let e = E.create p in
            (* run_sharded merges into the first created state *)
            if !merged = None then merged := Some e;
            e)
          ~merge:(fun dst src -> E.merge_into ~dst src)
          E.sink (Src.of_array edges)
      in
      let merged = Option.get !merged in
      fingerprint r_single = fingerprint r_merged
      && E.words single = E.words merged
      && E.words_breakdown single = E.words_breakdown merged
      && invariant_stats single = invariant_stats merged)

(* Sketch-level merge laws, on canonical dump states.  [l0_of]/[f2_of]
   build a sketch from an element list under a fixed seed; merge order
   and grouping must not matter. *)
let l0_of seed xs =
  let sk = L0.create ~seed:(Sm.create seed) () in
  List.iter (fun x -> L0.add sk x) xs;
  sk

let l0_merged seed parts =
  let acc = l0_of seed [] in
  List.iter (fun xs -> L0.merge_into ~dst:acc (l0_of seed xs)) parts;
  L0.dump acc

let prop_l0_merge_laws =
  let gen = QCheck.Gen.(list_size (int_range 0 200) (int_range 0 1000)) in
  let arb3 =
    QCheck.make
      ~print:(fun (a, (b, c)) ->
        Printf.sprintf "|a|=%d |b|=%d |c|=%d" (List.length a) (List.length b)
          (List.length c))
      QCheck.Gen.(pair gen (pair gen gen))
  in
  QCheck.Test.make ~name:"l0 merge: commutative, associative, ≡ union stream" ~count:50
    arb3 (fun (a, (b, c)) ->
      let seed = 4242 in
      l0_merged seed [ a; b ] = l0_merged seed [ b; a ]
      && l0_merged seed [ a; b; c ] = l0_merged seed [ c; a; b ]
      (* merge ≡ feeding the concatenated stream into one sketch *)
      && l0_merged seed [ a; b; c ] = L0.dump (l0_of seed (a @ b @ c)))

let f2_of seed xs =
  let sk = F2.create ~seed:(Sm.create seed) () in
  List.iter (fun (i, d) -> F2.add sk i d) xs;
  sk

let f2_merged seed parts =
  let acc = f2_of seed [] in
  List.iter (fun xs -> F2.merge_into ~dst:acc (f2_of seed xs)) parts;
  F2.dump acc

let prop_f2_merge_laws =
  let gen =
    QCheck.Gen.(list_size (int_range 0 100) (pair (int_range 0 200) (int_range (-3) 3)))
  in
  let arb3 =
    QCheck.make
      ~print:(fun (a, (b, c)) ->
        Printf.sprintf "|a|=%d |b|=%d |c|=%d" (List.length a) (List.length b)
          (List.length c))
      QCheck.Gen.(pair gen (pair gen gen))
  in
  QCheck.Test.make ~name:"f2 merge: linear — commutative, associative, ≡ summed stream"
    ~count:50 arb3 (fun (a, (b, c)) ->
      let seed = 777 in
      f2_merged seed [ a; b ] = f2_merged seed [ b; a ]
      && f2_merged seed [ a; b; c ] = f2_merged seed [ c; a; b ]
      && f2_merged seed [ a; b; c ] = F2.dump (f2_of seed (a @ b @ c)))

(* --- 3. envelope: golden bytes, round trip, tamper rejection --- *)

let demo_env =
  {
    Ck.kind = "demo";
    pos = 3;
    seed = 42;
    payload = Json.Object [ ("counts", Ck.J.int_array [| 1; 2; 3 |]) ];
  }

let golden =
  "{\"schema\":\"mkc-ckpt/1\",\"kind\":\"demo\",\"pos\":3,\"seed\":42,\
   \"crc\":\"c5fe3701f915d617\",\"payload\":{\"counts\":[1,2,3]}}"

let test_golden_bytes () =
  checks "byte-stable rendering" golden (Ck.to_string demo_env);
  (* stability across a parse → re-render cycle *)
  match Ck.of_string golden with
  | Error e -> Alcotest.failf "golden does not parse: %s" (Ck.error_to_string e)
  | Ok env -> checks "round trip re-renders identically" golden (Ck.to_string env)

let test_round_trip_fields () =
  match Ck.of_string ~expect_kind:"demo" ~expect_seed:42 golden with
  | Error e -> Alcotest.failf "golden rejected: %s" (Ck.error_to_string e)
  | Ok env ->
      checks "kind" "demo" env.Ck.kind;
      checki "pos" 3 env.Ck.pos;
      checki "seed" 42 env.Ck.seed;
      checkb "payload preserved" true (env.Ck.payload = demo_env.Ck.payload)

let replace_once ~sub ~by s =
  let ls = String.length s and lb = String.length sub in
  let rec find i =
    if i + lb > ls then invalid_arg "replace_once: substring not found"
    else if String.sub s i lb = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + lb) (ls - i - lb)

let test_tamper_rejection () =
  let reject what expected s =
    match Ck.of_string s with
    | Ok _ -> Alcotest.failf "%s was accepted" what
    | Error e ->
        checkb
          (Printf.sprintf "%s rejected as %s (got %s)" what expected (Ck.error_to_string e))
          true
          (match (expected, e) with
          | "bad_magic", Ck.Bad_magic _ -> true
          | "bad_version", Ck.Bad_version _ -> true
          | "truncated", Ck.Truncated _ -> true
          | "malformed", Ck.Malformed _ -> true
          | "checksum", Ck.Checksum_mismatch _ -> true
          | _ -> false)
  in
  reject "a foreign schema" "bad_magic" (replace_once ~sub:"mkc-ckpt/1" ~by:"not-ckpt/1" golden);
  reject "an unknown version" "bad_version"
    (replace_once ~sub:"mkc-ckpt/1" ~by:"mkc-ckpt/9" golden);
  reject "truncated bytes" "truncated" (String.sub golden 0 (String.length golden - 7));
  reject "a missing field" "malformed" (replace_once ~sub:"\"pos\":3," ~by:"" golden);
  reject "a flipped payload" "checksum"
    (replace_once ~sub:"[1,2,3]" ~by:"[1,2,4]" golden);
  reject "a forged position" "checksum" (replace_once ~sub:"\"pos\":3" ~by:"\"pos\":4" golden);
  (* seed/kind forgery that also fixes nothing else trips the checksum;
     expectation pinning catches a *consistently* re-signed envelope *)
  (match Ck.of_string ~expect_seed:43 golden with
  | Error (Ck.Seed_mismatch { expected = 43; got = 42 }) -> ()
  | Error e -> Alcotest.failf "seed pin: wrong error %s" (Ck.error_to_string e)
  | Ok _ -> Alcotest.fail "foreign seed accepted");
  match Ck.of_string ~expect_kind:"estimate" golden with
  | Error (Ck.Kind_mismatch { expected = "estimate"; got = "demo" }) -> ()
  | Error e -> Alcotest.failf "kind pin: wrong error %s" (Ck.error_to_string e)
  | Ok _ -> Alcotest.fail "foreign kind accepted"

let test_save_load_atomic () =
  with_tmp (fun path ->
      (match Ck.save ~path demo_env with
      | Error e -> Alcotest.failf "save: %s" (Ck.error_to_string e)
      | Ok bytes ->
          checki "save returns the byte size" (String.length golden) bytes;
          checki "words_of_bytes rounds up" ((bytes + 7) / 8) (Ck.words_of_bytes bytes));
      checks "file holds exactly the golden bytes" golden (read_file path);
      (* a corrupt file on disk is rejected by name, not by exception *)
      write_file path (replace_once ~sub:"[1,2,3]" ~by:"[9,2,3]" golden);
      match Ck.load ~path () with
      | Error (Ck.Checksum_mismatch _) -> ()
      | Error e -> Alcotest.failf "corrupt load: wrong error %s" (Ck.error_to_string e)
      | Ok _ -> Alcotest.fail "corrupt file accepted");
  match Ck.load ~path:"/nonexistent/mkc.ckpt" () with
  | Error (Ck.Io_error _) -> ()
  | Error e -> Alcotest.failf "missing file: wrong error %s" (Ck.error_to_string e)
  | Ok _ -> Alcotest.fail "missing file accepted"

(* A payload the estimator's own decoder must reject, wrapped in a
   perfectly valid envelope: the envelope validates, restore does not. *)
let test_payload_rejected () =
  let p = params () in
  let est = E.create p in
  let good = E.encode est in
  let bad =
    match good with
    | Json.Object fields ->
        Json.Object
          (List.map
             (function "body", _ -> ("body", Json.String "trivial") | kv -> kv)
             fields)
    | _ -> Alcotest.fail "estimate payload is not an object"
  in
  (match E.restore est bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "branch-mismatched payload accepted");
  (* and through the driver it surfaces as Payload_rejected *)
  with_tmp (fun path ->
      let env =
        { Ck.kind = "estimate"; pos = 0; seed = p.P.base_seed; payload = bad }
      in
      (match Ck.save ~path env with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "save: %s" (Ck.error_to_string e));
      let fresh = E.create p in
      match
        resumable ~resume:path p fresh (Src.of_array [| Edge.make ~set:0 ~elt:0 |])
      with
      | Error (Ck.Payload_rejected _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Ck.error_to_string e)
      | Ok _ -> Alcotest.fail "rejected payload restored")

(* --- 4. space accounting: checkpoint bytes are on the books --- *)

let test_observed_checkpoint_words () =
  let p = params () in
  let est = E.create p in
  let sm, ob = Sink.Observed.observe E.sink est in
  let module SM = (val sm) in
  let base = SM.words ob in
  Sink.Observed.note_checkpoint ob ~words:1234;
  checki "checkpoint words join the total" (base + 1234) (SM.words ob);
  checkb "breakdown grows a checkpoint key" true
    (List.mem_assoc "checkpoint" (SM.words_breakdown ob));
  checki "checkpoint key holds the last size" 1234
    (List.assoc "checkpoint" (SM.words_breakdown ob));
  (* a newer, smaller checkpoint replaces the figure (held space, not a sum) *)
  Sink.Observed.note_checkpoint ob ~words:10;
  checki "note_checkpoint overwrites" (base + 10) (SM.words ob);
  checkb "negative sizes are rejected" true
    (match Sink.Observed.note_checkpoint ob ~words:(-1) with
    | exception Invalid_argument _ -> true
    | () -> false)

(* --- 5. end-of-stream checkpoint feeds the merge workflow --- *)

let test_final_checkpoint_merges () =
  let p = params () in
  let edges =
    Array.init 240 (fun i -> Edge.make ~set:(i * 11 mod 32) ~elt:(i * 17 mod 64))
  in
  let single = E.create p in
  let r_single = Pipe.run ~chunk:64 E.sink single (Src.of_array edges) in
  let parts = Src.partition ~shards:2 (Src.of_array edges) in
  let final_env part =
    with_tmp (fun path ->
        let est = E.create p in
        (match
           resumable ~chunk:64 ~checkpoint:path p est part
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "shard run: %s" (Ck.error_to_string e));
        match Ck.load ~expect_kind:"estimate" ~expect_seed:p.P.base_seed ~path () with
        | Ok env -> env
        | Error e -> Alcotest.failf "shard checkpoint: %s" (Ck.error_to_string e))
  in
  let e0 = final_env parts.(0) and e1 = final_env parts.(1) in
  checki "shard checkpoints cover the whole stream" (Array.length edges)
    (e0.Ck.pos + e1.Ck.pos);
  let merged =
    match E.of_payload e0.Ck.payload with
    | Error msg -> Alcotest.failf "of_payload: %s" msg
    | Ok dst -> (
        match E.of_payload e1.Ck.payload with
        | Error msg -> Alcotest.failf "of_payload: %s" msg
        | Ok src ->
            E.merge_into ~dst src;
            dst)
  in
  let r_merged = E.finalize merged in
  checkb "merged final checkpoints ≡ single-stream run" true
    (fingerprint r_single = fingerprint r_merged);
  checki "merged words = single-stream words" (E.words single) (E.words merged)

(* --- 6. coverage baseline: the [34]-style sinks obey the same laws --- *)

let test_mcgregor_vu_shard_merge () =
  let module Mv = Mkc_coverage.Mcgregor_vu in
  let edges =
    Array.init 400 (fun i -> Edge.make ~set:(i * 13 mod 24) ~elt:(i * 29 mod 96))
  in
  let create () = Mv.create ~m:24 ~n:96 ~k:3 ~epsilon:0.5 ~seed:11 () in
  let single = create () in
  let r_single = Pipe.run ~chunk:64 Mv.sink single (Src.of_array edges) in
  let r_merged =
    Pipe.run_sharded ~chunk:64 ~shards:3 ~create
      ~merge:(fun dst src -> Mv.merge_into ~dst src)
      Mv.sink (Src.of_array edges)
  in
  checkb "3-shard merge ≡ single run" true
    (r_single.Mv.chosen = r_merged.Mv.chosen
    && r_single.Mv.coverage = r_merged.Mv.coverage
    && r_single.Mv.words = r_merged.Mv.words);
  (* encode/restore round trip: a restored baseline finalizes identically *)
  let orig = create () in
  let _ = Pipe.run ~chunk:64 Mv.sink orig (Src.of_array edges) in
  let fresh = create () in
  (match Mv.restore fresh (Mv.encode orig) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mcgregor_vu restore: %s" e);
  let rf = Mv.finalize fresh and ro = Mv.finalize orig in
  checkb "restored baseline finalizes identically" true
    (rf.Mv.chosen = ro.Mv.chosen && rf.Mv.coverage = ro.Mv.coverage)

(* --- 7. count_sketch: linearity --- *)

let prop_count_sketch_merge =
  let module Cs = Mkc_sketch.Count_sketch in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 100) (pair (int_range 0 100) (int_range (-4) 4)))
        (list_size (int_range 0 100) (pair (int_range 0 100) (int_range (-4) 4))))
  in
  let arb =
    QCheck.make
      ~print:(fun (a, b) -> Printf.sprintf "|a|=%d |b|=%d" (List.length a) (List.length b))
      gen
  in
  QCheck.Test.make ~name:"count_sketch merge: linear rows, ≡ summed stream" ~count:50 arb
    (fun (a, b) ->
      let mk xs =
        let sk = Cs.create ~width:16 ~seed:(Sm.create 99) () in
        List.iter (fun (i, d) -> Cs.add sk i d) xs;
        sk
      in
      let dst = mk a in
      Cs.merge_into ~dst (mk b);
      Cs.dump dst = Cs.dump (mk (a @ b)))

(* --- 8. params: self-describing payloads --- *)

let test_params_round_trip () =
  let p = params () in
  (match P.of_json (P.encode p) with
  | Error e -> Alcotest.failf "params round trip: %s" e
  | Ok q ->
      checkb "same instance after round trip" true (P.same_instance p q);
      checkb "derived constants re-derived" true (q = p));
  (* a different seed is a different instance *)
  let q = P.make ~m:32 ~n:64 ~k:3 ~alpha:4.0 ~seed:14 () in
  checkb "seed difference detected" false (P.same_instance p q);
  (* malformed params are rejected, not crashed on *)
  match P.of_json (Json.Object [ ("m", Json.Int 32) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated params accepted"

(* --- 9. sketch payload round trips through Sketch_io --- *)

let test_sketch_io_round_trips () =
  (* L0: feed, dump through JSON, restore into a twin, compare dumps *)
  let sk = l0_of 31 (List.init 300 (fun i -> i * i)) in
  let twin = L0.create ~seed:(Sm.create 31) () in
  (match Ck.Sketch_io.restore_l0 twin (Ck.Sketch_io.l0 sk) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "l0 restore: %s" e);
  checkb "l0 round trip is exact" true (L0.dump sk = L0.dump twin);
  checkb "l0 estimates agree" true (L0.estimate sk = L0.estimate twin);
  (* tampered payloads are rejected by the decoder *)
  (match Ck.Sketch_io.restore_l0 twin (Json.Object [ ("z", Json.Int 1) ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "truncated l0 payload accepted");
  (* Memo: contents and counters survive *)
  let memo = Mkc_sketch.Sampler.Memo.create ~slots:16 in
  List.iter (fun i -> Mkc_sketch.Sampler.Memo.store memo (i * 3) (i mod 5)) (List.init 40 Fun.id);
  let memo2 = Mkc_sketch.Sampler.Memo.create ~slots:16 in
  (match Ck.Sketch_io.restore_memo memo2 (Ck.Sketch_io.memo memo) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "memo restore: %s" e);
  List.iter
    (fun i ->
      checki
        (Printf.sprintf "memo slot agreement for id %d" (i * 3))
        (Mkc_sketch.Sampler.Memo.find memo (i * 3))
        (Mkc_sketch.Sampler.Memo.find memo2 (i * 3)))
    (List.init 40 Fun.id);
  (* a memo of the wrong geometry is rejected *)
  let small = Mkc_sketch.Sampler.Memo.create ~slots:8 in
  match Ck.Sketch_io.restore_memo small (Ck.Sketch_io.memo memo) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "geometry-mismatched memo accepted"

(* --- 10. registry counters: saves/loads/bytes are published --- *)

let test_checkpoint_obs_counters () =
  Mkc_obs.Registry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Mkc_obs.Registry.set_enabled false;
      Mkc_obs.Registry.reset Mkc_obs.Registry.global)
    (fun () ->
      Mkc_obs.Registry.reset Mkc_obs.Registry.global;
      let read name =
        match Mkc_obs.Registry.read Mkc_obs.Registry.global name with
        | Some (Mkc_obs.Registry.Counter n) -> n
        | _ -> 0
      in
      with_tmp (fun path ->
          (match Ck.save ~path demo_env with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "save: %s" (Ck.error_to_string e));
          (match Ck.load ~path () with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "load: %s" (Ck.error_to_string e));
          checki "one save" 1 (read "checkpoint.saves");
          checki "one load" 1 (read "checkpoint.loads");
          checki "bytes = golden size" (String.length golden) (read "checkpoint.bytes")))

let suite =
  [
    Alcotest.test_case "envelope: golden bytes" `Quick test_golden_bytes;
    Alcotest.test_case "envelope: field round trip" `Quick test_round_trip_fields;
    Alcotest.test_case "envelope: tamper rejection by name" `Quick test_tamper_rejection;
    Alcotest.test_case "envelope: atomic save / corrupt load" `Quick test_save_load_atomic;
    Alcotest.test_case "payload: sink decoder rejection" `Quick test_payload_rejected;
    Alcotest.test_case "observed: checkpoint bytes on the space books" `Quick
      test_observed_checkpoint_words;
    Alcotest.test_case "merge: final checkpoints of 2 shards" `Quick
      test_final_checkpoint_merges;
    Alcotest.test_case "coverage baseline: shard-merge and restore" `Quick
      test_mcgregor_vu_shard_merge;
    Alcotest.test_case "params: self-describing payload round trip" `Quick
      test_params_round_trip;
    Alcotest.test_case "sketch_io: l0 and memo payload round trips" `Quick
      test_sketch_io_round_trips;
    Alcotest.test_case "registry: checkpoint.saves/loads/bytes counters" `Quick
      test_checkpoint_obs_counters;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_crash_resume;
        prop_crash_resume_parallel;
        prop_shard_merge;
        prop_l0_merge_laws;
        prop_f2_merge_laws;
        prop_count_sketch_merge;
      ]
