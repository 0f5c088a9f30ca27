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

   Plus the envelope itself: a byte-stable mkc-ckpt/4 golden, named
   rejection of every tampering mode (foreign magic, unknown version,
   truncated bytes, forged seed, flipped payload, wrong kind), and a
   seeded mutation fuzz over the envelope and the estimator's payload
   decoder. *)

module Edge = Mkc_stream.Edge
module Src = Mkc_stream.Stream_source
module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module Ck = Mkc_stream.Checkpoint
module Pk = Mkc_sketch.Packed
module P = Mkc_core.Params
module E = Mkc_core.Estimate
module L0 = Mkc_sketch.L0_bjkst
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
  let path = Filename.temp_file "mkc_ckpt" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The checkpointed drive over the whole estimator as one sink. *)
let resumable ?chunk ?(every = Pipe.default_checkpoint_every) ?resume ?checkpoint p est src =
  Result.map
    (fun () -> E.finalize est)
    (Pipe.drive ?chunk
       ~checkpoint:({ Pipe.codec = E.codec p; every; save = checkpoint; resume }, est)
       [| Sink.pack E.sink est |] src)

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
   with [feed_all_parallel ~start].  The coordinator windows at [chunk]
   at any domain count, so the cut sits on the chunk grid. *)
let prop_crash_resume_parallel =
  QCheck.Test.make ~name:"parallel resume (feed_all_parallel ~start) ≡ uninterrupted"
    ~count:15 edges_arb (fun (pairs, chunk) ->
      let domains = 2 in
      let edges = to_edges pairs in
      let n = Array.length edges in
      let p = params () in
      let drive_from est start =
        Pipe.feed_all_parallel ~domains ~chunk ~start (E.shards est) (Src.of_array edges);
        E.finalize est
      in
      let full = E.create p in
      let r_full = drive_from full 0 in
      let nchunks = (n + chunk - 1) / chunk in
      let cut = min n (chunk * (1 + ((n * 104729) mod nchunks))) in
      (* drive the prefix in parallel, snapshot through the codec's
         string form (exercising the envelope), restore, finish *)
      let interrupted = E.create p in
      Pipe.feed_all_parallel ~domains ~chunk (E.shards interrupted)
        (Src.of_array (Array.sub edges 0 cut));
      let codec = E.codec p in
      let env =
        { Ck.kind = codec.Ck.kind; pos = cut; seed = codec.Ck.seed;
          payload = codec.Ck.encode interrupted }
      in
      let resumed = E.create p in
      match Ck.of_string ~expect_kind:"estimate" ~expect_seed:p.P.base_seed
              (Ck.to_string env)
      with
      | Error e -> Alcotest.failf "envelope round trip: %s" (Ck.error_to_string e)
      | Ok env -> (
          match codec.Ck.restore resumed env.Ck.payload with
          | Error msg -> Alcotest.failf "restore: %s" msg
          | Ok () ->
              let r_res = drive_from resumed env.Ck.pos in
              fingerprint r_full = fingerprint r_res
              && E.words full = E.words resumed
              && E.words_breakdown full = E.words_breakdown resumed
              && E.stats full = E.stats resumed))

(* --- 2. merge laws --- *)

(* Edge-partition the stream into [shards] contiguous parts, drive a
   fresh estimator over each, and fold the final states stream-ordered
   into the first. *)
let merged_shards ~chunk ~shards p src =
  let states =
    Array.map
      (fun part ->
        let s = E.create p in
        Pipe.feed_all_parallel ~domains:1 ~chunk [| Sink.pack E.sink s |] part;
        s)
      (Src.partition ~shards src)
  in
  Array.iteri (fun i s -> if i > 0 then E.merge_into ~dst:states.(0) s) states;
  states.(0)

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
      let merged = merged_shards ~chunk ~shards p (Src.of_array edges) in
      let r_merged = E.finalize merged in
      fingerprint r_single = fingerprint r_merged
      && E.words single = E.words merged
      && E.words_breakdown single = E.words_breakdown merged
      && invariant_stats single = invariant_stats merged)

(* Sketch-level merge laws, on canonical dump states.  [l0_of] builds
   a sketch from an element list under a fixed seed; merge order
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

(* --- 3. envelope: golden bytes, round trip, tamper rejection --- *)

let packed ints =
  let w = Pk.writer () in
  List.iter (Pk.put w) ints;
  Pk.contents w

let demo_env = { Ck.kind = "demo"; pos = 3; seed = 42; payload = packed [ 1; 2; 3 ] }

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* magic | kind length 4 | "demo" | pos 3 | seed 42 | payload length 3 |
   the varints 1, 2, 3 | FNV-1a 64 trailer *)
let golden =
  of_hex
    ("4d4b43434b505434" ^ "0400000000000000" ^ "64656d6f" ^ "0300000000000000"
   ^ "2a00000000000000" ^ "0300000000000000" ^ "020406" ^ "670d6ce097caada2")

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
      checks "payload preserved" demo_env.Ck.payload env.Ck.payload

(* [golden] with [by] written over its bytes from [at]. *)
let overwrite ~at by =
  String.sub golden 0 at ^ by
  ^ String.sub golden (at + String.length by) (String.length golden - at - String.length by)

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
  reject "a foreign magic" "bad_magic" (overwrite ~at:0 "NOTCKPT2");
  reject "an unknown version" "bad_version" (overwrite ~at:0 "MKCCKPT9");
  (match Ck.of_string "{\"schema\":\"mkc-ckpt/1\",\"kind\":\"demo\"}" with
  | Error (Ck.Bad_version "mkc-ckpt/1") -> ()
  | Error e -> Alcotest.failf "v1 JSON: wrong error %s" (Ck.error_to_string e)
  | Ok _ -> Alcotest.fail "v1 JSON accepted");
  reject "truncated bytes" "truncated" (String.sub golden 0 (String.length golden - 7));
  reject "a cut magic" "truncated" (String.sub golden 0 5);
  reject "a cut header" "truncated" (String.sub golden 0 12);
  reject "trailing bytes" "malformed" (golden ^ "\000");
  reject "a negative kind length" "malformed" (overwrite ~at:8 (of_hex "ffffffffffffffff"));
  reject "a lying payload length" "truncated" (overwrite ~at:36 (of_hex "ff"));
  reject "a flipped payload" "checksum" (overwrite ~at:44 "\002\004\008");
  reject "a forged position" "checksum" (overwrite ~at:20 "\004");
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
      write_file path (overwrite ~at:44 "\018");
      match Ck.load ~path () with
      | Error (Ck.Checksum_mismatch _) -> ()
      | Error e -> Alcotest.failf "corrupt load: wrong error %s" (Ck.error_to_string e)
      | Ok _ -> Alcotest.fail "corrupt file accepted");
  match Ck.load ~path:"/nonexistent/mkc.ckpt" () with
  | Error (Ck.Io_error _) -> ()
  | Error e -> Alcotest.failf "missing file: wrong error %s" (Ck.error_to_string e)
  | Ok _ -> Alcotest.fail "missing file accepted"

(* Payloads the estimator's own decoder must reject, wrapped in a
   perfectly valid envelope: the envelope validates, restore does not. *)
let test_payload_rejected () =
  let p = params () in
  let codec = E.codec p in
  let est = E.create p in
  (* a different instance under the same seed: params differ *)
  let q = P.make ~m:32 ~n:64 ~k:4 ~alpha:4.0 ~seed:13 () in
  let foreign = (E.codec q).Ck.encode (E.create q) in
  let good = codec.Ck.encode est in
  List.iter
    (fun (what, bad) ->
      match codec.Ck.restore est bad with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s accepted" what)
    [
      ("a foreign instance's payload", foreign);
      ("a cut payload", String.sub good 0 (String.length good - 1));
      ("a payload with bytes left over", good ^ "\000");
    ];
  (* forged params behind a sealed envelope: an instance far too large
     to build is refused by name before [create] allocates anything
     sized from them *)
  checki "forged params payload is 17 bytes" 17 (String.length Mutation.forged_params_payload);
  let words =
    Mutation.allocated (fun () ->
        match Ck.of_string ~expect_kind:"estimate" Mutation.forged_params_checkpoint with
        | Error e -> Alcotest.failf "forged envelope rejected: %s" (Ck.error_to_string e)
        | Ok env -> (
            match E.decode env.Ck.payload with
            | Error msg ->
                checkb ("forged params named: " ^ msg) true
                  (has_suffix ~suffix:"over the decode ceiling of 268435456" msg)
            | Ok _ -> Alcotest.fail "forged params decoded"))
  in
  checkb (Printf.sprintf "forged params allocate %d words" words) true (words < 10_000);
  (* and through the driver it surfaces as Payload_rejected *)
  with_tmp (fun path ->
      let env = { Ck.kind = "estimate"; pos = 0; seed = p.P.base_seed; payload = foreign } in
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

(* SmallSet's packed layout, per repeat: the lowest live guess, then
   one store in set-id order whose members carry their keep-level in the
   low 6 bits.  Each row breaks one range the thaw checks. *)
let test_small_set_thaw_rejection () =
  let module Sms = Mkc_core.Small_set in
  let p = params () in
  let fresh () = Sms.create p ~seed:(Sm.create 5) in
  let guesses = 1 + Mkc_hashing.Hash_family.ceil_log2 4 (* G + 1 for alpha 4 *) in
  let member elt lvl = (elt lsl 6) lor lvl in
  (* every repeat gets [live] and the one set 3 with [members] *)
  let state ~live members =
    let w = Pk.writer () in
    for _ = 1 to p.P.oracle_repeats do
      Pk.put w live;
      Pk.put_ids w fst
        (fun w (_, ms) ->
          Pk.put w (List.length ms);
          List.iter (Pk.put w) ms)
        (if members = [] then [] else [ (3, members) ])
    done;
    Pk.contents w
  in
  let thaw bytes = Pk.decode bytes (fun r -> Sms.thaw r (fresh ())) in
  checkb "a consistent state thaws" true
    (Result.is_ok (thaw (state ~live:1 [ member 5 0; member 9 (guesses - 2) ])));
  checkb "every guess dead, nothing stored: thaws" true
    (Result.is_ok (thaw (state ~live:guesses [])));
  let cap = Sms.cap (fresh ()) in
  List.iter
    (fun (what, bytes) ->
      checkb (what ^ " rejected") true (Result.is_error (thaw bytes)))
    [
      ("live past G + 1", state ~live:(guesses + 1) []);
      ("a negative live", state ~live:(-1) []);
      ("a level above G - live", state ~live:1 [ member 5 (guesses - 1) ]);
      ("a member with every guess dead", state ~live:guesses [ member 5 0 ]);
      ("a member outside the universe", state ~live:0 [ member p.P.u 0 ]);
      ("a count over the cap", state ~live:0 (List.init (cap + 1) (fun i -> member (i mod 64) 0)));
    ]

(* A payload is one run of zigzag varints (params included): its ints. *)
let unpacked s =
  let rec go i z shift acc =
    if i = String.length s then List.rev acc
    else
      let b = Char.code s.[i] in
      let z = z lor ((b land 0x7f) lsl shift) in
      if b land 0x80 <> 0 then go (i + 1) z (shift + 7) acc
      else go (i + 1) 0 0 (((z lsr 1) lxor -(z land 1)) :: acc)
  in
  go 0 0 0 []

(* The full-rate levels of an F2-Contributing counter (levels 0 and 1)
   hold one tracker, so their dumped tracked parts are always equal.  A
   v4 payload edited so that level 1's counts differ from level 0's
   describes a state no stream reaches, and is refused by name. *)
let test_shared_tracker_payload () =
  let p = P.make ~m:16 ~n:64 ~k:2 ~alpha:2.0 ~seed:5 () in
  let payload =
    match Ck.of_string (read_file "golden_estimate_ckpt_v4.ckpt") with
    | Ok ck -> ck.Ck.payload
    | Error e -> Alcotest.failf "v4 golden: %s" (Ck.error_to_string e)
  in
  let restore bytes = (E.codec p).Ck.restore (E.create p) bytes in
  checkb "the golden restores" true (Result.is_ok (restore payload));
  let xs = Array.of_list (unpacked payload) in
  let len = Array.length xs in
  (* A level is depth (5), width, the depth·width counters, then the
     tracked part: a count n, n (id gap, count) pairs and the prune
     count.  The full-rate pair is two consecutive levels with equal,
     non-empty tracked parts; [Some t1] is where the second's starts. *)
  let tracked_at i =
    if i + 1 < len && xs.(i) = 5 && xs.(i + 1) >= 4 && i + 2 + (5 * xs.(i + 1)) < len then
      let t = i + 2 + (5 * xs.(i + 1)) in
      let stop = t + 2 + (2 * xs.(t)) in
      if xs.(t) >= 1 && stop <= len then Some (t, stop) else None
    else None
  in
  let rec find i =
    if i >= len then Alcotest.fail "no full-rate level pair in the v4 golden"
    else
      match tracked_at i with
      | Some (t0, stop0) -> (
          match tracked_at stop0 with
          | Some (t1, stop1)
            when stop1 - t1 = stop0 - t0 && Array.sub xs t1 (stop1 - t1) = Array.sub xs t0 (stop0 - t0) ->
              t1
          | _ -> find (i + 1))
      | None -> find (i + 1)
  in
  let t1 = find 0 in
  (* level 1's first tracked count (after n and the first id gap) *)
  let c = xs.(t1 + 2) in
  xs.(t1 + 2) <- (if c + 1 = 0 then c + 2 else c + 1);
  match restore (packed (Array.to_list xs)) with
  | Ok () -> Alcotest.fail "a level 1 tracker unlike level 0's restored"
  | Error e ->
      checkb ("refused by name: " ^ e) true
        (has_suffix ~suffix:"f2c level 1: tracked state differs from level 0's, which it shares" e)

(* --- 4. space accounting: checkpoint bytes are on the books --- *)

let test_observed_checkpoint_words () =
  let p = params () in
  let est = E.create p in
  let edges = Array.init 240 (fun i -> Edge.make ~set:(i * 11 mod 32) ~elt:(i * 17 mod 64)) in
  let module Run = Mkc_core.Run in
  let held (s : Run.sample) = Option.value ~default:0 (List.assoc_opt "checkpoint" s.breakdown) in
  let probes =
    {
      Run.read_totals = (fun () -> []);
      tracks =
        (fun ~breakdown:_ ->
          [|
            ("space.words", fun (s : Run.sample) -> s.words);
            ("checkpoint", held);
            ( "keyed",
              fun (s : Run.sample) -> Bool.to_int (List.mem_assoc "checkpoint" s.breakdown) );
          |]);
    }
  in
  let budget = Mkc_sketch.Space.Budget.create max_int in
  with_tmp (fun path ->
      let log = Filename.temp_file "mkc_ckpt" ".mkctel" in
      Fun.protect
        ~finally:(fun () -> Sys.remove log)
        (fun () ->
          (match
             Run.run
               { Run.default with chunk = 64; cadence = 1 }
               ~budget
               ~telemetry:{ Run.log = Some log; rules = []; probes }
               ~ckpt:{ Run.codec = E.codec p; every = 1; save = Some path; resume = None }
               ~label:"estimate" E.sink est (Src.of_array edges)
           with
          | Ok o -> checki "run words are the sink's" (E.words est) o.words
          | Error e -> Alcotest.failf "run: %s" (Run.error_to_string e));
          let rows =
            match Mkc_obs.Telemetry.read log with
            | Ok t -> List.map (fun (s : Mkc_obs.Telemetry.sample) -> s.values) t.samples
            | Error e -> Alcotest.failf "log: %s" (Mkc_obs.Telemetry.error_to_string e)
          in
          let final = Ck.words_of_bytes (Unix.stat path).st_size in
          (* windows end at 64, 128, 192, 240; each save follows its
             window's sample, the end-of-stream save precedes the final one *)
          checki "a sample per window plus the final one" 5 (List.length rows);
          let first = List.hd rows and last = List.nth rows 4 in
          checki "no checkpoint key before the first save" 0 first.(2);
          checki "breakdown grows a checkpoint key" 1 last.(2);
          checki "checkpoint key holds the last size, not a sum" final last.(1);
          checki "checkpoint words join the total" (E.words est + final) last.(0);
          checkb "every sample after the first save holds one" true
            (List.length (List.filter (fun r -> r.(1) > 0) rows) = 4);
          checkb "the budget sees the checkpoint" true
            (Mkc_sketch.Space.Budget.peak budget >= E.words est + final)));
  checkb "negative sizes are rejected" true
    (match Ck.words_of_bytes (-1) with exception Invalid_argument _ -> true | _ -> false)

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
    match E.decode e0.Ck.payload with
    | Error msg -> Alcotest.failf "decode: %s" msg
    | Ok dst -> (
        match E.decode e1.Ck.payload with
        | Error msg -> Alcotest.failf "decode: %s" msg
        | Ok src ->
            E.merge_into ~dst src;
            dst)
  in
  let r_merged = E.finalize merged in
  checkb "merged final checkpoints ≡ single-stream run" true
    (fingerprint r_single = fingerprint r_merged);
  checki "merged words = single-stream words" (E.words single) (E.words merged)

(* --- 6. count_sketch: linearity --- *)

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

(* --- 7. params: self-describing payloads --- *)

let params_bytes (p : P.t) =
  let w = Pk.writer () in
  P.put w p;
  Pk.contents w

let test_params_round_trip () =
  let p = params () in
  (match Pk.decode (params_bytes p) P.get with
  | Error e -> Alcotest.failf "params round trip: %s" e
  | Ok q ->
      checkb "same instance after round trip" true (P.same_instance p q);
      checkb "derived constants re-derived" true (q = p));
  (* alpha travels as its IEEE bits, so an awkward value is exact *)
  let odd = P.make ~m:32 ~n:64 ~k:3 ~alpha:(4.0 +. epsilon_float *. 8.0) ~seed:13 () in
  checkb "alpha round-trips bit for bit" true
    (Pk.decode (params_bytes odd) P.get = Ok odd);
  (* a different seed is a different instance *)
  let q = P.make ~m:32 ~n:64 ~k:3 ~alpha:4.0 ~seed:14 () in
  checkb "seed difference detected" false (P.same_instance p q);
  (* malformed and invalid params are rejected, not crashed on *)
  let bytes = params_bytes p in
  checkb "truncated params rejected" true
    (Result.is_error (Pk.decode (String.sub bytes 0 (String.length bytes - 1)) P.get));
  checkb "k > m rejected by make's validation" true
    (Result.is_error (Pk.decode (params_bytes { p with k = 33 }) P.get));
  checkb "a zero universe rejected" true
    (Result.is_error (Pk.decode (params_bytes { p with u = 0 }) P.get))

(* --- 8. sketch state round trips through Packed --- *)

let test_packed_round_trips () =
  (* L0: feed, pack, overlay onto a twin, compare dumps *)
  let sk = l0_of 31 (List.init 300 (fun i -> i * i)) in
  let twin = L0.create ~seed:(Sm.create 31) () in
  let w = Pk.writer () in
  Pk.put_l0 w sk;
  let bytes = Pk.contents w in
  (match Pk.decode bytes (fun r -> Pk.get_l0 r twin) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "l0 restore: %s" e);
  checkb "l0 round trip is exact" true (L0.dump sk = L0.dump twin);
  checkb "l0 estimates agree" true (L0.estimate sk = L0.estimate twin);
  (* tampered states are rejected by the decoder *)
  checkb "truncated l0 state rejected" true
    (Result.is_error (Pk.decode (String.sub bytes 0 3) (fun r -> Pk.get_l0 r twin)));
  (* Memo: the cached keys survive; values are recomputed *)
  let value key = key mod 5 in
  let memo = Mkc_sketch.Sampler.Memo.create ~slots:16 in
  List.iter
    (fun i -> Mkc_sketch.Sampler.Memo.store memo (i * 3) (value (i * 3)))
    (List.init 40 Fun.id);
  let w = Pk.writer () in
  Pk.put_memo w memo;
  let bytes = Pk.contents w in
  let memo2 = Mkc_sketch.Sampler.Memo.create ~slots:16 in
  (match Pk.decode bytes (fun r -> Pk.get_memo r ~value memo2) with
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
  checkb "geometry-mismatched memo rejected" true
    (Result.is_error (Pk.decode bytes (fun r -> Pk.get_memo r ~value small)))

(* --- 9. registry counters: saves/loads/bytes are published --- *)

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

(* --- 10. hostile input: seeded mutation fuzz --- *)

type fuzz_input = {
  fp : P.t;
  payload : string;
  prefix : int;  (** bytes of the params at the head of [payload] *)
  small_set : bool;
  target : E.t;
  valid_words : int;  (** allocated by restoring [payload] intact *)
}

(* Valid checkpoints of two small live instances, and the mkc-ckpt/4
   golden.  [params ()] keeps SmallSet, as every profile does
   (sα = w/2 < 2k); no profile reaches the heavy regime (sα ≥ 2k) today,
   so the second instance lifts s by hand to put the oracle layout
   without SmallSet under the fuzz too. *)
let fuzz_instances =
  lazy
    (let heavy =
       let p = P.make ~m:24 ~n:48 ~k:2 ~alpha:3.0 ~seed:21 () in
       { p with P.s = 4.0 *. float_of_int p.P.k /. p.P.alpha }
     in
     let fuzz_input (p : P.t) payload =
       let small_set = not (List.mem_assoc "oracle.small_set" (E.words_breakdown (E.create p))) in
       (* one restore target per instance, overwritten case after case *)
       let target = E.create p in
       let valid_words = Mutation.allocated (fun () -> (E.codec p).Ck.restore target payload) in
       let prefix = String.length (params_bytes p) in
       { fp = p; payload; prefix; small_set; target; valid_words }
     in
     let fed (p : P.t) =
       let est = E.create p in
       Array.iter (E.feed est)
         (Array.init 400 (fun i -> Edge.make ~set:(i * 7 mod p.m) ~elt:(i * 13 mod p.n)));
       fuzz_input p ((E.codec p).Ck.encode est)
     in
     (* the mkc-ckpt/4 golden of test_golden_compat *)
     let golden =
       match Ck.of_string (read_file "golden_estimate_ckpt_v4.ckpt") with
       | Ok ck -> fuzz_input (P.make ~m:16 ~n:64 ~k:2 ~alpha:2.0 ~seed:5 ()) ck.Ck.payload
       | Error e -> Alcotest.failf "v4 golden: %s" (Ck.error_to_string e)
     in
     [| fed (params ()); fed heavy; golden |])

(* A varint rewrite: the varint holding byte [at] becomes [v]. *)
let rewrite_varint s ~at v =
  let cont i = Char.code s.[i] land 0x80 <> 0 in
  let start = ref at in
  while !start > 0 && cont (!start - 1) do
    decr start
  done;
  let stop = ref at in
  while !stop < String.length s - 1 && cont !stop do
    incr stop
  done;
  String.sub s 0 !start ^ packed [ v ]
  ^ String.sub s (!stop + 1) (String.length s - !stop - 1)

(* The shared {!Mutation}s; a lying field is a payload varint, or one
   of the envelope's int64 header fields. *)
let mutate ~envelope s m =
  Mutation.apply m s ~lie:(fun s ~spot v ->
      if envelope then
        (* kind length, then (for the kind "estimate") pos, seed, payload length *)
        Mutation.set_int64 s ~at:[| 8; 24; 32; 40 |].(spot mod 4) v
      else rewrite_varint s ~at:(spot mod String.length s) v)

let prop_fuzz_decoders =
  let arb =
    QCheck.make
      ~print:(fun (inst, m) -> Printf.sprintf "instance %d, %s" inst (Mutation.to_string m))
      QCheck.Gen.(pair (int_bound 2) Mutation.gen)
  in
  QCheck.Test.make ~name:"fuzz: mutated checkpoints end in Ok or a named error" ~count:1000
    arb (fun (inst, m) ->
      let { fp = p; payload; prefix; target; valid_words; _ } =
        (Lazy.force fuzz_instances).(inst)
      in
      let env payload = { Ck.kind = "estimate"; pos = 400; seed = p.P.base_seed; payload } in
      (* Every count is checked against the bytes left before anything
         is allocated from it, so a lying field cannot allocate more
         than the input's size allows. *)
      let restore payload =
        let words = Mutation.allocated (fun () -> (E.codec p).Ck.restore target payload) in
        if words > (4 * valid_words) + (64 * String.length payload) then
          QCheck.Test.fail_reportf "restore allocated %d words from %d bytes" words
            (String.length payload)
      in
      match
        (* the payload decoder, behind a valid envelope *)
        let bad = Ck.to_string (env (mutate ~envelope:false payload m)) in
        (match Ck.of_string ~expect_kind:"estimate" bad with
        | Ok e -> restore e.Ck.payload
        | Error e ->
            QCheck.Test.fail_reportf "valid envelope rejected: %s" (Ck.error_to_string e));
        (* the envelope itself *)
        (match Ck.of_string (mutate ~envelope:true (Ck.to_string (env payload)) m) with
        | Ok e -> restore e.Ck.payload
        | Error (_ : Ck.error) -> ());
        (* the self-describing decoder, params intact (it builds the
           instance they describe) *)
        let tail = String.sub payload prefix (String.length payload - prefix) in
        ignore
          (E.decode (String.sub payload 0 prefix ^ mutate ~envelope:false tail m)
            : (E.t, string) result)
      with
      | () -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let test_fuzz_regimes () =
  let inst = Lazy.force fuzz_instances in
  checkb "first fuzz instance has SmallSet" true inst.(0).small_set;
  checkb "second fuzz instance has none" false inst.(1).small_set;
  checkb "the v4 golden has SmallSet" true inst.(2).small_set;
  Array.iter
    (fun i ->
      checkb "fuzz inputs restore cleanly" true
        (Result.is_ok ((E.codec i.fp).Ck.restore (E.create i.fp) i.payload)))
    inst

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
    Alcotest.test_case "params: self-describing payload round trip" `Quick
      test_params_round_trip;
    Alcotest.test_case "packed: l0 and memo state round trips" `Quick
      test_packed_round_trips;
    Alcotest.test_case "payload: full-rate levels share one tracker" `Quick
      test_shared_tracker_payload;
    Alcotest.test_case "registry: checkpoint.saves/loads/bytes counters" `Quick
      test_checkpoint_obs_counters;
    Alcotest.test_case "fuzz: inputs cover both oracle regimes" `Quick test_fuzz_regimes;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 18 |]) prop_fuzz_decoders;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_crash_resume;
        prop_crash_resume_parallel;
        prop_shard_merge;
        prop_l0_merge_laws;
        prop_count_sketch_merge;
      ]
  @ [
      Alcotest.test_case "payload: small_set thaw rejects out-of-range state" `Quick
        test_small_set_thaw_rejection;
    ]
