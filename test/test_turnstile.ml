(* Turnstile linearity law-suite: every linear sketch must satisfy
   S(x ++ −x) = S(∅) and merge(S(x), S(−x)) = S(∅) — compared on the
   canonical dumps AND on the serialized checkpoint bytes, so a stray
   tombstone or layout leak cannot hide.  A test-local composite sink
   of all the linear sketches then locks the same law through every
   pipeline driving mode (seq, batched, pool-parallel, crash-resume):
   edges inserted and later deleted leave states bit-for-bit identical
   to never having inserted them. *)

module Sm = Mkc_hashing.Splitmix
module Cs = Mkc_sketch.Count_sketch
module Hh = Mkc_sketch.F2_heavy_hitter
module F2c = Mkc_sketch.F2_contributing
module Edge = Mkc_stream.Edge
module Sink = Mkc_stream.Sink
module Pipe = Mkc_stream.Pipeline
module Ck = Mkc_stream.Checkpoint
module Pk = Mkc_sketch.Packed

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- generators ---------- *)

(* A signed multiset: ids from a small universe so collisions and
   repeated touches (the deferred-accumulator hazards) actually occur;
   deltas ±1..3 so partial cancellation transits through zero. *)
let updates_gen =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (let* id = int_range 0 63 in
       let* mag = int_range 1 3 in
       let* neg = bool in
       return (id, if neg then -mag else mag)))

let updates_arb =
  QCheck.make
    ~print:(fun us ->
      String.concat ";" (List.map (fun (i, d) -> Printf.sprintf "(%d,%+d)" i d) us))
    updates_gen

let negate us = List.rev_map (fun (i, d) -> (i, -d)) us

(* ---------- per-sketch cancellation laws ---------- *)

(* One law closure per sketch (the state types differ, so each sketch
   gets its own monomorphic check): [cancel] feeds x then −x into one
   sketch, [merge] builds S(x) and S(−x) separately and merges, and
   [net] compares an interleaved churn stream against its survivors;
   all compare canonical dumps against a fresh sketch (or against the
   survivor run). *)
let per_sketch_laws ~seed ~law :
    ((int * int) list -> (int * int) list -> bool) list =
  let triple mk add merge dump xs ys =
    match law with
    | `Cancel ->
        let t = mk () in
        List.iter (fun (i, d) -> add t i d) xs;
        List.iter (fun (i, d) -> add t i d) (negate xs);
        dump t = dump (mk ())
    | `Merge ->
        let a = mk () and b = mk () in
        List.iter (fun (i, d) -> add a i d) xs;
        List.iter (fun (i, d) -> add b i d) (negate xs);
        merge ~dst:a b;
        dump a = dump (mk ())
    | `Net ->
        let a = mk () and b = mk () in
        List.iter (fun (i, d) -> add a i d) xs;
        List.iter (fun (i, d) -> add b i d) ys;
        dump a = dump b
  in
  [
    triple
      (fun () -> Cs.create ~width:32 ~seed:(Sm.create (seed + 1)) ())
      Cs.add Cs.merge_into Cs.dump;
    triple
      (fun () -> Hh.create ~phi:0.1 ~seed:(Sm.create (seed + 2)) ())
      Hh.add Hh.merge_into Hh.dump;
    triple
      (fun () -> F2c.create ~gamma:0.25 ~r:4 ~indep:4 ~seed:(Sm.create (seed + 3)) ())
      F2c.add F2c.merge_into F2c.dump;
  ]

let prop_feed_cancellation =
  QCheck.Test.make ~name:"S(x ++ -x) = S(empty) for every linear sketch" ~count:60
    updates_arb (fun us ->
      List.for_all (fun law -> law us []) (per_sketch_laws ~seed:7 ~law:`Cancel))

let prop_merge_cancellation =
  QCheck.Test.make ~name:"merge(S(x), S(-x)) = S(empty) for every linear sketch"
    ~count:60 updates_arb (fun us ->
      List.for_all (fun law -> law us []) (per_sketch_laws ~seed:11 ~law:`Merge))

let prop_interleaved_cancellation =
  (* Deletions interleaved mid-stream, not appended: partial sums
     transit through zero while other ids are still live. *)
  QCheck.Test.make ~name:"interleaved insert/delete nets out per sketch" ~count:60
    updates_arb (fun us ->
      let interleaved =
        List.concat_map (fun (i, d) -> [ (i, d); ((i * 31) mod 64, 1); (i, -d) ]) us
      in
      let survivors = List.map (fun (i, _) -> ((i * 31) mod 64, 1)) us in
      List.for_all
        (fun law -> law interleaved survivors)
        (per_sketch_laws ~seed:13 ~law:`Net))

(* ---------- the composite linear sink ---------- *)

module Lin = struct
  type t = {
    cs : Cs.t;
    hh : Hh.t;
    f2c : F2c.t;
  }

  let create seed =
    let s = Sm.create seed in
    {
      cs = Cs.create ~width:32 ~seed:(Sm.fork s 1) ();
      hh = Hh.create ~phi:0.1 ~seed:(Sm.fork s 2) ();
      f2c = F2c.create ~gamma:0.25 ~r:4 ~indep:4 ~seed:(Sm.fork s 3) ();
    }

  let key (e : Edge.t) = (e.set * 1_000_003) + e.elt

  let feed t (e : Edge.t) =
    let i = key e in
    Cs.add t.cs i e.sign;
    Hh.add t.hh i e.sign;
    F2c.add t.f2c i e.sign

  let dump t = (Cs.dump t.cs, Hh.dump t.hh, F2c.dump t.f2c)
  let words t = Cs.words t.cs + Hh.words t.hh + F2c.words t.f2c

  let sink : (t, unit) Sink.sink =
    (module struct
      type nonrec t = t
      type result = unit

      let feed = feed

      let feed_planned t _plan edges ~pos ~len =
        for i = pos to pos + len - 1 do
          feed t edges.(i)
        done

      let finalize (_ : t) = ()
      let words = words
      let words_breakdown t = [ ("lin", words t) ]
    end)

  (* Small checkpoint codec over the canonical dumps — what "compared
     on serialized bytes" means below: two states are equal iff their
     encoded payloads are byte-identical. *)
  let put_ints w a =
    Pk.put w (Array.length a);
    Array.iter (Pk.put w) a

  let get_ints r = Array.init (Pk.get_count r) (fun _ -> Pk.get r)

  let put_rows w rows =
    Pk.put w (Array.length rows);
    Array.iter (put_ints w) rows

  let get_rows r = Array.init (Pk.get_count r) (fun _ -> get_ints r)

  let put_hh w (rows, counts, prunes) =
    put_rows w rows;
    Pk.put_ids w fst (fun w (_, c) -> Pk.put w c) counts;
    Pk.put w prunes

  let restore_hh r hh =
    let rows = get_rows r in
    let counts = Pk.get_ids r ~bound:max_int (fun r id -> (id, Pk.get r)) in
    Pk.check r (Hh.load_state hh ~rows ~counts ~prunes:(Pk.get r))

  let encode t =
    let w = Pk.writer () in
    put_rows w (Cs.dump t.cs);
    put_hh w (Hh.dump t.hh);
    Pk.put_f2c w t.f2c;
    Pk.contents w

  let restore t s =
    Pk.decode s (fun r ->
        Pk.check r (Cs.load_state t.cs (get_rows r));
        restore_hh r t.hh;
        Pk.get_f2c r ~ids:max_int t.f2c)

  let codec seed : t Ck.codec = { kind = "lin-test"; seed; encode; restore }
  let bytes = encode
end

(* ---------- signed streams through every driving mode ---------- *)

(* Deterministic churned stream: inserts over a small grid (48 distinct
   keys — below every sketch's prune threshold, where cancellation is
   exact; past a prune the sketches are deliberately conservative, not
   bit-identical), where every third edge is retracted a few positions
   later. *)
let churned_and_clean seed =
  let rng = Sm.create seed in
  let ins = ref [] and pending = Queue.create () in
  for i = 0 to 799 do
    let set = Sm.below rng 6 and elt = Sm.below rng 8 in
    let e = Edge.make ~set ~elt in
    ins := e :: !ins;
    if i mod 3 = 0 then Queue.add e pending;
    if (not (Queue.is_empty pending)) && Sm.below rng 2 = 0 then begin
      let d : Edge.t = Queue.pop pending in
      ins := Edge.signed ~sign:(-1) ~set:d.set ~elt:d.elt :: !ins
    end
  done;
  Queue.iter
    (fun (d : Edge.t) -> ins := Edge.signed ~sign:(-1) ~set:d.set ~elt:d.elt :: !ins)
    pending;
  let churned = Array.of_list (List.rev !ins) in
  (churned, Mkc_workload.Churn.live churned)

let drive_seq edges =
  let t = Lin.create 99 in
  let () = Pipe.run_seq Lin.sink t edges in
  t

let test_insert_delete_equals_never_inserted_seq () =
  let churned, clean = churned_and_clean 31 in
  let a = drive_seq (Mkc_stream.Stream_source.of_array churned) in
  let b = drive_seq (Mkc_stream.Stream_source.of_array clean) in
  checkb "dumps equal" true (Lin.dump a = Lin.dump b);
  checkb "serialized bytes equal" true (String.equal (Lin.bytes a) (Lin.bytes b));
  checki "words equal" (Lin.words a) (Lin.words b)

let test_batched_matches_seq_on_signed_stream () =
  let churned, _ = churned_and_clean 32 in
  let src = Mkc_stream.Stream_source.of_array churned in
  let reference = Lin.bytes (drive_seq src) in
  List.iter
    (fun chunk ->
      let t = Lin.create 99 in
      let () = Pipe.run ~chunk Lin.sink t src in
      checkb
        (Printf.sprintf "chunk=%d matches seq bytes" chunk)
        true
        (String.equal (Lin.bytes t) reference))
    [ 1; 7; 64; 1024 ]

let test_parallel_matches_seq_on_signed_stream () =
  let churned, clean = churned_and_clean 33 in
  let src = Mkc_stream.Stream_source.of_array churned in
  let reference = Lin.bytes (drive_seq src) in
  let clean_ref = Lin.bytes (drive_seq (Mkc_stream.Stream_source.of_array clean)) in
  let t1 = Lin.create 99 and t2 = Lin.create 99 in
  Pipe.feed_all_parallel ~domains:2 ~chunk:128
    [| Sink.pack Lin.sink t1; Sink.pack Lin.sink t2 |]
    src;
  checkb "pool shard 1 matches seq" true (String.equal (Lin.bytes t1) reference);
  checkb "pool shard 2 matches seq" true (String.equal (Lin.bytes t2) reference);
  checkb "pool result nets out deletions" true (String.equal (Lin.bytes t1) clean_ref)

let test_crash_resume_matches_seq_on_signed_stream () =
  let churned, _ = churned_and_clean 34 in
  let src = Mkc_stream.Stream_source.of_array churned in
  let reference = Lin.bytes (drive_seq src) in
  let path = Filename.temp_file "lin_ckpt" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* Crash after a prefix: drive a truncated stream with
         checkpointing on, then resume the full stream from the saved
         state. *)
      let prefix = Array.sub churned 0 300 in
      let drive ?save ?resume t src =
        Pipe.drive ~chunk:64
          ~checkpoint:({ Pipe.codec = Lin.codec 99; every = 1; save; resume }, t)
          [| Sink.pack Lin.sink t |] src
      in
      let t1 = Lin.create 99 in
      (match drive ~save:path t1 (Mkc_stream.Stream_source.of_array prefix) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "checkpoint leg: %s" (Ck.error_to_string e));
      let t2 = Lin.create 99 in
      match drive ~resume:path t2 src with
      | Ok () -> checkb "resumed run matches seq bytes" true (String.equal (Lin.bytes t2) reference)
      | Error e -> Alcotest.failf "resume leg: %s" (Ck.error_to_string e))

let test_signed_all_positive_equals_unsigned () =
  (* Edge.signed ~sign:1 and Edge.make are the same edge — the signed
     entry point must not perturb any insertion-only pipeline state. *)
  let _, clean = churned_and_clean 35 in
  let as_signed = Array.map (fun (e : Edge.t) -> Edge.signed ~sign:1 ~set:e.set ~elt:e.elt) clean in
  let a = drive_seq (Mkc_stream.Stream_source.of_array clean) in
  let b = drive_seq (Mkc_stream.Stream_source.of_array as_signed) in
  checkb "identical bytes" true (String.equal (Lin.bytes a) (Lin.bytes b))

let test_v2_edge_file_drives_the_signed_sink () =
  (* The whole signed path end to end: churned edges → v2 binary file →
     load_auto_dims → sink drive, bit-identical to the in-memory drive. *)
  let churned, clean = churned_and_clean 41 in
  let sets = Array.fold_left (fun acc (e : Edge.t) -> max acc (e.set + 1)) 0 churned in
  let elts = Array.fold_left (fun acc (e : Edge.t) -> max acc (e.elt + 1)) 0 churned in
  let path = Filename.temp_file "mkc_turnstile" ".mkce" in
  Fun.protect
    ~finally:(fun () -> Stdlib.Sys.remove path)
    (fun () ->
      (match Mkc_stream.Edge_file.write path churned ~n:elts ~m:sets with
      | Ok (_ : int) -> ()
      | Error e ->
          Alcotest.failf "write failed: %s" (Mkc_stream.Edge_file.error_to_string e));
      let src, _, _ = Mkc_stream.Stream_source.load_auto_dims path in
      let from_file = drive_seq src in
      let in_memory = drive_seq (Mkc_stream.Stream_source.of_array churned) in
      checkb "file drive = in-memory drive" true
        (String.equal (Lin.bytes from_file) (Lin.bytes in_memory));
      let never = drive_seq (Mkc_stream.Stream_source.of_array clean) in
      checkb "file drive nets out deletions" true
        (String.equal (Lin.bytes from_file) (Lin.bytes never)))

(* SmallSet's store under deletions, against the stream with the
   retracted inserts left out.  Sets 0-5 take 3,000 base inserts with
   many duplicates, enough to kill the finest guess mid-stream; on top:
   a re-insert of a pair seen before, deleted a few edges later while
   older copies stay (the latest copy must go, not an older one);
   deletes of pairs never inserted (set 0's elements stop at 55, set 7
   is empty at first); set 6 filled and emptied by deletions; and set 7
   churned insert-delete 1,500 times, so deleted slots pass half the
   store and are reclaimed. *)
let test_small_set_store_deletions () =
  let module Ss = Mkc_core.Small_set in
  let p = Mkc_core.Params.make ~m:8 ~n:64 ~k:1 ~alpha:2.0 ~seed:5 () in
  let rng = Sm.create 17 in
  let base = Array.init 3000 (fun _ -> (Sm.below rng 6, Sm.below rng 56)) in
  let ins (set, elt) = Edge.make ~set ~elt and del (set, elt) = Edge.signed ~sign:(-1) ~set ~elt in
  let extra = Array.make 3000 [] in
  let at i e = extra.(i) <- extra.(i) @ [ e ] in
  let gap = 5 in
  for i = 1 to 2990 do
    if i mod 97 = 0 then begin
      let pair = base.(Sm.below rng i) in
      let clear = ref true in
      for j = i to i + gap do
        if base.(j) = pair then clear := false
      done;
      if !clear then begin
        at i (ins pair);
        at (i + gap) (del pair)
      end
    end
  done;
  at 10 (del (7, 3));
  at 20 (del (0, 60));
  List.iteri (fun j pair -> at (400 + (700 * j)) (ins pair)) [ (6, 1); (6, 2); (6, 1) ];
  List.iteri (fun j pair -> at (2300 + (300 * j)) (del pair)) [ (6, 1); (6, 1); (6, 2) ];
  for j = 0 to 1499 do
    let pair = (7, Sm.below rng 64) in
    at (1000 + j) (ins pair);
    at (1000 + j) (del pair)
  done;
  let churned =
    Array.concat (Array.to_list (Array.mapi (fun i pair -> Array.of_list (extra.(i) @ [ ins pair ])) base))
  in
  let run edges =
    let ss = Ss.create p ~seed:(Sm.create 6) in
    Array.iter (Ss.feed ss) edges;
    let w = Pk.writer () in
    Ss.freeze w ss;
    (ss, Pk.contents w)
  in
  let a, bytes_a = run churned and b, bytes_b = run (Array.map ins base) in
  (* two repeats; the cap killed a guess in each *)
  checki "guesses killed by the cap" 2 (List.assoc "dead_instances" (Ss.stats b));
  checkb "the coarser guess holds pairs" true (Ss.stored_pairs b > 0);
  checkb "freeze bytes equal the insert-free stream's" true (String.equal bytes_a bytes_b);
  checki "words equal" (Ss.words b) (Ss.words a)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_feed_cancellation; prop_merge_cancellation; prop_interleaved_cancellation ]
  @ [
      Alcotest.test_case "insert-then-delete = never-inserted (seq, bytes+words)" `Quick
        test_insert_delete_equals_never_inserted_seq;
      Alcotest.test_case "batched signed drive matches seq bit-for-bit" `Quick
        test_batched_matches_seq_on_signed_stream;
      Alcotest.test_case "pool-parallel signed drive matches seq bit-for-bit" `Quick
        test_parallel_matches_seq_on_signed_stream;
      Alcotest.test_case "crash-resume signed drive matches seq bit-for-bit" `Quick
        test_crash_resume_matches_seq_on_signed_stream;
      Alcotest.test_case "all-positive signed feed = unsigned feed" `Quick
        test_signed_all_positive_equals_unsigned;
      Alcotest.test_case "v2 edge file drives the signed sink" `Quick
        test_v2_edge_file_drives_the_signed_sink;
      Alcotest.test_case "small_set store: deletions = never inserted" `Quick
        test_small_set_store_deletions;
    ]
