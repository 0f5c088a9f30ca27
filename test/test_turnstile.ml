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
module L0t = Mkc_sketch.L0_bjkst.Turnstile
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
    triple
      (fun () -> L0t.create ~seed:(Sm.create (seed + 4)) ())
      (fun t i d -> L0t.add t ~delta:d i)
      L0t.merge_into L0t.dump;
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

(* ---------- L0 turnstile specifics ---------- *)

let test_l0t_counts_not_membership () =
  let t = L0t.create ~seed:(Sm.create 21) () in
  L0t.add t 5;
  L0t.add t 5;
  L0t.add t ~delta:(-1) 5;
  checki "double insert, one delete: still live" 1 (L0t.occupancy t);
  L0t.add t ~delta:(-1) 5;
  checki "second delete removes" 0 (L0t.occupancy t);
  checkb "estimate zero when empty" true (L0t.estimate t = 0.0)

let test_l0t_load_state_rejects_zero_count () =
  let t = L0t.create ~seed:(Sm.create 22) () in
  match L0t.load_state t ~z:0 ~prunes:0 ~entries:[ (42L, 0, 0) ] with
  | Ok () -> Alcotest.fail "zero-count entry must be rejected"
  | Error msg -> checkb "names the zero count" true (String.length msg > 0)

let test_l0t_signed_feed_matches_set_variant_on_insertions () =
  (* All-positive streams below the prune threshold: the counting
     variant's live fingerprints are exactly the set variant's (same
     seed, same hash path).  Above it the two may prune at different
     times — the turnstile variant's estimate is then conservative by
     design, not bit-identical. *)
  (* Tabulation.create consumes the Splitmix state, so each sketch
     needs its own freshly-seeded generator to share the hash tables. *)
  let set = Mkc_sketch.L0_bjkst.create ~seed:(Sm.create 23) () in
  let cnt = L0t.create ~seed:(Sm.create 23) () in
  for x = 0 to 79 do
    Mkc_sketch.L0_bjkst.add set (x * 7919);
    L0t.add cnt (x * 7919)
  done;
  let z_s, _, entries_s = Mkc_sketch.L0_bjkst.dump set in
  let z_c, _, entries_c = L0t.dump cnt in
  checki "same level" z_s z_c;
  checkb "same live fingerprints" true
    (List.map (fun (fp, lvl) -> (fp, lvl)) entries_s
    = List.map (fun (fp, lvl, _) -> (fp, lvl)) entries_c)

(* ---------- the composite linear sink ---------- *)

module Lin = struct
  type t = {
    cs : Cs.t;
    hh : Hh.t;
    f2c : F2c.t;
    l0 : L0t.t;
  }

  let create seed =
    let s = Sm.create seed in
    {
      cs = Cs.create ~width:32 ~seed:(Sm.fork s 1) ();
      hh = Hh.create ~phi:0.1 ~seed:(Sm.fork s 2) ();
      f2c = F2c.create ~gamma:0.25 ~r:4 ~indep:4 ~seed:(Sm.fork s 3) ();
      l0 = L0t.create ~seed:(Sm.fork s 4) ();
    }

  let key (e : Edge.t) = (e.set * 1_000_003) + e.elt

  let feed t (e : Edge.t) =
    let i = key e in
    Cs.add t.cs i e.sign;
    Hh.add t.hh i e.sign;
    F2c.add t.f2c i e.sign;
    L0t.add t.l0 ~delta:e.sign i

  let dump t = (Cs.dump t.cs, Hh.dump t.hh, F2c.dump t.f2c, L0t.dump t.l0)

  let words t =
    Cs.words t.cs + Hh.words t.hh + F2c.words t.f2c + L0t.words t.l0

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

  let put_l0 w (z, prunes, entries) =
    Pk.put w z;
    Pk.put w prunes;
    Pk.put w (List.length entries);
    List.iter
      (fun (fp, lvl, c) ->
        Pk.put_int64 w fp;
        Pk.put w lvl;
        Pk.put w c)
      entries

  let restore_l0 r l0 =
    let z = Pk.get r in
    let prunes = Pk.get r in
    let entries =
      List.init (Pk.get_count r) (fun _ ->
          let fp = Pk.get_int64 r in
          let lvl = Pk.get r in
          (fp, lvl, Pk.get r))
    in
    Pk.check r (L0t.load_state l0 ~z ~prunes ~entries)

  let encode t =
    let w = Pk.writer () in
    put_rows w (Cs.dump t.cs);
    put_hh w (Hh.dump t.hh);
    Pk.put_f2c w t.f2c;
    put_l0 w (L0t.dump t.l0);
    Pk.contents w

  let restore t s =
    Pk.decode s (fun r ->
        Pk.check r (Cs.load_state t.cs (get_rows r));
        restore_hh r t.hh;
        Pk.get_f2c r ~ids:max_int t.f2c;
        restore_l0 r t.l0)

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
     load_auto → sink drive, bit-identical to the in-memory drive. *)
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
      let src = Mkc_stream.Stream_source.load_auto path in
      let from_file = drive_seq src in
      let in_memory = drive_seq (Mkc_stream.Stream_source.of_array churned) in
      checkb "file drive = in-memory drive" true
        (String.equal (Lin.bytes from_file) (Lin.bytes in_memory));
      let never = drive_seq (Mkc_stream.Stream_source.of_array clean) in
      checkb "file drive nets out deletions" true
        (String.equal (Lin.bytes from_file) (Lin.bytes never)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_feed_cancellation; prop_merge_cancellation; prop_interleaved_cancellation ]
  @ [
      Alcotest.test_case "l0 turnstile counts multiplicity, not membership" `Quick
        test_l0t_counts_not_membership;
      Alcotest.test_case "l0 turnstile load_state rejects zero counts" `Quick
        test_l0t_load_state_rejects_zero_count;
      Alcotest.test_case "l0 turnstile matches set variant on insertions" `Quick
        test_l0t_signed_feed_matches_set_variant_on_insertions;
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
    ]
