(* Allocation-regression tests for the flat sketch engine.

   The flat rewrites promise a hot feed path with (near-)zero words
   allocated per edge: every table lives on preallocated int arrays,
   prunes compact in place through preallocated scratch, and probe
   loops are tail calls.  These tests pin that property with the GC's
   own meter: feed 64k edges through each sketch and assert the
   [Gc.minor_words] delta stays below a small constant per edge.

   Budget: 2.0 words/edge — generous against the ideal of 0 (it
   absorbs the boxed-float results of [Gc.minor_words] itself and any
   rare non-hot-path residue) but far below one boxed int64 (3 words)
   or one [Some] cell per edge, so any reintroduction of per-edge
   boxing fails immediately. *)

module Sm = Mkc_hashing.Splitmix
module L0 = Mkc_sketch.L0_bjkst
module Cs = Mkc_sketch.Count_sketch
module Hh = Mkc_sketch.F2_heavy_hitter
module Fc = Mkc_sketch.F2_contributing
module Sampler = Mkc_sketch.Sampler

let edges = 65536
let budget = 2.0

(* A fixed pseudo-random id stream, wide enough (20 bits) to force L0
   prunes and tracker churn, shared by every test. *)
let ids =
  let s = Sm.create 424242 in
  Array.init edges (fun _ -> Sm.next_int s land 0xF_FFFF)

(* Words of minor allocation per edge across one full [feed] pass.  The
   first pass is a warm-up: it triggers any one-time work (first
   prunes, table fills) outside the measured window. *)
let words_per_edge feed =
  feed ();
  Gc.full_major ();
  let before = Gc.minor_words () in
  feed ();
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int edges

let check_budget name feed =
  let wpe = words_per_edge feed in
  if wpe > budget then
    Alcotest.failf "%s allocates %.3f words/edge (budget %.1f)" name wpe budget

let test_l0 () =
  let sk = L0.create ~seed:(Sm.create 1) () in
  check_budget "l0_bjkst.add" (fun () ->
      for i = 0 to edges - 1 do
        L0.add sk (Array.unsafe_get ids i)
      done)

let test_count_sketch () =
  let sk = Cs.create ~width:256 ~seed:(Sm.create 2) () in
  check_budget "count_sketch.add" (fun () ->
      for i = 0 to edges - 1 do
        Cs.add sk (Array.unsafe_get ids i) 1
      done)

(* A frequency read takes the median of the rows in the sketch's own
   scratch: nothing is allocated but the boxed float it returns (two
   words; a separately compiled caller cannot unbox it).  The
   Array.init-and-sort median it replaced took ≈121 words per read. *)
let test_count_sketch_estimate () =
  let sk = Cs.create ~width:256 ~seed:(Sm.create 2) () in
  Array.iter (fun id -> Cs.add sk id 1) ids;
  check_budget "count_sketch.estimate" (fun () ->
      for i = 0 to edges - 1 do
        ignore (Cs.estimate sk (Array.unsafe_get ids i) : float)
      done)

let test_f2_heavy_hitter () =
  let sk = Hh.create ~phi:0.01 ~seed:(Sm.create 3) () in
  check_budget "f2_heavy_hitter.add" (fun () ->
      for i = 0 to edges - 1 do
        Hh.add sk (Array.unsafe_get ids i) 1
      done)

(* Tracker churn in the shape that prunes most: cap 48 against 512 ids,
   a prune every few dozen updates.  The 2-words/edge budget would hide
   a few words per prune, so this pins the prune itself at zero: the
   whole measured pass may allocate less than one word per prune. *)
let test_f2_heavy_hitter_prune () =
  let sk = Hh.create ~phi:(1.0 /. 12.0) ~seed:(Sm.create 6) () in
  let feed () =
    for i = 0 to edges - 1 do
      Hh.add_tracked sk (Array.unsafe_get ids i land 511) 1
    done
  in
  feed ();
  Gc.full_major ();
  let p0 = Hh.prunes sk in
  let before = Gc.minor_words () in
  feed ();
  let words = Gc.minor_words () -. before in
  let prunes = Hh.prunes sk - p0 in
  if prunes < 1000 then Alcotest.failf "expected > 1000 prunes, got %d" prunes;
  if words >= float_of_int prunes then
    Alcotest.failf "f2_heavy_hitter prune allocates %.0f words over %d prunes" words prunes

let test_f2_contributing () =
  let sk = Fc.create ~gamma:0.1 ~r:1024 ~indep:8 ~seed:(Sm.create 5) () in
  check_budget "f2_contributing.add" (fun () ->
      for i = 0 to edges - 1 do
        Fc.add sk (Array.unsafe_get ids i) 1
      done)

let test_memo () =
  let memo = Sampler.Memo.create ~slots:4096 in
  check_budget "sampler.memo find/store" (fun () ->
      for i = 0 to edges - 1 do
        let id = Array.unsafe_get ids i in
        let v = Sampler.Memo.find memo id in
        if v = Sampler.Memo.absent then Sampler.Memo.store memo id (id land 7)
      done)

let test_nested_sampler () =
  let ns =
    Sampler.Nested.create ~base_rate:0.001 ~levels:10 ~indep:8 ~seed:(Sm.create 6)
  in
  check_budget "sampler.nested min_keep_level_code" (fun () ->
      for i = 0 to edges - 1 do
        ignore (Sampler.Nested.min_keep_level_code ns (Array.unsafe_get ids i))
      done)

(* Every word [f] allocates, minor or straight into the major heap.
   The counters are read after a minor collection: they lag the words
   still in the minor heap. *)
let allocated_words f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* SmallSet fed by plan in 1024-edge chunks, every guess live.  A first
   pass on a twin instance warms the chunk plan's scratch. *)
let small_set_fed () =
  let module Ss = Mkc_core.Small_set in
  let module Plan = Mkc_stream.Chunk_plan in
  let p = Mkc_core.Params.make ~m:1024 ~n:256 ~k:6 ~alpha:4.0 ~seed:7 () in
  let stream =
    Array.map (fun id -> Mkc_stream.Edge.make ~set:(id land 1023) ~elt:((id lsr 10) land 255)) ids
  in
  let plan = Plan.create () and chunk = 1024 in
  let pass ss =
    let pos = ref 0 in
    while !pos < edges do
      Plan.build plan stream ~pos:!pos ~len:chunk;
      Ss.feed_planned ss plan ~red:(Plan.elts plan) stream ~pos:!pos ~len:chunk;
      pos := !pos + chunk
    done
  in
  pass (Ss.create p ~seed:(Sm.create 8));
  let ss = Ss.create p ~seed:(Sm.create 8) in
  Gc.full_major ();
  let words = allocated_words (fun () -> pass ss) in
  let stat key = List.assoc key (Ss.stats ss) in
  if stat "dead_instances" > 0 then Alcotest.fail "a guess died: the instance must keep all live";
  (ss, words /. float_of_int (stat "pairs_stored"))

(* A kept pair takes one two-word slot of the store's arena, which
   grows by whole blocks: no cell per pair.  Every word counts, the
   blocks included; pairs count per guess, as [pairs_stored] does (here
   about two guesses read each).  The arena measures 1.31 words per
   pair, a store of cons cells 1.83. *)
let test_small_set_feed_planned () =
  let _, per_pair = small_set_fed () in
  if per_pair > 1.5 then
    Alcotest.failf "small_set.feed_planned allocates %.3f words per stored pair (budget 1.5)" per_pair

(* Finalize builds one compressed copy of each repeat's store and one
   flat sub-instance per guess: 2.05 words per stored pair.  Rebuilding
   member lists for every guess and repeat took 10.5. *)
let test_small_set_finalize () =
  let ss, _ = small_set_fed () in
  let pairs = float_of_int (Mkc_core.Small_set.stored_pairs ss) in
  let per_pair =
    allocated_words (fun () -> ignore (Sys.opaque_identity (Mkc_core.Small_set.finalize ss)))
    /. pairs
  in
  if per_pair > 2.5 then
    Alcotest.failf "small_set.finalize allocates %.3f words per stored pair (budget 2.5)" per_pair

(* Words allocated straight into the major heap by [f]: large arrays
   and strings, not survivors of a minor collection. *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let _, promoted1, major1 = Gc.counters () in
  major1 -. major0 -. (promoted1 -. promoted0)

(* A roll freezes each (z, rep) instance into its ring slot and thaws
   the instance's blank back into it, on the shard that feeds it: no
   instance is built (the thaw drops the fallback L0 sketches, and the
   next epoch makes few-word ones afresh).  The window is driven the
   way a pooled run drives it, one shard per instance over windows cut
   at the epoch boundaries.  Three planned epochs warm the memos up;
   the same three epochs are then measured.  At the churn-window
   benchmark's dimensions a roll must cost under an eighth of one
   [Estimate.create] (about a tenth: the ring's frozen copies are most
   of it; a create is 0.51M words since LargeSet's and SmallSet's
   decision memos became direct byte tables, so the bound, 64k words,
   is below the 89k that a sixteenth of the 1.42M-word create with
   keyed memos allowed).  Each instance packs into its own reused
   writer and CountSketch rows are written from and read into the
   sketches' own counters; regrowing the pack buffer on every roll
   cost about 180k words. *)
let test_windowed_roll () =
  let module W = Mkc_core.Windowed in
  let module Plan = Mkc_stream.Chunk_plan in
  let p = Mkc_core.Params.make ~m:1024 ~n:32768 ~k:16 ~alpha:8.0 ~seed:9 () in
  let epoch = 4096 and epochs = 3 in
  let stream =
    Array.map (fun id -> Mkc_stream.Edge.make ~set:(id land 1023) ~elt:(id lsr 5)) ids
  in
  let w = W.create p ~window:2 ~epoch_edges:epoch () in
  let shards = W.shards w in
  let plan = Plan.create () in
  let rolls () =
    for i = 0 to epochs - 1 do
      Plan.build plan stream ~pos:(i * epoch) ~len:epoch;
      Array.iter
        (fun s -> Mkc_stream.Sink.Any.feed_planned s plan stream ~pos:(i * epoch) ~len:epoch)
        shards
    done
  in
  rolls ();
  let per_roll = direct_major_words rolls /. float_of_int epochs in
  let create =
    direct_major_words (fun () -> ignore (Sys.opaque_identity (Mkc_core.Estimate.create p)))
  in
  if W.rolled w <> 2 * epochs then Alcotest.failf "%d rolls, expected %d" (W.rolled w) (2 * epochs);
  if per_roll >= create /. 8.0 then
    Alcotest.failf "a windowed roll allocates %.0f direct major words (one Estimate.create: %.0f)"
      per_roll create

(* A checkpoint save packs into its codec's one writer and copies the
   payload out: at the churn-window benchmark's dimensions, a second
   save through the same codec allocates about the payload itself.
   Building a fresh writer on every save cost over four payloads of
   regrown buffers. *)
let test_checkpoint_encode () =
  let module E = Mkc_core.Estimate in
  let p = Mkc_core.Params.make ~m:1024 ~n:32768 ~k:16 ~alpha:8.0 ~seed:10 () in
  let est = E.create p in
  for i = 0 to 19_999 do
    let id = Array.unsafe_get ids i in
    E.feed est (Mkc_stream.Edge.make ~set:(id land 1023) ~elt:(id lsr 5))
  done;
  let codec = E.codec p in
  let payload = codec.Mkc_stream.Checkpoint.encode est in
  let second =
    direct_major_words (fun () ->
        ignore (Sys.opaque_identity (codec.Mkc_stream.Checkpoint.encode est)))
  in
  let payload_words = float_of_int (String.length payload / 8) in
  if second > 1.5 *. payload_words then
    Alcotest.failf "a second checkpoint encode allocates %.0f direct major words (payload: %.0f)"
      second payload_words

let suite =
  [
    Alcotest.test_case "l0_bjkst feed is allocation-free" `Quick test_l0;
    Alcotest.test_case "count_sketch feed is allocation-free" `Quick
      test_count_sketch;
    Alcotest.test_case "count_sketch estimate is allocation-free" `Quick
      test_count_sketch_estimate;
    Alcotest.test_case "f2_heavy_hitter feed is allocation-free" `Quick
      test_f2_heavy_hitter;
    Alcotest.test_case "f2_heavy_hitter prune is allocation-free" `Quick
      test_f2_heavy_hitter_prune;
    Alcotest.test_case "f2_contributing feed is allocation-free" `Quick
      test_f2_contributing;
    Alcotest.test_case "sampler memo is allocation-free" `Quick test_memo;
    Alcotest.test_case "nested sampler decide is allocation-free" `Quick
      test_nested_sampler;
    Alcotest.test_case "small_set planned feed: no cell per kept pair" `Quick
      test_small_set_feed_planned;
    Alcotest.test_case "small_set finalize: flat copies, no lists" `Quick
      test_small_set_finalize;
    Alcotest.test_case "a windowed roll builds no estimator" `Quick test_windowed_roll;
    Alcotest.test_case "a checkpoint save reuses its writer" `Quick test_checkpoint_encode;
  ]
