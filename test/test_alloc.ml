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

(* SmallSet's planned feed with every guess live: a kept pair costs one
   store cell, shared by every guess that reads it, so the minor words
   per pair stored (counted per guess, as [pairs_stored] does) stay
   below two.  The stream is replayed in 1024-edge chunks; a first pass
   on a twin instance warms the chunk plan's scratch. *)
let test_small_set_feed_planned () =
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
  let before = Gc.minor_words () in
  pass ss;
  let words = Gc.minor_words () -. before in
  let stat key = List.assoc key (Ss.stats ss) in
  if stat "dead_instances" > 0 then Alcotest.fail "a guess died: the instance must keep all live";
  let per_pair = words /. float_of_int (stat "pairs_stored") in
  if per_pair > 2.0 then
    Alcotest.failf "small_set.feed_planned allocates %.3f words per stored pair (budget 2.0)" per_pair

let suite =
  [
    Alcotest.test_case "l0_bjkst feed is allocation-free" `Quick test_l0;
    Alcotest.test_case "count_sketch feed is allocation-free" `Quick
      test_count_sketch;
    Alcotest.test_case "f2_heavy_hitter feed is allocation-free" `Quick
      test_f2_heavy_hitter;
    Alcotest.test_case "f2_heavy_hitter prune is allocation-free" `Quick
      test_f2_heavy_hitter_prune;
    Alcotest.test_case "f2_contributing feed is allocation-free" `Quick
      test_f2_contributing;
    Alcotest.test_case "sampler memo is allocation-free" `Quick test_memo;
    Alcotest.test_case "nested sampler decide is allocation-free" `Quick
      test_nested_sampler;
    Alcotest.test_case "small_set planned feed: one cell per kept pair" `Quick
      test_small_set_feed_planned;
  ]
