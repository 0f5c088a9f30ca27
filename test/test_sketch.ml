(* Unit and property tests for the sketch substrate (Theorems 2.10-2.12). *)

module Sm = Mkc_hashing.Splitmix
module Kmv = Mkc_baselines.Kmv
module L0 = Mkc_sketch.L0_bjkst
module Hll = Mkc_baselines.Hyperloglog
module Cs = Mkc_sketch.Count_sketch
module Hh = Mkc_sketch.F2_heavy_hitter
module F2c = Mkc_sketch.F2_contributing
module Smp = Mkc_sketch.Sampler

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let within ~tol ~truth est =
  let t = float_of_int truth in
  est >= t *. (1.0 -. tol) && est <= t *. (1.0 +. tol)

(* ---------- distinct elements: KMV, BJKST, HLL ---------- *)

let feed_distinct add sketch ~distinct ~dups =
  for pass = 0 to dups - 1 do
    ignore pass;
    for x = 0 to distinct - 1 do
      add sketch (x * 7919)
    done
  done

let test_kmv_exact_below_cap () =
  let sk = Kmv.create ~cap:64 ~seed:(Sm.create 1) () in
  feed_distinct Kmv.add sk ~distinct:40 ~dups:3;
  checkb "exact below cap" true (Kmv.estimate sk = 40.0)

let test_kmv_accuracy () =
  let sk = Kmv.create ~cap:256 ~seed:(Sm.create 2) () in
  feed_distinct Kmv.add sk ~distinct:50_000 ~dups:2;
  checkb "within 25%" true (within ~tol:0.25 ~truth:50_000 (Kmv.estimate sk))

let test_kmv_duplicates_ignored () =
  let sk = Kmv.create ~cap:32 ~seed:(Sm.create 3) () in
  for _ = 1 to 1000 do
    Kmv.add sk 42
  done;
  checkb "single distinct" true (Kmv.estimate sk = 1.0)

let test_kmv_merge () =
  let a = Kmv.create ~cap:128 ~seed:(Sm.create 4) () in
  let b = Kmv.copy a in
  for x = 0 to 9_999 do
    if x mod 2 = 0 then Kmv.add a x else Kmv.add b x
  done;
  let merged = Kmv.merge a b in
  checkb "merged ~ union" true (within ~tol:0.3 ~truth:10_000 (Kmv.estimate merged))

let test_kmv_merge_incompatible () =
  let a = Kmv.create ~seed:(Sm.create 5) () and b = Kmv.create ~seed:(Sm.create 6) () in
  Alcotest.check_raises "merge rejects different hashes"
    (Invalid_argument "Kmv.merge: sketches use different hash functions") (fun () ->
      ignore (Kmv.merge a b))

let test_bjkst_exact_small () =
  let sk = L0.create ~seed:(Sm.create 7) () in
  feed_distinct L0.add sk ~distinct:50 ~dups:4;
  checkb "small sets exact (level 0)" true (L0.estimate sk = 50.0 && L0.level sk = 0)

let test_bjkst_accuracy () =
  let sk = L0.create ~cap:256 ~seed:(Sm.create 8) () in
  feed_distinct L0.add sk ~distinct:100_000 ~dups:1;
  checkb "within 30%" true (within ~tol:0.3 ~truth:100_000 (L0.estimate sk))

let test_bjkst_duplicates_ignored () =
  let sk = L0.create ~seed:(Sm.create 9) () in
  for _ = 1 to 5000 do
    L0.add sk 123
  done;
  checkb "single distinct" true (L0.estimate sk = 1.0);
  (* also after prunes: every buffered fingerprint stays findable *)
  let sk = L0.create ~seed:(Sm.create 9) () in
  feed_distinct L0.add sk ~distinct:20_000 ~dups:1;
  let once = L0.dump sk in
  feed_distinct L0.add sk ~distinct:20_000 ~dups:1;
  checkb "a second pass leaves the pruned state" true (L0.dump sk = once)

let test_bjkst_words_bounded () =
  let sk = L0.create ~cap:96 ~seed:(Sm.create 10) () in
  feed_distinct L0.add sk ~distinct:1_000_000 ~dups:1;
  (* the sketch is its buffer: two words per fingerprint, the hash's
     coefficients and the counters *)
  checkb "space bounded by cap" true (L0.words sk <= (2 * 96) + 8)

(* Theorem 2.12 asks each sketch for a (1 ± 1/2) estimate with constant
   probability; the hash must deliver it on structured keys too.  Over
   500 seeds and three key shapes (consecutive, and strided by 2^10
   and 2^20, where a linear hash a·x+b maps the keys onto an arithmetic
   progression), every estimate of 10,000 distinct keys must be within
   a factor 1.8, and at most 1% of them may miss ±1/2.  A linear
   (pairwise) hash fails this: on some seed of each shape it estimates
   0 or more than double. *)
let test_bjkst_accuracy_structured_keys () =
  let distinct = 10_000 and seeds = 500 in
  List.iter
    (fun (shape, stride) ->
      let worst = ref 0.0 and misses = ref 0 in
      for seed = 1 to seeds do
        let sk = L0.create ~cap:96 ~seed:(Sm.create (7919 * seed)) () in
        for x = 0 to distinct - 1 do
          L0.add sk (x * stride)
        done;
        let err = Float.abs (L0.estimate sk -. float_of_int distinct) /. float_of_int distinct in
        if err > !worst then worst := err;
        if err > 0.5 then incr misses
      done;
      if !worst >= 0.8 then Alcotest.failf "%s keys: worst relative error %.3f" shape !worst;
      if !misses * 100 > seeds then
        Alcotest.failf "%s keys: %d of %d estimates miss ±1/2" shape !misses seeds)
    [ ("consecutive", 1); ("stride 2^10", 1 lsl 10); ("stride 2^20", 1 lsl 20) ]

(* [load_state] takes states from checkpoints and window epochs: each
   way a dumped state can lie is refused by name. *)
let load_rejects name ?(cap = 96) ~z entries expected () =
  let sk = L0.create ~cap ~seed:(Sm.create 17) () in
  match L0.load_state sk ~z ~prunes:0 ~entries with
  | Error e -> Alcotest.(check string) name expected e
  | Ok () -> Alcotest.failf "%s accepted" name

let test_bjkst_load_out_of_range =
  load_rejects "fingerprint 2^61 - 1" ~z:0 [ 4; Mkc_hashing.Prime_field.p ]
    "l0: fingerprint outside [0, 2^61 - 1)"

let test_bjkst_load_below_level =
  load_rejects "fingerprint of level 1 at z = 3" ~z:3 [ 8; 16; 6 ] "l0: fingerprint below level z"

let test_bjkst_load_duplicate =
  load_rejects "repeated fingerprint" ~z:0 [ 3; 9; 3 ] "l0: duplicate fingerprint"

let test_bjkst_load_over_cap =
  load_rejects "five entries at cap 4" ~cap:4 ~z:0 [ 1; 2; 3; 4; 5 ] "l0: entries exceed cap"

let test_hll_accuracy () =
  let sk = Hll.create ~bits:12 ~seed:(Sm.create 11) () in
  feed_distinct Hll.add sk ~distinct:80_000 ~dups:1;
  checkb "within 15%" true (within ~tol:0.15 ~truth:80_000 (Hll.estimate sk))

let test_hll_small_range_linear_counting () =
  let sk = Hll.create ~bits:10 ~seed:(Sm.create 12) () in
  feed_distinct Hll.add sk ~distinct:100 ~dups:3;
  checkb "small cardinality within 15%" true (within ~tol:0.15 ~truth:100 (Hll.estimate sk))

let test_hll_merge () =
  let seed = Sm.create 13 in
  let a = Hll.create ~bits:11 ~seed () in
  (* merge requires same hash: build b by merging empty with a's token *)
  let b = Hll.merge a a in
  for x = 0 to 19_999 do
    if x mod 2 = 0 then Hll.add a x else Hll.add b x
  done;
  let merged = Hll.merge a b in
  checkb "merged ~ union" true (within ~tol:0.2 ~truth:20_000 (Hll.estimate merged))

let test_hll_bits_validation () =
  Alcotest.check_raises "bits out of range"
    (Invalid_argument "Hyperloglog.create: bits must be in [4, 18]") (fun () ->
      ignore (Hll.create ~bits:2 ~seed:(Sm.create 0) ()))

(* L0 estimators agree with each other on the same stream (E10 sanity). *)
let test_l0_estimators_agree () =
  let kmv = Kmv.create ~cap:256 ~seed:(Sm.create 14) () in
  let bjkst = L0.create ~cap:256 ~seed:(Sm.create 15) () in
  let hll = Hll.create ~bits:12 ~seed:(Sm.create 16) () in
  for x = 0 to 29_999 do
    Kmv.add kmv x;
    L0.add bjkst x;
    Hll.add hll x
  done;
  List.iter
    (fun est -> checkb "estimator near 30k" true (within ~tol:0.3 ~truth:30_000 est))
    [ Kmv.estimate kmv; L0.estimate bjkst; Hll.estimate hll ]

(* ---------- CountSketch / CountMin ---------- *)

let test_count_sketch_point_queries () =
  let cs = Cs.create ~depth:5 ~width:512 ~seed:(Sm.create 20) () in
  (* heavy item 3 with count 10_000, light noise *)
  Cs.add cs 3 10_000;
  for i = 100 to 1099 do
    Cs.add cs i 5
  done;
  let est = Cs.estimate cs 3 in
  checkb "heavy estimate within 10%" true (within ~tol:0.1 ~truth:10_000 est);
  (* The estimate is the median of the rows' signed counters (the mean
     of the two middle rows at even depth), read here through the dump
     and the sketch's own hash seeds and sorted as floats. *)
  List.iter
    (fun depth ->
      let seed = Sm.create (30 + depth) in
      let width = 16 in
      let cs = Cs.create ~depth ~width ~seed () in
      for i = 0 to 199 do
        Cs.add cs (i mod 37) (1 + (i mod 5) - (2 * (i mod 3)))
      done;
      let rows = Cs.dump cs in
      let reference i =
        let v =
          Array.init depth (fun r ->
              let b =
                Mkc_hashing.Pairwise.hash
                  (Mkc_hashing.Pairwise.create ~range:width ~seed:(Sm.fork seed (2 * r)))
                  i
              in
              let s =
                Mkc_hashing.Poly_hash.create ~indep:4 ~range:2 ~seed:(Sm.fork seed ((2 * r) + 1))
              in
              float_of_int
                ((if Mkc_hashing.Poly_hash.hash s i = 0 then 1 else -1) * rows.(r).(b)))
        in
        Array.sort compare v;
        if depth land 1 = 1 then v.(depth / 2) else (v.((depth / 2) - 1) +. v.(depth / 2)) /. 2.0
      in
      for i = 0 to 40 do
        Alcotest.(check (float 0.0))
          (Printf.sprintf "depth %d item %d: median of rows" depth i)
          (reference i) (Cs.estimate cs i)
      done)
    [ 1; 2; 3; 4; 5; 6 ]

let test_count_sketch_f2 () =
  let cs = Cs.create ~depth:5 ~width:1024 ~seed:(Sm.create 21) () in
  for i = 0 to 999 do
    Cs.add cs i 3
  done;
  (* F2 = 1000 * 9 = 9000 *)
  checkb "in-sketch F2 within 40%" true (within ~tol:0.4 ~truth:9000 (Cs.f2_estimate cs))

let test_count_sketch_unbiased_sign () =
  (* An absent item's estimate should be near zero. *)
  let cs = Cs.create ~depth:5 ~width:1024 ~seed:(Sm.create 22) () in
  for i = 0 to 999 do
    Cs.add cs i 2
  done;
  let est = Float.abs (Cs.estimate cs 1_000_000) in
  checkb "absent item near zero" true (est <= 64.0)

let test_count_sketch_words () =
  let cs = Cs.create ~depth:3 ~width:64 ~seed:(Sm.create 24) () in
  checkb "words >= counters" true (Cs.words cs >= 3 * 64)

(* ---------- F2 heavy hitters (Theorem 2.10) ---------- *)

let test_hh_finds_planted_heavy () =
  let hh = Hh.create ~phi:0.05 ~seed:(Sm.create 25) () in
  (* Item 42 carries most of the L2 mass. *)
  for _ = 1 to 5000 do
    Hh.add hh 42 1
  done;
  for i = 0 to 999 do
    Hh.add hh (100 + i) 1
  done;
  let hits = Hh.hits hh in
  checkb "planted heavy found" true (List.exists (fun (h : Hh.hit) -> h.id = 42) hits);
  let v = (List.find (fun (h : Hh.hit) -> h.id = 42) hits).freq in
  checkb "value (1±1/2)-accurate" true (v >= 2500.0 && v <= 7500.0)

let test_hh_no_false_heavies_on_uniform () =
  let hh = Hh.create ~phi:0.1 ~seed:(Sm.create 26) () in
  for i = 0 to 9999 do
    Hh.add hh (i mod 1000) 1
  done;
  (* every item has frequency 10; F2 = 1000*100; phi*F2 = 10_000 = (100)^2:
     an item would need frequency >= 100 to qualify. *)
  checkb "uniform stream yields no heavy hitters" true (Hh.hits hh = [])

let test_hh_multiple_heavies () =
  let hh = Hh.create ~phi:0.04 ~seed:(Sm.create 27) () in
  List.iter
    (fun (id, c) ->
      for _ = 1 to c do
        Hh.add hh id 1
      done)
    [ (1, 4000); (2, 3000); (3, 2500) ];
  for i = 100 to 1099 do
    Hh.add hh i 2
  done;
  let ids = Hh.hits hh |> List.map (fun (h : Hh.hit) -> h.id) in
  checkb "all three planted heavies found" true
    (List.mem 1 ids && List.mem 2 ids && List.mem 3 ids)

let test_hh_phi_validation () =
  Alcotest.check_raises "phi > 1 rejected"
    (Invalid_argument "F2_heavy_hitter.create: phi must be in (0, 1]") (fun () ->
      ignore (Hh.create ~phi:1.5 ~seed:(Sm.create 0) ()))

(* ---------- F2 contributing classes (Theorem 2.11) ---------- *)

let test_contributing_single_dominant () =
  (* One coordinate holds all mass: it is a 1-contributing class of size 1. *)
  let c = F2c.create ~gamma:0.5 ~r:64 ~indep:6 ~seed:(Sm.create 28) () in
  for _ = 1 to 3000 do
    F2c.add c 9 1
  done;
  let hits = F2c.hits c in
  checkb "dominant coordinate found" true
    (List.exists (fun (h : F2c.hit) -> h.id = 9) hits)

let test_contributing_large_class () =
  (* 64 coordinates with frequency 64 each and nothing else: the class
     R_6 = {freq in (32, 64]} has |R|·2^12 = 64·4096 = F2 — 1-contributing.
     The class members are NOT individually heavy (each holds 1/64 of F2),
     so detection must come from the subsampled levels. *)
  let c = F2c.create ~gamma:0.25 ~r:256 ~indep:6 ~seed:(Sm.create 29) () in
  for pass = 1 to 64 do
    ignore pass;
    for i = 0 to 63 do
      F2c.add c (1000 + i) 1
    done
  done;
  let hits = F2c.hits c in
  checkb "some member of the contributing class surfaces" true
    (List.exists (fun (h : F2c.hit) -> h.id >= 1000 && h.id < 1064) hits)

let test_contributing_values_accurate () =
  let c = F2c.create ~gamma:0.5 ~r:16 ~indep:6 ~seed:(Sm.create 30) () in
  for _ = 1 to 2048 do
    F2c.add c 5 1
  done;
  match List.find_opt (fun (h : F2c.hit) -> h.id = 5) (F2c.hits c) with
  | None -> Alcotest.fail "coordinate 5 not reported"
  | Some h -> checkb "freq (1±1/2)-accurate" true (h.freq >= 1024.0 && h.freq <= 3072.0)

let test_contributing_levels () =
  let c = F2c.create ~gamma:0.5 ~r:100 ~indep:4 ~seed:(Sm.create 31) () in
  checki "levels = ceil_log2(r)+1" 8 (F2c.levels c)

(* ---------- Dyadic heavy hitters (Theorem 2.10 alternative) ---------- *)

module Dy = Mkc_baselines.Dyadic_hh

let test_dyadic_finds_planted () =
  let dy = Dy.create ~bits:12 ~phi:0.05 ~seed:(Sm.create 40) () in
  for _ = 1 to 4000 do
    Dy.add dy 777 1
  done;
  for i = 0 to 999 do
    Dy.add dy (i * 3 mod 4096) 2
  done;
  let hits = Dy.hits dy in
  checkb "planted heavy found by dyadic search" true
    (List.exists (fun (h : Dy.hit) -> h.id = 777) hits)

let test_dyadic_multiple_heavies () =
  let dy = Dy.create ~bits:10 ~phi:0.03 ~seed:(Sm.create 41) () in
  List.iter
    (fun (id, c) ->
      for _ = 1 to c do
        Dy.add dy id 1
      done)
    [ (17, 3000); (900, 2500); (512, 2000) ];
  for i = 0 to 511 do
    Dy.add dy i 2
  done;
  let ids = Dy.hits dy |> List.map (fun (h : Dy.hit) -> h.id) in
  checkb "all three found" true (List.mem 17 ids && List.mem 900 ids && List.mem 512 ids)

let test_dyadic_turnstile () =
  (* unlike the tracker-based HH, dyadic search supports deletions *)
  let dy = Dy.create ~bits:10 ~phi:0.1 ~seed:(Sm.create 42) () in
  for _ = 1 to 3000 do
    Dy.add dy 5 1
  done;
  for _ = 1 to 2900 do
    Dy.add dy 5 (-1)
  done;
  for _ = 1 to 2000 do
    Dy.add dy 6 1
  done;
  let ids = Dy.hits dy |> List.map (fun (h : Dy.hit) -> h.id) in
  checkb "6 is heavy after deletions" true (List.mem 6 ids);
  checkb "5 no longer heavy" true (not (List.mem 5 ids))

let test_dyadic_range_validation () =
  let dy = Dy.create ~bits:4 ~phi:0.5 ~seed:(Sm.create 43) () in
  Alcotest.check_raises "coordinate out of range"
    (Invalid_argument "Dyadic_hh.add: coordinate out of range") (fun () -> Dy.add dy 16 1)

let test_dyadic_vs_tracker_agree () =
  (* both Theorem 2.10 implementations should recall the same planted set *)
  let dy = Dy.create ~bits:12 ~phi:0.05 ~seed:(Sm.create 44) () in
  let hh = Hh.create ~phi:0.05 ~seed:(Sm.create 45) () in
  let feed i d = Dy.add dy i d; Hh.add hh i d in
  for _ = 1 to 5000 do
    feed 123 1
  done;
  for i = 0 to 799 do
    feed (1000 + i) 3
  done;
  let dy_ids = Dy.hits dy |> List.map (fun (h : Dy.hit) -> h.id) in
  let hh_ids = Hh.hits hh |> List.map (fun (h : Hh.hit) -> h.id) in
  checkb "both recall the heavy id" true (List.mem 123 dy_ids && List.mem 123 hh_ids)

(* ---------- Samplers ---------- *)

let test_bernoulli_rate () =
  let s =
    Smp.Bernoulli.create ~rate:(1.0 /. 16.0) ~indep:6 ~seed:(Sm.create 32)
  in
  let kept = ref 0 in
  let total = 64_000 in
  for x = 0 to total - 1 do
    if Smp.Bernoulli.keep s x then incr kept
  done;
  let expected = total / 16 in
  checkb "empirical rate ~ 1/16" true (abs (!kept - expected) < expected / 2);
  checkb "declared rate" true (Smp.Bernoulli.rate s = 1.0 /. 16.0)

let test_bernoulli_consistency () =
  let s = Smp.Bernoulli.create ~rate:0.25 ~indep:4 ~seed:(Sm.create 33) in
  for x = 0 to 100 do
    checkb "same answer on re-query" true (Smp.Bernoulli.keep s x = Smp.Bernoulli.keep s x)
  done

let test_nested_monotone () =
  let s = Smp.Nested.create ~base_rate:(1.0 /. 64.0) ~levels:7 ~indep:6 ~seed:(Sm.create 34) in
  (* an item kept at level i must be kept at every level j > i *)
  for x = 0 to 2000 do
    for lvl = 0 to 5 do
      if Smp.Nested.keep s ~level:lvl x then
        checkb "nesting" true (Smp.Nested.keep s ~level:(lvl + 1) x)
    done
  done

let test_nested_min_keep_level () =
  let s = Smp.Nested.create ~base_rate:(1.0 /. 32.0) ~levels:6 ~indep:6 ~seed:(Sm.create 35) in
  for x = 0 to 2000 do
    match Smp.Nested.min_keep_level s x with
    | None ->
        for lvl = 0 to 5 do
          checkb "survives nowhere" false (Smp.Nested.keep s ~level:lvl x)
        done
    | Some l ->
        checkb "survives at min level" true (Smp.Nested.keep s ~level:l x);
        if l > 0 then checkb "not below min level" false (Smp.Nested.keep s ~level:(l - 1) x)
  done

let test_nested_rates_double () =
  let s = Smp.Nested.create ~base_rate:(1.0 /. 64.0) ~levels:7 ~indep:4 ~seed:(Sm.create 36) in
  for lvl = 0 to 5 do
    let r0 = Smp.Nested.rate s ~level:lvl and r1 = Smp.Nested.rate s ~level:(lvl + 1) in
    checkb "rate doubles per level (until 1)" true (r1 = Float.min 1.0 (2.0 *. r0))
  done

(* QCheck properties *)

let prop_kmv_never_negative =
  QCheck.Test.make ~name:"kmv estimate non-negative" ~count:50
    QCheck.(list (int_range 0 10_000))
    (fun xs ->
      let sk = Kmv.create ~seed:(Sm.create 999) () in
      List.iter (Kmv.add sk) xs;
      Kmv.estimate sk >= 0.0)

let prop_l0_at_most_stream_length =
  QCheck.Test.make ~name:"bjkst small-stream sanity" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 0 80) (int_range 0 1_000_000))
    (fun xs ->
      (* below the buffer cap the sketch is exact *)
      let sk = L0.create ~cap:96 ~seed:(Sm.create 998) () in
      List.iter (L0.add sk) xs;
      let distinct = List.sort_uniq compare xs |> List.length in
      L0.estimate sk = float_of_int distinct)

(* Reference model for F2_heavy_hitter's candidate tracker: an
   association list that prunes by fully sorting (count descending, id
   ascending) and keeping the first [cap], beside a CountSketch with the
   tracker's own width and seed for the candidate estimates.  The
   tracker's table must end with the same dump and answer the same
   candidates whatever its entry order.  A [Merge] feeds its updates to
   a second tracker and merges that into the first; the model adds the
   second model's CountSketch and replays its sorted (id, count) pairs
   through the tracked half of [model_add]. *)

type hh_op = Upd of int * int | Cand | Merge of (int * int) list

let gen_hh_case =
  QCheck.Gen.(
    int_range 4 16 >>= fun c ->
    let update = pair (int_range 0 (3 * c)) (oneofl [ -2; -1; -1; 1; 1; 1; 2; 3 ]) in
    let upd = map (fun (i, d) -> Upd (i, d)) update in
    (* Up to 8·c updates over 3·c+1 ids: a merge source holds up to 2·c
       entries, so folding it in usually prunes, and its negative counts
       cancel some of the destination's. *)
    let merge = map (fun us -> Merge us) (list_size (int_range 0 (8 * c)) update) in
    pair (return c)
      (list_size (int_range 0 400) (frequency [ (24, upd); (1, return Cand); (1, merge) ])))

let print_hh_case (c, ops) =
  let upd (i, d) = Printf.sprintf "%d%+d" i d in
  Printf.sprintf "cap %d: %s" c
    (String.concat " "
       (List.map
          (function
            | Upd (i, d) -> upd (i, d)
            | Cand -> "C"
            | Merge us -> "M[" ^ String.concat " " (List.map upd us) ^ "]")
          ops))

let arb_hh_case = QCheck.make ~print:print_hh_case gen_hh_case

type hh_model = { mcs : Cs.t; mutable mcounts : (int * int) list; mutable mprunes : int }

let hh_seed = Sm.create 996

(* phi = 4/c targets a cap of [c] (4 to 16); the model still reads the
   tracker's own [cap] and CountSketch width. *)
let hh_pair c =
  let hh = Hh.create ~phi:(4.0 /. float_of_int c) ~seed:hh_seed () in
  let rows, _, _ = Hh.dump hh in
  let mcs = Cs.create ~width:(Array.length rows.(0)) ~seed:(Sm.fork hh_seed 0) () in
  (hh, { mcs; mcounts = []; mprunes = 0 })

let model_prune m cap =
  let sorted =
    List.sort (fun (i, a) (j, b) -> if a <> b then compare b a else compare i j) m.mcounts
  in
  m.mcounts <- List.filteri (fun k _ -> k < cap) sorted;
  m.mprunes <- m.mprunes + 1

let model_track m cap i d =
  match List.assoc_opt i m.mcounts with
  | Some c ->
      let rest = List.remove_assoc i m.mcounts in
      m.mcounts <- (if c + d = 0 then rest else (i, c + d) :: rest)
  | None ->
      m.mcounts <- (i, d) :: m.mcounts;
      if List.length m.mcounts > 2 * cap then model_prune m cap

let model_add m cap i d =
  Cs.add m.mcs i d;
  model_track m cap i d

let model_candidates m cap =
  if List.length m.mcounts > cap then model_prune m cap;
  List.map
    (fun (id, c) -> { Hh.id; freq = Float.min (Cs.estimate m.mcs id) (float_of_int c) })
    m.mcounts
  |> List.sort (fun (a : Hh.hit) (b : Hh.hit) ->
         if a.freq <> b.freq then compare b.freq a.freq else compare a.id b.id)

let model_dump m = (Cs.dump m.mcs, List.sort compare m.mcounts, m.mprunes)

(* A merge source and its model, fed [us]. *)
let merge_source c us =
  let src, ms = hh_pair c in
  List.iter
    (fun (i, d) ->
      Hh.add src i d;
      model_add ms (Hh.cap src) i d)
    us;
  (src, ms)

(* Apply [ops] to the tracker and the model; false at the first
   disagreeing [candidates] answer or merge source. *)
let hh_run c hh m ops =
  let cap = Hh.cap hh in
  List.for_all
    (function
      | Upd (i, d) ->
          Hh.add hh i d;
          model_add m cap i d;
          true
      | Cand -> Hh.candidates hh = model_candidates m cap
      | Merge us ->
          let src, ms = merge_source c us in
          Hh.merge_into ~dst:hh src;
          Cs.merge_into ~dst:m.mcs ms.mcs;
          List.iter (fun (i, n) -> model_track m cap i n) (List.sort compare ms.mcounts);
          m.mprunes <- m.mprunes + ms.mprunes;
          Hh.dump src = model_dump ms)
    ops

let hh_agrees hh m =
  Hh.dump hh = model_dump m && Hh.candidates hh = model_candidates m (Hh.cap hh)
  && Hh.dump hh = model_dump m

let prop_hh_prune_matches_model =
  QCheck.Test.make ~name:"f2_hh tracker ≡ full-sort model" ~count:200 arb_hh_case
    (fun (c, ops) ->
      let hh, m = hh_pair c in
      hh_run c hh m ops && hh_agrees hh m)

(* A tracker restored through [load_state] in reverse id order holds
   its entries in a different order from the live one; fed the same
   suffix, both must end where the model does. *)
let prop_hh_restored_matches_live =
  QCheck.Test.make ~name:"f2_hh restored tracker ≡ live tracker" ~count:100 arb_hh_case
    (fun (c, ops) ->
      let live, m = hh_pair c in
      let half = List.length ops / 2 in
      let prefix = List.filteri (fun k _ -> k < half) ops
      and suffix = List.filteri (fun k _ -> k >= half) ops in
      hh_run c live m prefix
      &&
      let rows, counts, prunes = Hh.dump live in
      let restored, _ = hh_pair c in
      Hh.load_state restored ~rows ~counts:(List.rev counts) ~prunes = Ok ()
      && List.for_all
           (fun op ->
             hh_run c live m [ op ]
             &&
             match op with
             | Upd (i, d) ->
                 Hh.add restored i d;
                 true
             | Cand -> Hh.candidates restored = Hh.candidates live
             | Merge us ->
                 Hh.merge_into ~dst:restored (fst (merge_source c us));
                 true)
           suffix
      && Hh.dump restored = Hh.dump live
      && hh_agrees live m
      && Hh.candidates restored = Hh.candidates live
      && Hh.dump restored = Hh.dump live)

(* The merge shape the property can only hope to draw: the source
   cancels one of the destination's counts to zero and brings enough
   new ids to prune the destination mid-merge. *)
let test_hh_merge_prunes_and_cancels () =
  let c = 8 in
  let hh, m = hh_pair c in
  let cap = Hh.cap hh in
  let dst = List.init (2 * cap) (fun i -> Upd (i, 1 + (i mod 3))) in
  let src = (0, -1) :: List.init cap (fun j -> (100 + j, 2)) in
  if not (hh_run c hh m dst) then Alcotest.fail "destination disagrees before the merge";
  let prunes = Hh.prunes hh in
  if not (hh_run c hh m [ Merge src ]) then Alcotest.fail "merge source disagrees";
  Alcotest.(check bool) "the merge pruned" true (Hh.prunes hh > prunes);
  Alcotest.(check bool) "the cancelled id is gone" false (Hh.mem hh 0);
  Alcotest.(check bool) "tracker ≡ model after the merge" true (hh_agrees hh m)

(* [mem] is one probe of the tracker's index, which removals at zero
   shift back and prunes rebuild.  After every signed [add_tracked], it
   must hold exactly for the ids [counts] lists.  Each case opens with a
   count cancelled to zero and then 2·cap + 1 distinct inserts, so every
   draw removes and prunes before its random updates. *)
let prop_hh_mem_matches_counts =
  let arb =
    QCheck.(
      pair (int_range 4 16)
        (list_of_size Gen.(int_range 0 300) (pair (int_bound 48) (oneofl [ -2; -1; 1; 1; 2 ]))))
  in
  QCheck.Test.make ~name:"f2_hh mem ≡ membership in counts" ~count:200 arb (fun (c, us) ->
      let hh = Hh.create ~phi:(4.0 /. float_of_int c) ~seed:hh_seed () in
      let cap = Hh.cap hh in
      let ids = max 48 ((2 * cap) + 1) in
      let agrees () =
        let counts = Hh.counts hh in
        List.for_all (fun i -> Hh.mem hh i = List.mem_assoc i counts) (List.init (ids + 1) Fun.id)
      in
      let step (i, d) =
        Hh.add_tracked hh i d;
        agrees ()
      in
      let opening = (0, 1) :: (0, -1) :: List.init ((2 * cap) + 1) (fun i -> (i, 1)) in
      List.for_all step opening && Hh.prunes hh = 1 && List.for_all step us)

(* F2-Contributing's full-rate levels (levels 0 and 1 under the default
   oversample) hold one tracker.  Each must still dump exactly the
   tracked part (counts and prunes) of a standalone F2_heavy_hitter of
   the same φ fed the same signed sequence — the per-level tracker it
   replaces — through prunes, counts returning to zero and a
   mid-stream candidate read (which settles). *)
let prop_f2c_shared_tracker_matches_standalone =
  let arb =
    QCheck.(
      quad (int_range 2 16) (oneofl [ 0.5; 1.0 ]) small_nat
        (list_of_size Gen.(int_range 1 300) (pair (int_bound 63) (int_range (-3) 3))))
  in
  QCheck.Test.make ~name:"f2c full-rate levels ≡ one standalone tracker" ~count:200 arb
    (fun (r, gamma, seed, us) ->
      let c = F2c.create ~gamma ~r ~indep:4 ~seed:(Sm.create seed) () in
      let model = Hh.create ~phi:(min 1.0 (gamma /. 2.0)) ~seed:(Sm.create (seed + 1)) () in
      let full = F2c.first_tracked c in
      let feed (i, d) =
        if d <> 0 then begin
          F2c.add c i d;
          Hh.add model i d
        end
      in
      (* the first half again, negated: counts return to zero *)
      let half = List.filteri (fun j _ -> j < List.length us / 2) us in
      let agrees () =
        let _, counts, prunes = Hh.dump model in
        let levels = F2c.dump c in
        List.for_all
          (fun i ->
            let _, ci, pi = levels.(i) in
            ci = counts && pi = prunes)
          (List.init (full + 1) Fun.id)
      in
      List.iter feed us;
      let mid = agrees () in
      ignore (F2c.candidates c : F2c.hit list);
      ignore (Hh.candidates model : Hh.hit list);
      let settled = agrees () in
      List.iter (fun (i, d) -> feed (i, -d)) half;
      full = 1
      && Hh.shares_tracker (F2c.level c 0) (F2c.level c 1)
      && (F2c.levels c < 3 || not (Hh.shares_tracker (F2c.level c 1) (F2c.level c 2)))
      && mid && settled && agrees ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_kmv_never_negative;
      prop_l0_at_most_stream_length;
      prop_hh_prune_matches_model;
      prop_hh_restored_matches_live;
      prop_hh_mem_matches_counts;
      prop_f2c_shared_tracker_matches_standalone;
    ]

let suite =
  [
    Alcotest.test_case "kmv exact below cap" `Quick test_kmv_exact_below_cap;
    Alcotest.test_case "kmv accuracy" `Quick test_kmv_accuracy;
    Alcotest.test_case "kmv duplicates ignored" `Quick test_kmv_duplicates_ignored;
    Alcotest.test_case "kmv merge" `Quick test_kmv_merge;
    Alcotest.test_case "kmv merge incompatible" `Quick test_kmv_merge_incompatible;
    Alcotest.test_case "bjkst exact small" `Quick test_bjkst_exact_small;
    Alcotest.test_case "bjkst accuracy" `Quick test_bjkst_accuracy;
    Alcotest.test_case "bjkst duplicates ignored" `Quick test_bjkst_duplicates_ignored;
    Alcotest.test_case "bjkst space bounded" `Quick test_bjkst_words_bounded;
    Alcotest.test_case "bjkst accuracy on structured keys" `Quick
      test_bjkst_accuracy_structured_keys;
    Alcotest.test_case "bjkst load: fingerprint out of range" `Quick test_bjkst_load_out_of_range;
    Alcotest.test_case "bjkst load: fingerprint below level" `Quick test_bjkst_load_below_level;
    Alcotest.test_case "bjkst load: duplicate fingerprint" `Quick test_bjkst_load_duplicate;
    Alcotest.test_case "bjkst load: more than cap entries" `Quick test_bjkst_load_over_cap;
    Alcotest.test_case "hll accuracy" `Quick test_hll_accuracy;
    Alcotest.test_case "hll linear counting regime" `Quick test_hll_small_range_linear_counting;
    Alcotest.test_case "hll merge" `Quick test_hll_merge;
    Alcotest.test_case "hll bits validation" `Quick test_hll_bits_validation;
    Alcotest.test_case "l0 estimators agree" `Quick test_l0_estimators_agree;
    Alcotest.test_case "count-sketch point queries" `Quick test_count_sketch_point_queries;
    Alcotest.test_case "count-sketch f2" `Quick test_count_sketch_f2;
    Alcotest.test_case "count-sketch absent item" `Quick test_count_sketch_unbiased_sign;
    Alcotest.test_case "count-sketch words" `Quick test_count_sketch_words;
    Alcotest.test_case "hh finds planted heavy" `Quick test_hh_finds_planted_heavy;
    Alcotest.test_case "hh no false heavies" `Quick test_hh_no_false_heavies_on_uniform;
    Alcotest.test_case "hh multiple heavies" `Quick test_hh_multiple_heavies;
    Alcotest.test_case "hh phi validation" `Quick test_hh_phi_validation;
    Alcotest.test_case "hh merge prunes and cancels" `Quick test_hh_merge_prunes_and_cancels;
    Alcotest.test_case "contributing: dominant coordinate" `Quick test_contributing_single_dominant;
    Alcotest.test_case "contributing: large flat class" `Quick test_contributing_large_class;
    Alcotest.test_case "contributing: values accurate" `Quick test_contributing_values_accurate;
    Alcotest.test_case "contributing: level count" `Quick test_contributing_levels;
    Alcotest.test_case "dyadic finds planted" `Quick test_dyadic_finds_planted;
    Alcotest.test_case "dyadic multiple heavies" `Quick test_dyadic_multiple_heavies;
    Alcotest.test_case "dyadic turnstile" `Quick test_dyadic_turnstile;
    Alcotest.test_case "dyadic range validation" `Quick test_dyadic_range_validation;
    Alcotest.test_case "dyadic vs tracker agree" `Quick test_dyadic_vs_tracker_agree;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "bernoulli consistency" `Quick test_bernoulli_consistency;
    Alcotest.test_case "nested monotone" `Quick test_nested_monotone;
    Alcotest.test_case "nested min_keep_level" `Quick test_nested_min_keep_level;
    Alcotest.test_case "nested rates double" `Quick test_nested_rates_double;
  ]
  @ qsuite
