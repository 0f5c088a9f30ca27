(* API-surface tests: validation paths, pretty-printers, words accounting
   and small behaviors not covered elsewhere. *)

module Sm = Mkc_hashing.Splitmix
module Ss = Mkc_stream.Set_system
module P = Mkc_core.Params

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------- pretty printers ---------- *)

let test_edge_pp () =
  checks "edge pp" "(S3, e7)"
    (Format.asprintf "%a" Mkc_stream.Edge.pp (Mkc_stream.Edge.make ~set:3 ~elt:7))

let test_system_pp_summary () =
  let s = Ss.create ~n:5 ~m:2 ~sets:[| [| 0; 1 |]; [| 2 |] |] in
  checks "summary" "set system: n=5 m=2 pairs=3" (Format.asprintf "%a" Ss.pp_summary s)

let test_params_pp () =
  let p = P.make ~m:10 ~n:20 ~k:2 ~alpha:4.0 () in
  let s = Format.asprintf "%a" P.pp p in
  checkb "mentions profile" true (contains "practical" s);
  checkb "mentions m" true (contains "m=10" s)

let test_space_pp_bytes () =
  let s = Format.asprintf "%a" Mkc_sketch.Space.pp_bytes 1024 in
  checkb "shows words and KiB" true (contains "1024 words" s && contains "8.0 KiB" s)

let test_provenance_pp_variants () =
  let open Mkc_core.Solution in
  checkb "trivial" true (contains "trivial" (Format.asprintf "%a" pp_provenance Trivial));
  checkb "large-set" true
    (contains "D5"
       (Format.asprintf "%a" pp_provenance
          (Large_set { superset = 5; repeat = 1; via_l0_fallback = true })));
  checkb "small-set" true
    (contains "2^-3"
       (Format.asprintf "%a" pp_provenance (Small_set { gamma_exp = 3; repeat = 0 })))

(* ---------- validation raises ---------- *)

let test_validation_raises () =
  let s = Sm.create 0 in
  Alcotest.check_raises "nested levels"
    (Invalid_argument "Nested.create: levels must be >= 1") (fun () ->
      ignore (Mkc_sketch.Sampler.Nested.create ~base_rate:0.5 ~levels:0 ~indep:2 ~seed:s));
  Alcotest.check_raises "nested base rate"
    (Invalid_argument "Nested.create: base_rate must be positive") (fun () ->
      ignore (Mkc_sketch.Sampler.Nested.create ~base_rate:0.0 ~levels:2 ~indep:2 ~seed:s));
  Alcotest.check_raises "tabulation range"
    (Invalid_argument "Tabulation.hash: range must be >= 1") (fun () ->
      ignore (Mkc_baselines.Tabulation.hash (Mkc_baselines.Tabulation.create ~seed:s) 1 0));
  Alcotest.check_raises "splitmix below"
    (Invalid_argument "Splitmix.below: bound must be positive") (fun () ->
      ignore (Sm.below s 0));
  Alcotest.check_raises "dyadic bits"
    (Invalid_argument "Dyadic_hh.create: bits must be in [1, 30]") (fun () ->
      ignore (Mkc_baselines.Dyadic_hh.create ~bits:0 ~phi:0.5 ~seed:s ()));
  Alcotest.check_raises "sieve sizes"
    (Invalid_argument "Sieve.create: n and k must be >= 1") (fun () ->
      ignore (Mkc_baselines.Sieve.create ~n:0 ~k:1 ()));
  Alcotest.check_raises "superset partition q"
    (Invalid_argument "Superset_partition.create: q must be >= 1") (fun () ->
      ignore (Mkc_core.Superset_partition.create ~m:4 ~q:0 ~indep:2 ~seed:s));
  Alcotest.check_raises "universe reduction z"
    (Invalid_argument "Universe_reduction.create: z must be >= 1") (fun () ->
      ignore (Mkc_core.Universe_reduction.create ~z:0 ~seed:s))

let test_hll_merge_incompatible () =
  let a = Mkc_baselines.Hyperloglog.create ~seed:(Sm.create 1) () in
  let b = Mkc_baselines.Hyperloglog.create ~seed:(Sm.create 2) () in
  Alcotest.check_raises "different hashes rejected"
    (Invalid_argument "Hyperloglog.merge: sketches use different hash functions") (fun () ->
      ignore (Mkc_baselines.Hyperloglog.merge a b))

let test_stream_load_malformed () =
  let path = Filename.temp_file "mkc_bad" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "1 2\nbroken line here\n";
      close_out oc;
      checkb "malformed line raises Failure" true
        (try
           ignore (Mkc_stream.Stream_source.load path);
           false
         with Failure _ -> true))

(* ---------- words / structure accounting ---------- *)

let test_dyadic_words_scale_with_bits () =
  let words bits =
    Mkc_baselines.Dyadic_hh.words
      (Mkc_baselines.Dyadic_hh.create ~bits ~phi:0.25 ~seed:(Sm.create 3) ())
  in
  checkb "words grow linearly with bits" true
    (words 16 > words 8 && words 8 > words 4)

let test_large_common_estimates_match_levels () =
  let p = P.make ~m:128 ~n:256 ~k:4 ~alpha:8.0 ~seed:4 () in
  let lc = Mkc_core.Large_common.create p ~seed:(Sm.create 5) in
  (* levels = ceil_log2(8) + 1 = 4 *)
  checki "one estimate per sampling level" 4
    (List.length (Mkc_core.Large_common.coverage_estimates lc))

let test_guess_ladder_stride () =
  let practical = P.make ~m:4096 ~n:4096 ~k:4 ~alpha:8.0 () in
  let paper = P.make ~m:4096 ~n:4096 ~k:4 ~alpha:8.0 ~profile:P.Paper () in
  let count p = List.length (Mkc_core.Estimate.guesses (Mkc_core.Estimate.create p)) in
  checkb "paper ladder is denser" true (count paper > count practical)

(* ---------- misc behaviors ---------- *)

let test_mcgregor_vu_survives_dead_guesses () =
  (* small guesses die from the cap; finalize must still work *)
  let mv = Mkc_baselines.Mcgregor_vu.create ~m:64 ~n:4096 ~k:4 ~epsilon:0.3 ~seed:7 () in
  let sys = Mkc_workload.Random_inst.uniform ~n:4096 ~m:64 ~set_size:128 ~seed:8 in
  Array.iter (Mkc_baselines.Mcgregor_vu.feed mv) (Ss.edges sys);
  let r = Mkc_baselines.Mcgregor_vu.finalize mv in
  checkb "finalize total" true (r.Mkc_baselines.Mcgregor_vu.coverage >= 0.0)

let test_mv_set_arrival_empty () =
  let mva = Mkc_baselines.Mv_set_arrival.create ~k:3 () in
  let r = Mkc_baselines.Mv_set_arrival.result mva in
  checkb "empty result" true (r.Mkc_baselines.Mv_set_arrival.chosen = [])

let test_exact_on_empty_sets () =
  let s = Ss.create ~n:3 ~m:2 ~sets:[| [||]; [||] |] in
  checki "zero optimal" 0 (Mkc_baselines.Exact.run s ~k:2).coverage

let test_kmv_merge_respects_cap () =
  let a = Mkc_baselines.Kmv.create ~cap:8 ~seed:(Sm.create 9) () in
  let b = Mkc_baselines.Kmv.copy a in
  for x = 0 to 99 do
    Mkc_baselines.Kmv.add a x;
    Mkc_baselines.Kmv.add b (1000 + x)
  done;
  let m = Mkc_baselines.Kmv.merge a b in
  (* words = kept values + tables; kept must be <= cap *)
  checkb "merged kept within cap" true
    (Mkc_baselines.Kmv.words m <= Mkc_baselines.Kmv.words a + 8)

let test_nested_out_of_range_level () =
  let s =
    Mkc_sketch.Sampler.Nested.create ~base_rate:0.25 ~levels:2 ~indep:2 ~seed:(Sm.create 10)
  in
  Alcotest.check_raises "level out of range" (Invalid_argument "Nested: level out of range")
    (fun () -> ignore (Mkc_sketch.Sampler.Nested.keep s ~level:5 0))

let suite =
  [
    Alcotest.test_case "edge pp" `Quick test_edge_pp;
    Alcotest.test_case "system pp summary" `Quick test_system_pp_summary;
    Alcotest.test_case "params pp" `Quick test_params_pp;
    Alcotest.test_case "space pp bytes" `Quick test_space_pp_bytes;
    Alcotest.test_case "provenance pp variants" `Quick test_provenance_pp_variants;
    Alcotest.test_case "validation raises" `Quick test_validation_raises;
    Alcotest.test_case "hll merge incompatible" `Quick test_hll_merge_incompatible;
    Alcotest.test_case "stream load malformed" `Quick test_stream_load_malformed;
    Alcotest.test_case "dyadic words scale" `Quick test_dyadic_words_scale_with_bits;
    Alcotest.test_case "large-common level count" `Quick test_large_common_estimates_match_levels;
    Alcotest.test_case "guess ladder stride" `Quick test_guess_ladder_stride;
    Alcotest.test_case "mcgregor-vu dead guesses" `Quick test_mcgregor_vu_survives_dead_guesses;
    Alcotest.test_case "mv-set-arrival empty" `Quick test_mv_set_arrival_empty;
    Alcotest.test_case "exact on empty sets" `Quick test_exact_on_empty_sets;
    Alcotest.test_case "kmv merge cap" `Quick test_kmv_merge_respects_cap;
    Alcotest.test_case "nested out-of-range level" `Quick test_nested_out_of_range_level;
  ]
