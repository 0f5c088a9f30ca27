(* Tests for Mkc_obs.Histogram, the log-linear latency histogram.

   The load-bearing claims:
     1. merge is a commutative monoid with create() as identity, and a
        merge of shards equals one sequential history — the law the
        registry's per-domain shard merge relies on;
     2. bucketing is exact below 16 and within 1/16 relative error
        above, with inclusive bucket bounds consistent between
        bucket_of and bound_of_bucket;
     3. the ceil-rank quantile definition is the single shared one:
        digests, bucketed quantiles, and Telemetry.summarize agree on
        the same data (bucketed answers within the bucket-width error);
     4. the JSON and Prometheus encodings are byte-stable and the JSON
        round-trips, with tampered payloads rejected by name;
     5. record allocates nothing — the hot ingestion paths call it per
        chunk, so a regression here is a perf regression everywhere. *)

module H = Mkc_obs.Histogram

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let hist_of values =
  let h = H.create () in
  List.iter (H.record h) values;
  h

let hist_eq (a : H.t) (b : H.t) =
  a.H.count = b.H.count
  && a.H.sum = b.H.sum
  && a.H.buckets = b.H.buckets
  && (a.H.count = 0 || (a.H.vmin = b.H.vmin && a.H.vmax = b.H.vmax))

(* --- bucket geometry --- *)

let test_bucket_bounds_consistent () =
  (* Every bucket's inclusive bound maps back into the bucket, and the
     next value maps past it — over the exact range, both seams, and a
     spread of large octaves. *)
  let probes =
    [ 0; 1; 15; 16; 17; 31; 32; 33; 255; 256; 1000; 65535; 1_000_000; max_int / 2 ]
  in
  List.iter
    (fun v ->
      let i = H.bucket_of v in
      checkb (Printf.sprintf "bound of bucket %d covers %d" i v) true
        (v <= H.bound_of_bucket i);
      checki
        (Printf.sprintf "bound of bucket %d maps back to it" i)
        i
        (H.bucket_of (H.bound_of_bucket i));
      checkb
        (Printf.sprintf "value past bucket %d's bound leaves it" i)
        true
        (H.bound_of_bucket i = max_int || H.bucket_of (H.bound_of_bucket i + 1) > i))
    probes;
  checkb "all probes stay inside the bucket array" true
    (List.for_all (fun v -> H.bucket_of v < H.num_buckets) probes)

let test_relative_error_bound () =
  (* The headline accuracy claim: any value's bucket bound overshoots
     it by at most 1/sub_buckets. *)
  let worst = ref 0.0 in
  for e = 4 to 40 do
    let base = 1 lsl e in
    List.iter
      (fun v ->
        let err =
          float_of_int (H.bound_of_bucket (H.bucket_of v) - v) /. float_of_int v
        in
        if err > !worst then worst := err)
      [ base; base + 1; base + (base / 3); (2 * base) - 1 ]
  done;
  checkb "bucket bound within 1/16 of the value" true
    (!worst <= 1.0 /. float_of_int H.sub_buckets)

(* --- monoid laws --- *)

let test_monoid_laws () =
  let xs = [ 0; 5; 17; 300 ] and ys = [ 16; 16; 9999 ] and zs = [ 1_000_000 ] in
  let a () = hist_of xs and b () = hist_of ys and c () = hist_of zs in
  let zero () = H.create () in
  checkb "left identity" true (hist_eq (H.merge (zero ()) (a ())) (a ()));
  checkb "right identity" true (hist_eq (H.merge (a ()) (zero ())) (a ()));
  checkb "commutative" true
    (hist_eq (H.merge (a ()) (b ())) (H.merge (b ()) (a ())));
  checkb "associative" true
    (hist_eq
       (H.merge (H.merge (a ()) (b ())) (c ()))
       (H.merge (a ()) (H.merge (b ()) (c ()))));
  checkb "merge equals one sequential history" true
    (hist_eq (H.merge (a ()) (b ())) (hist_of (xs @ ys)));
  let dst = a () in
  H.merge_into ~dst (b ());
  checkb "merge_into agrees with merge" true (hist_eq dst (hist_of (xs @ ys)));
  let h = hist_of xs in
  H.clear h;
  checkb "clear returns to the identity" true (hist_eq h (zero ()))

let prop_merge_commutes =
  let gen = QCheck.Gen.(pair (list_size (int_range 0 40) (int_range 0 100000))
                          (list_size (int_range 0 40) (int_range 0 100000))) in
  let arb = QCheck.make ~print:QCheck.Print.(pair (list int) (list int)) gen in
  QCheck.Test.make ~name:"histogram merge ≡ concatenated history (random)" ~count:50
    arb (fun (xs, ys) ->
      hist_eq (H.merge (hist_of xs) (hist_of ys)) (hist_of (xs @ ys))
      && hist_eq (H.merge (hist_of xs) (hist_of ys)) (H.merge (hist_of ys) (hist_of xs)))

(* --- the one ceil-rank quantile definition --- *)

let test_ceil_rank () =
  checki "median rank of 4" 2 (H.ceil_rank 0.5 4);
  checki "median rank of 5" 3 (H.ceil_rank 0.5 5);
  checki "p99 of 100 is the 99th" 99 (H.ceil_rank 0.99 100);
  checki "rank clamps at n" 10 (H.ceil_rank 1.5 10);
  checki "rank clamps at 1" 1 (H.ceil_rank 0.0 7)

let test_quantile_matches_telemetry () =
  (* The dedup claim: Telemetry.summarize ranks raw sorted samples with
     Histogram.quantile_sorted (pinned here at its ceil ranks), and the
     bucketed Histogram.quantile answers within the bucket-width error
     (exactly, below 16). *)
  let samples = [| 1; 2; 3; 5; 8; 13; 400; 400; 65000; 1_000_000 |] in
  List.iter
    (fun (q, expected) ->
      let exact = H.quantile_sorted samples q in
      checki (Printf.sprintf "ceil-rank quantile at q=%g" q) expected exact;
      let bucketed = H.quantile (hist_of (Array.to_list samples)) q in
      checkb
        (Printf.sprintf "bucketed quantile within 1/16 at q=%g" q)
        true
        (bucketed >= exact
        && float_of_int (bucketed - exact)
           <= float_of_int exact /. float_of_int H.sub_buckets))
    [ (0.5, 8); (0.9, 65000); (0.99, 1_000_000); (0.999, 1_000_000); (1.0, 1_000_000) ];
  checki "exact below 16" 3
    (H.quantile (hist_of [ 1; 2; 3; 4; 5 ]) 0.5)

let test_digest () =
  let h = hist_of [ 1; 2; 3; 5; 8; 13; 400; 400; 65000; 1_000_000 ] in
  let d = H.digest h in
  checki "count" 10 d.H.d_count;
  checki "min" 1 d.H.d_min;
  checki "max" 1_000_000 d.H.d_max;
  checkb "quantiles monotone" true
    (d.H.d_p50 <= d.H.d_p90 && d.H.d_p90 <= d.H.d_p99 && d.H.d_p99 <= d.H.d_p999);
  checkb "p999 capped at max" true (d.H.d_p999 <= d.H.d_max);
  let e = H.digest (H.create ()) in
  checkb "empty digest is all zero" true
    (e = { H.d_count = 0; d_sum = 0; d_min = 0; d_max = 0; d_p50 = 0; d_p90 = 0;
           d_p99 = 0; d_p999 = 0 })

(* --- encodings --- *)

let test_json_golden_round_trip () =
  let h = hist_of [ 3; 20; 20 ] in
  let s = Mkc_obs.Json.to_string (H.to_json h) in
  checks "byte-stable JSON emission"
    "{\"count\":3,\"sum\":43,\"min\":3,\"max\":20,\"buckets\":[[3,1],[20,2]]}" s;
  (match Result.bind (Mkc_obs.Json.parse s) H.of_json with
  | Error e -> Alcotest.failf "histogram round trip: %s" e
  | Ok h' -> checkb "round trip preserves the histogram" true (hist_eq h h'));
  let d = H.digest h in
  checks "byte-stable digest emission"
    "{\"count\":3,\"sum\":43,\"min\":3,\"max\":20,\"p50\":20,\"p90\":20,\"p99\":20,\"p999\":20}"
    (Mkc_obs.Json.to_string (H.digest_to_json d));
  match Result.bind (Mkc_obs.Json.parse (Mkc_obs.Json.to_string (H.digest_to_json d)))
          H.digest_of_json with
  | Error e -> Alcotest.failf "digest round trip: %s" e
  | Ok d' -> checkb "digest round trip" true (d = d')

let test_json_rejections () =
  let reject what s =
    match Result.bind (Mkc_obs.Json.parse s) H.of_json with
    | Ok _ -> Alcotest.failf "of_json accepted %s" what
    | Error _ -> ()
  in
  reject "bucket counts that do not sum to count"
    "{\"count\":3,\"sum\":43,\"min\":3,\"max\":20,\"buckets\":[[3,1],[20,1]]}";
  reject "an out-of-range bucket index"
    "{\"count\":1,\"sum\":1,\"min\":1,\"max\":1,\"buckets\":[[9999,1]]}";
  reject "a negative bucket count"
    "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[[1,-1]]}";
  let reject_digest what s =
    match Result.bind (Mkc_obs.Json.parse s) H.digest_of_json with
    | Ok _ -> Alcotest.failf "digest_of_json accepted %s" what
    | Error _ -> ()
  in
  reject_digest "a negative count"
    "{\"count\":-1,\"sum\":0,\"min\":0,\"max\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0}";
  reject_digest "min above max"
    "{\"count\":1,\"sum\":5,\"min\":9,\"max\":5,\"p50\":5,\"p90\":5,\"p99\":5,\"p999\":5}";
  reject_digest "non-monotone quantiles"
    "{\"count\":2,\"sum\":10,\"min\":1,\"max\":9,\"p50\":9,\"p90\":3,\"p99\":9,\"p999\":9}"

let test_prometheus_golden () =
  let h = hist_of [ 3; 20; 20; 300 ] in
  checks "byte-stable Prometheus exposition"
    "# TYPE lat histogram\n\
     lat_bucket{le=\"3\"} 1\n\
     lat_bucket{le=\"20\"} 3\n\
     lat_bucket{le=\"303\"} 4\n\
     lat_bucket{le=\"+Inf\"} 4\n\
     lat_sum 343\n\
     lat_count 4\n"
    (H.prometheus ~name:"lat" h)

(* --- allocation: record is free --- *)

let test_record_allocates_nothing () =
  (* Same GC-meter idiom as test_alloc.ml: warm up, then measure a full
     pass.  The budget is one word per 1000 records — effectively zero,
     absorbing only the boxed floats Gc.minor_words itself returns. *)
  let n = 65536 in
  let values =
    let s = Mkc_hashing.Splitmix.create 99 in
    Array.init n (fun _ -> Mkc_hashing.Splitmix.next_int s land 0xFFFF_FFFF)
  in
  let h = H.create () in
  let pass () =
    for i = 0 to n - 1 do
      H.record h (Array.unsafe_get values i)
    done
  in
  pass ();
  Gc.full_major ();
  let before = Gc.minor_words () in
  pass ();
  let after = Gc.minor_words () in
  let per_record = (after -. before) /. float_of_int n in
  if per_record > 0.001 then
    Alcotest.failf "record allocates %.5f minor words per call (budget 0.001)"
      per_record

let suite =
  [
    Alcotest.test_case "bucket bounds are consistent and inclusive" `Quick
      test_bucket_bounds_consistent;
    Alcotest.test_case "relative error bounded by 1/16" `Quick
      test_relative_error_bound;
    Alcotest.test_case "merge monoid laws" `Quick test_monoid_laws;
    Alcotest.test_case "ceil-rank definition" `Quick test_ceil_rank;
    Alcotest.test_case "quantiles agree with Telemetry.summarize's" `Quick
      test_quantile_matches_telemetry;
    Alcotest.test_case "digest fields and monotonicity" `Quick test_digest;
    Alcotest.test_case "JSON golden + round trip" `Quick test_json_golden_round_trip;
    Alcotest.test_case "JSON rejections" `Quick test_json_rejections;
    Alcotest.test_case "Prometheus golden exposition" `Quick test_prometheus_golden;
    Alcotest.test_case "record is allocation-free" `Quick
      test_record_allocates_nothing;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_merge_commutes ]
