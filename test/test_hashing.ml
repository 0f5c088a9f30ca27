(* Unit and property tests for the hashing substrate. *)

module Pf = Mkc_hashing.Prime_field
module Sm = Mkc_hashing.Splitmix
module Ph = Mkc_hashing.Poly_hash
module Pw = Mkc_hashing.Pairwise
module Tab = Mkc_baselines.Tabulation
module Hf = Mkc_hashing.Hash_family

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- Splitmix ---------- *)

let test_splitmix_deterministic () =
  let a = Sm.create 42 and b = Sm.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Sm.next a) (Sm.next b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Sm.create 1 and b = Sm.create 2 in
  let all_equal = ref true in
  for _ = 1 to 16 do
    if not (Int64.equal (Sm.next a) (Sm.next b)) then all_equal := false
  done;
  checkb "different seeds diverge" false !all_equal

let test_splitmix_below_in_range () =
  let g = Sm.create 7 in
  for bound = 1 to 50 do
    for _ = 1 to 20 do
      let v = Sm.below g bound in
      checkb "0 <= v < bound" true (v >= 0 && v < bound)
    done
  done

let test_splitmix_below_hits_all_residues () =
  let g = Sm.create 11 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Sm.below g 8) <- true
  done;
  checkb "all residues of [0,8) reached" true (Array.for_all Fun.id seen)

let test_splitmix_fork_reproducible () =
  let g = Sm.create 5 in
  let a = Sm.fork g 3 and b = Sm.fork g 3 in
  check Alcotest.int64 "fork deterministic" (Sm.next a) (Sm.next b)

let test_splitmix_fork_distinct () =
  let g = Sm.create 5 in
  let a = Sm.fork g 0 and b = Sm.fork g 1 in
  checkb "fork children distinct" false (Int64.equal (Sm.next a) (Sm.next b))

let test_splitmix_next_int_nonneg () =
  let g = Sm.create 9 in
  for _ = 1 to 200 do
    checkb "non-negative" true (Sm.next_int g >= 0)
  done

(* ---------- Prime field ---------- *)

let test_field_mul_matches_reference () =
  let g = Sm.create 2024 in
  for _ = 1 to 2000 do
    let a = Pf.normalize (Sm.next_int g) and b = Pf.normalize (Sm.next_int g) in
    checki "mul = reference" (Pf.mul_reference a b) (Pf.mul a b)
  done

let test_field_mul_edge_cases () =
  let p = Pf.p in
  checki "0 * x" 0 (Pf.mul 0 12345);
  checki "1 * x" 12345 (Pf.mul 1 12345);
  checki "(p-1)^2" (Pf.mul_reference (p - 1) (p - 1)) (Pf.mul (p - 1) (p - 1));
  checki "(p-1) * 1" (p - 1) (Pf.mul (p - 1) 1)

let test_field_add_sub_inverse () =
  let g = Sm.create 3 in
  for _ = 1 to 500 do
    let a = Pf.normalize (Sm.next_int g) and b = Pf.normalize (Sm.next_int g) in
    checki "(a + b) - b = a" a (Pf.sub (Pf.add a b) b)
  done

let test_field_inv () =
  let g = Sm.create 4 in
  for _ = 1 to 100 do
    let a = 1 + Sm.below g (Pf.p - 1) in
    checki "a * a^-1 = 1" 1 (Pf.mul a (Pf.inv a))
  done;
  Alcotest.check_raises "inv 0 raises"
    (Invalid_argument "Prime_field.inv: zero has no inverse") (fun () -> ignore (Pf.inv 0))

let test_field_pow () =
  checki "2^10" 1024 (Pf.pow 2 10);
  checki "x^0" 1 (Pf.pow 98765 0);
  (* Fermat: a^(p-1) = 1 *)
  checki "fermat" 1 (Pf.pow 31337 (Pf.p - 1))

let test_field_normalize () =
  checki "negative wraps" (Pf.p - 1) (Pf.normalize (-1));
  checki "p wraps to 0" 0 (Pf.normalize Pf.p);
  checki "id below p" 17 (Pf.normalize 17)

(* QCheck: algebraic laws of the field. *)
let field_elt = QCheck.map (fun x -> Pf.normalize x) QCheck.(map abs QCheck.int)

let prop_mul_commutative =
  QCheck.Test.make ~name:"field mul commutative" ~count:300
    (QCheck.pair field_elt field_elt)
    (fun (a, b) -> Pf.mul a b = Pf.mul b a)

let prop_mul_associative =
  QCheck.Test.make ~name:"field mul associative" ~count:300
    (QCheck.triple field_elt field_elt field_elt)
    (fun (a, b, c) -> Pf.mul a (Pf.mul b c) = Pf.mul (Pf.mul a b) c)

let prop_distributive =
  QCheck.Test.make ~name:"field distributivity" ~count:300
    (QCheck.triple field_elt field_elt field_elt)
    (fun (a, b, c) -> Pf.mul a (Pf.add b c) = Pf.add (Pf.mul a b) (Pf.mul a c))

(* ---------- Poly hash ---------- *)

let test_poly_hash_range () =
  let g = Sm.create 21 in
  let h = Ph.create ~indep:4 ~range:97 ~seed:g in
  for x = 0 to 2000 do
    let v = Ph.hash h x in
    checkb "in range" true (v >= 0 && v < 97)
  done

let test_poly_hash_deterministic () =
  let h = Ph.create ~indep:6 ~range:1000 ~seed:(Sm.create 8) in
  for x = 0 to 100 do
    checki "stable" (Ph.hash h x) (Ph.hash h x)
  done

let test_poly_hash_uniformity () =
  (* χ²-style sanity: bucket counts of 20k keys into 16 buckets. *)
  let h = Ph.create ~indep:4 ~range:16 ~seed:(Sm.create 33) in
  let counts = Array.make 16 0 in
  for x = 0 to 19_999 do
    let b = Ph.hash h x in
    counts.(b) <- counts.(b) + 1
  done;
  let expected = 20_000 / 16 in
  Array.iter
    (fun c ->
      checkb "bucket within 20% of uniform" true
        (float_of_int (abs (c - expected)) < 0.2 *. float_of_int expected))
    counts

let test_poly_hash_keep_rate () =
  let h = Ph.create ~indep:8 ~range:64 ~seed:(Sm.create 77) in
  let kept = ref 0 in
  let total = 64_000 in
  for x = 0 to total - 1 do
    if Ph.keep h x then incr kept
  done;
  let expected = total / 64 in
  checkb "keep rate ~ 1/range" true (abs (!kept - expected) < expected / 2)

let test_poly_hash_pairwise_collisions () =
  (* Pairwise independence: collision probability over the FUNCTION draw
     is 1/range; average over many functions, one random pair each.
     (Within one degree-1 function, consecutive-pair collisions are
     fully correlated — h(x+1) − h(x) is the constant c₁ — so the
     average must be over the family, not over pairs.) *)
  let rng = Sm.create 99 in
  let collisions = ref 0 in
  let trials = 4_096 in
  for t = 0 to trials - 1 do
    let h = Ph.create ~indep:2 ~range:64 ~seed:(Sm.fork rng t) in
    let x = Sm.below rng 1_000_000 and y = 1_000_000 + Sm.below rng 1_000_000 in
    if Ph.hash h x = Ph.hash h y then incr collisions
  done;
  let expected = trials / 64 in
  checkb "pair collision rate ~ 1/64" true (abs (!collisions - expected) < expected)

let test_poly_hash_words () =
  let h = Ph.create ~indep:5 ~range:10 ~seed:(Sm.create 1) in
  checki "words = indep + 1" 6 (Ph.words h);
  checki "indep accessor" 5 (Ph.indep h);
  checki "range accessor" 10 (Ph.range h)

let test_poly_hash_validation () =
  Alcotest.check_raises "indep 0 rejected"
    (Invalid_argument "Poly_hash.create: indep must be >= 1") (fun () ->
      ignore (Ph.create ~indep:0 ~range:4 ~seed:(Sm.create 0)));
  Alcotest.check_raises "range 0 rejected"
    (Invalid_argument "Poly_hash.create: range must be >= 1") (fun () ->
      ignore (Ph.create ~indep:2 ~range:0 ~seed:(Sm.create 0)))

(* ---------- Pairwise ---------- *)

let test_pairwise_range_and_sign () =
  let h = Pw.create ~range:31 ~seed:(Sm.create 6) in
  for x = 0 to 500 do
    let v = Pw.hash h x in
    checkb "in range" true (v >= 0 && v < 31);
    let s = Pw.sign h x in
    checkb "sign is ±1" true (s = 1 || s = -1)
  done

let test_pairwise_sign_balance () =
  let h = Pw.create ~range:2 ~seed:(Sm.create 123) in
  let pos = ref 0 in
  let total = 10_000 in
  for x = 0 to total - 1 do
    if Pw.sign h x = 1 then incr pos
  done;
  checkb "signs roughly balanced" true (abs (!pos - (total / 2)) < total / 10)

(* ---------- Tabulation ---------- *)

let test_tabulation_deterministic () =
  let t = Tab.create ~seed:(Sm.create 55) in
  for x = 0 to 100 do
    check Alcotest.int64 "stable" (Tab.hash64 t x) (Tab.hash64 t x)
  done

let test_tabulation_range () =
  let t = Tab.create ~seed:(Sm.create 56) in
  for x = 0 to 1000 do
    let v = Tab.hash t x 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_tabulation_unit_float () =
  let t = Tab.create ~seed:(Sm.create 57) in
  for x = 0 to 2000 do
    let f = Tab.to_unit_float t x in
    checkb "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_tabulation_distinct_keys_distinct_hashes () =
  (* 64-bit outputs: collisions among 10k keys are overwhelmingly unlikely. *)
  let t = Tab.create ~seed:(Sm.create 58) in
  let seen = Hashtbl.create 10_000 in
  let collisions = ref 0 in
  for x = 0 to 9_999 do
    let h = Tab.hash64 t x in
    if Hashtbl.mem seen h then incr collisions else Hashtbl.replace seen h ()
  done;
  checki "no collisions" 0 !collisions

let test_tabulation_uniformity () =
  let t = Tab.create ~seed:(Sm.create 59) in
  let counts = Array.make 8 0 in
  for x = 0 to 15_999 do
    counts.(Tab.hash t x 8) <- counts.(Tab.hash t x 8) + 1
  done;
  Array.iter
    (fun c -> checkb "bucket within 15% of uniform" true (abs (c - 2000) < 300))
    counts

(* ---------- Hash_family helpers ---------- *)

let test_ceil_log2 () =
  checki "1 -> 0" 0 (Hf.ceil_log2 1);
  checki "2 -> 1" 1 (Hf.ceil_log2 2);
  checki "3 -> 2" 2 (Hf.ceil_log2 3);
  checki "1024 -> 10" 10 (Hf.ceil_log2 1024);
  checki "1025 -> 11" 11 (Hf.ceil_log2 1025);
  checki "0 -> 0" 0 (Hf.ceil_log2 0);
  checki "2^61 -> 61" 61 (Hf.ceil_log2 (1 lsl 61));
  checki "max_int -> 62 (no doubling past the top bit)" 62 (Hf.ceil_log2 max_int)

let prop_ceil_log2_spec =
  QCheck.Test.make ~name:"ceil_log2 spec" ~count:500
    QCheck.(int_range 1 (1 lsl 40))
    (fun x ->
      let i = Hf.ceil_log2 x in
      (1 lsl i) >= x && (i = 0 || 1 lsl (i - 1) < x))

let test_ceil_div () =
  checki "7/2" 4 (Hf.ceil_div 7 2);
  checki "8/2" 4 (Hf.ceil_div 8 2);
  checki "0/5" 0 (Hf.ceil_div 0 5)

let prop_ceil_div_spec =
  QCheck.Test.make ~name:"ceil_div spec" ~count:500
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 1000))
    (fun (a, b) ->
      let q = Hf.ceil_div a b in
      (q * b) >= a && ((q - 1) * b) < a)

let test_log_mn_indep () =
  checkb "at least 4" true (Hf.log_mn_indep ~m:2 ~n:2 >= 4);
  checkb "grows with m,n" true (Hf.log_mn_indep ~m:1024 ~n:1024 >= 20)

let test_sample_rate_range () =
  checki "rate 1 -> range 1" 1 (Hf.sample_rate_range ~rate:1.0);
  checki "rate 1/8 -> 8" 8 (Hf.sample_rate_range ~rate:0.125);
  Alcotest.check_raises "rate 0 rejected"
    (Invalid_argument "Hash_family.sample_rate_range: rate <= 0") (fun () ->
      ignore (Hf.sample_rate_range ~rate:0.0))

(* Horner against the definition: Σ c_i x^i with [mul_reference] and
   plain addition mod p, the coefficients redrawn from the same seed as
   [create] draws them.  Range 2^61 masks nothing (field values are
   below p < 2^61), so the raw field value is compared; a prime range
   checks the mod path. *)
(* [hash_batch] picks its multiply per block — a block whose keys all
   lie in [0, 2^31) takes the two-product kernel, any other block the
   general one — so each kind of block is its own case: all small
   (placed at an offset among large keys, which it must not look at),
   all at or above 2^31, mixed, and negative. *)
let prop_poly_hash_is_the_polynomial =
  QCheck.Test.make ~name:"poly hash = Σ c_i x^i (hash and hash_batch)" ~count:200
    QCheck.(triple (int_range 1 8) (int_bound 1_000_000) (int_bound (Pf.p - 1)))
    (fun (indep, seed, r) ->
      let small = [| 0; 1; (1 lsl 31) - 1; r land 0x7FFF_FFFF; r mod 1000 |] in
      let large = [| 1 lsl 31; Pf.p - 2; Pf.p - 1; Pf.p; max_int; r lor (1 lsl 31) |] in
      let negative = [| -1; -(1 lsl 31); min_int; -r - 1 |] in
      let coeffs =
        let g = Sm.create seed in
        Array.init indep (fun _ -> Pf.normalize (Sm.next_int g))
      in
      let naive x =
        let x = Pf.normalize x in
        let acc = ref 0 and pw = ref 1 in
        Array.iter
          (fun c ->
            acc := (!acc + Pf.mul_reference c !pw) mod Pf.p;
            pw := Pf.mul_reference !pw x)
          coeffs;
        !acc
      in
      List.for_all
        (fun range ->
          let h = Ph.create ~indep ~range ~seed:(Sm.create seed) in
          List.for_all
            (fun (xs, pos, len) ->
              let want = Array.init len (fun j -> naive xs.(pos + j) mod range) in
              let out = Array.make len (-1) in
              Ph.hash_batch h xs ~pos ~len out;
              Array.init len (fun j -> Ph.hash h xs.(pos + j)) = want && out = want)
            [
              (Array.concat [ large; small; large ], Array.length large, Array.length small);
              (large, 0, Array.length large);
              (Array.append small large, 0, Array.length small + Array.length large);
              (negative, 0, Array.length negative);
            ])
        [ 1 lsl 61; 1_000_003 ])

(* [Pairwise] against the affine map it promises, built from the
   reference multiply, with (a, b) drawn as [Pairwise.create] draws
   them: keys on both sides of 2^31 and negative ones. *)
let prop_pairwise_is_affine =
  QCheck.Test.make ~name:"pairwise hash/sign = (a·x + b mod p)" ~count:200
    QCheck.(pair (int_bound 1_000_000) int)
    (fun (seed, r) ->
      let g = Sm.create seed in
      let a = 1 + Sm.below g (Pf.p - 1) in
      let b = Sm.below g Pf.p in
      List.for_all
        (fun range ->
          let h = Pw.create ~range ~seed:(Sm.create seed) in
          List.for_all
            (fun x ->
              let v = Pf.add (Pf.mul_reference a (Pf.normalize x)) b in
              Pw.hash h x = v mod range && Pw.sign h x = if v land 1 = 0 then 1 else -1)
            [ 0; 1; (1 lsl 31) - 1; 1 lsl 31; Pf.p - 1; -1; r; r land 0x7FFF_FFFF ])
        [ 1 lsl 20; 1_000_003 ])

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_mul_commutative; prop_mul_associative; prop_distributive;
    prop_ceil_log2_spec; prop_ceil_div_spec; prop_poly_hash_is_the_polynomial;
    prop_pairwise_is_affine ]

let suite =
  [
    Alcotest.test_case "splitmix deterministic" `Quick test_splitmix_deterministic;
    Alcotest.test_case "splitmix seed sensitivity" `Quick test_splitmix_seed_sensitivity;
    Alcotest.test_case "splitmix below in range" `Quick test_splitmix_below_in_range;
    Alcotest.test_case "splitmix below covers residues" `Quick test_splitmix_below_hits_all_residues;
    Alcotest.test_case "splitmix fork reproducible" `Quick test_splitmix_fork_reproducible;
    Alcotest.test_case "splitmix fork distinct" `Quick test_splitmix_fork_distinct;
    Alcotest.test_case "splitmix next_int nonneg" `Quick test_splitmix_next_int_nonneg;
    Alcotest.test_case "field mul matches reference" `Quick test_field_mul_matches_reference;
    Alcotest.test_case "field mul edge cases" `Quick test_field_mul_edge_cases;
    Alcotest.test_case "field add/sub inverse" `Quick test_field_add_sub_inverse;
    Alcotest.test_case "field inverse" `Quick test_field_inv;
    Alcotest.test_case "field pow" `Quick test_field_pow;
    Alcotest.test_case "field normalize" `Quick test_field_normalize;
    Alcotest.test_case "poly hash range" `Quick test_poly_hash_range;
    Alcotest.test_case "poly hash deterministic" `Quick test_poly_hash_deterministic;
    Alcotest.test_case "poly hash uniformity" `Quick test_poly_hash_uniformity;
    Alcotest.test_case "poly hash keep rate" `Quick test_poly_hash_keep_rate;
    Alcotest.test_case "poly hash pairwise collisions" `Quick test_poly_hash_pairwise_collisions;
    Alcotest.test_case "poly hash words" `Quick test_poly_hash_words;
    Alcotest.test_case "poly hash validation" `Quick test_poly_hash_validation;
    Alcotest.test_case "pairwise range and sign" `Quick test_pairwise_range_and_sign;
    Alcotest.test_case "pairwise sign balance" `Quick test_pairwise_sign_balance;
    Alcotest.test_case "tabulation deterministic" `Quick test_tabulation_deterministic;
    Alcotest.test_case "tabulation range" `Quick test_tabulation_range;
    Alcotest.test_case "tabulation unit float" `Quick test_tabulation_unit_float;
    Alcotest.test_case "tabulation collision-free on 10k" `Quick
      test_tabulation_distinct_keys_distinct_hashes;
    Alcotest.test_case "tabulation uniformity" `Quick test_tabulation_uniformity;
    Alcotest.test_case "ceil_log2" `Quick test_ceil_log2;
    Alcotest.test_case "ceil_div" `Quick test_ceil_div;
    Alcotest.test_case "log_mn_indep" `Quick test_log_mn_indep;
    Alcotest.test_case "sample_rate_range" `Quick test_sample_rate_range;
  ]
  @ qsuite
