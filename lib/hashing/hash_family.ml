let ceil_log2 x =
  if x <= 1 then 0
  else
    (* 2^62 overflows: past 2^61 every larger x needs 62 bits *)
    let rec go i acc =
      if acc >= x then i else if acc > max_int / 2 then i + 1 else go (i + 1) (acc * 2)
    in
    go 0 1

let log_mn_indep ~m ~n =
  let m = max 2 m and n = max 2 n in
  max 4 (ceil_log2 m + ceil_log2 n)

let sample_rate_range ~rate =
  if rate <= 0.0 then invalid_arg "Hash_family.sample_rate_range: rate <= 0";
  if rate >= 1.0 then 1 else max 1 (int_of_float (Float.round (1.0 /. rate)))

let ceil_div a b =
  if b <= 0 then invalid_arg "Hash_family.ceil_div: divisor must be positive";
  (a + b - 1) / b
