type profile = Paper | Practical

type t = {
  m : int;
  n : int;
  u : int;
  k : int;
  alpha : float;
  profile : profile;
  eta : float;
  w : int;
  s : float;
  f : float;
  sigma : float;
  t_elem : float;
  indep : int;
  oracle_repeats : int;
  z_repeats : int;
  accept_factor : float;
  z_stride : int;
  base_seed : int;
}

let log2f x = max 1.0 (Float.log2 (float_of_int (max 2 x)))

let derive ~m ~n ~k ~alpha ~profile ~seed =
  let eta = 4.0 in
  let w = min k (max 1 (int_of_float (Float.round alpha))) in
  let lmn = log2f (m * max 1 n) in
  let s =
    match profile with
    | Paper ->
        (* Table 2: s = 9 / (5000 √(2η log(sα)) log²(mn)) · w/α; the
           log(sα) inside the root is approximated by log α (the paper
           treats it as a fixed polylog). *)
        let la = max 1.0 (Float.log2 alpha) in
        9.0 /. (5000.0 *. sqrt (2.0 *. eta *. la) *. lmn *. lmn) *. (float_of_int w /. alpha)
    | Practical ->
        (* keep s·α = w/2, i.e. "large" sets contribute ≥ 2z/w. *)
        0.5 *. float_of_int w /. alpha
  in
  let f = match profile with Paper -> 7.0 *. lmn | Practical -> 2.0 in
  let sigma =
    match profile with Paper -> 1.0 /. (2500.0 *. lmn *. lmn) | Practical -> 0.5
  in
  let t_elem =
    match profile with Paper -> 5000.0 *. lmn *. lmn /. s | Practical -> 8.0
  in
  let indep =
    match profile with
    | Paper -> Mkc_hashing.Hash_family.log_mn_indep ~m ~n
    | Practical -> min 8 (Mkc_hashing.Hash_family.log_mn_indep ~m ~n)
  in
  let oracle_repeats =
    match profile with
    | Paper -> max 1 (int_of_float (Float.ceil (log2f n)))
    | Practical -> 2
  in
  let z_repeats = match profile with Paper -> 5 | Practical -> 2 in
  let z_stride = match profile with Paper -> 1 | Practical -> 2 in
  let accept_factor = match profile with Paper -> 4.0 | Practical -> 64.0 in
  {
    m;
    n;
    u = n;
    k;
    alpha;
    profile;
    eta;
    w;
    s;
    f;
    sigma;
    t_elem;
    indep;
    oracle_repeats;
    z_repeats;
    accept_factor;
    z_stride;
    base_seed = seed;
  }

let make ~m ~n ~k ~alpha ?(profile = Practical) ?(seed = 0xC0FFEE) () =
  if n < 1 then invalid_arg "Params.make: n must be >= 1";
  if m < 1 then invalid_arg "Params.make: m must be >= 1";
  if k < 1 || k > m then invalid_arg "Params.make: k must be in [1, m]";
  if not (alpha >= 1.0) then invalid_arg "Params.make: alpha must be >= 1";
  if alpha = Float.infinity then invalid_arg "Params.make: alpha must be finite";
  derive ~m ~n ~k ~alpha ~profile ~seed

let with_universe t u =
  if u < 1 then invalid_arg "Params.with_universe: u must be >= 1";
  { t with u }

let s_alpha t = t.s *. t.alpha

(* Only the make-inputs travel: every derived quantity is a pure
   function of them, so re-deriving on decode keeps checkpoints valid
   across constant recalibrations (the checksum still pins bytes; the
   semantics are pinned by the inputs).  Alpha travels as its IEEE
   bits, so it round-trips exactly. *)
let put w t =
  let module Pk = Mkc_sketch.Packed in
  List.iter (Pk.put w) [ t.m; t.n; t.u; t.k ];
  Pk.put_int64 w (Int64.bits_of_float t.alpha);
  Pk.put w (match t.profile with Practical -> 0 | Paper -> 1);
  Pk.put w t.base_seed

let get r =
  let module Pk = Mkc_sketch.Packed in
  let m = Pk.get r in
  let n = Pk.get r in
  let u = Pk.get r in
  let k = Pk.get r in
  let alpha = Int64.float_of_bits (Pk.get_int64 r) in
  let profile = if Pk.get_below r 2 = 0 then Practical else Paper in
  let seed = Pk.get r in
  match with_universe (make ~m ~n ~k ~alpha ~profile ~seed ()) u with
  | p -> p
  | exception Invalid_argument msg -> Pk.fail r "params: %s" msg

let same_instance a b =
  a.m = b.m && a.n = b.n && a.u = b.u && a.k = b.k && a.alpha = b.alpha
  && a.profile = b.profile && a.base_seed = b.base_seed

let pp ppf t =
  Format.fprintf ppf
    "params{m=%d n=%d u=%d k=%d α=%.2f %s η=%.0f w=%d s=%.4g f=%.2f σ=%.4g t=%.4g indep=%d}"
    t.m t.n t.u t.k t.alpha
    (match t.profile with Paper -> "paper" | Practical -> "practical")
    t.eta t.w t.s t.f t.sigma t.t_elem t.indep
