module Bernoulli = struct
  type t = { hash : Mkc_hashing.Poly_hash.t; mutable hbuf : int array }

  let create ~rate ~indep ~seed =
    let range = Mkc_hashing.Hash_family.sample_rate_range ~rate in
    { hash = Mkc_hashing.Poly_hash.create ~indep ~range ~seed; hbuf = [||] }

  let keep t x = Mkc_hashing.Poly_hash.keep t.hash x

  let keep_batch t xs ~pos ~len out =
    if Array.length out < len then invalid_arg "Bernoulli.keep_batch: out too short";
    if Array.length t.hbuf < len then
      t.hbuf <- Array.make (max len (2 * Array.length t.hbuf)) 0;
    Mkc_hashing.Poly_hash.hash_batch t.hash xs ~pos ~len t.hbuf;
    for j = 0 to len - 1 do
      Array.unsafe_set out j (Array.unsafe_get t.hbuf j = 0)
    done

  let rate t = 1.0 /. float_of_int (Mkc_hashing.Poly_hash.range t.hash)
  let words t = Mkc_hashing.Poly_hash.words t.hash
end

module Nested = struct
  type t = { hash : Mkc_hashing.Poly_hash.t; base_range : int; levels : int }

  let create ~base_rate ~levels ~indep ~seed =
    if levels < 1 then invalid_arg "Nested.create: levels must be >= 1";
    if base_rate <= 0.0 then invalid_arg "Nested.create: base_rate must be positive";
    (* Round the base rate down to a reciprocal power of two so that
       level ranges nest exactly. *)
    let base_range =
      if base_rate >= 1.0 then 1
      else begin
        let r = ref 1 in
        while 1.0 /. float_of_int (!r * 2) >= base_rate do
          r := !r * 2
        done;
        !r
      end
    in
    { hash = Mkc_hashing.Poly_hash.create ~indep ~range:base_range ~seed; base_range; levels }

  let range_at t level =
    if level < 0 || level >= t.levels then invalid_arg "Nested: level out of range";
    max 1 (t.base_range lsr level)

  let keep t ~level x = Mkc_hashing.Poly_hash.hash t.hash x mod range_at t level = 0

  (* Top-level with every free variable a parameter: a local [let rec]
     capturing [t] and [h] heap-allocates a closure per call without
     flambda, and this sits on the per-edge decide path. *)
  let rec code_loop base_range levels h level =
    if level >= levels then -1
      (* [base_range] is a power of two by construction, so each level's
         range is too: the [mod] is a mask ([h] is a hash, hence >= 0). *)
    else if h land (max 1 (base_range lsr level) - 1) = 0 then level
    else code_loop base_range levels h (level + 1)

  let code_of_hash t h = code_loop t.base_range t.levels h 0

  let min_keep_level_code t x = code_of_hash t (Mkc_hashing.Poly_hash.hash t.hash x)

  let min_keep_level t x =
    match min_keep_level_code t x with -1 -> None | level -> Some level

  let rate t ~level = 1.0 /. float_of_int (range_at t level)
  let levels t = t.levels
  let words t = Mkc_hashing.Poly_hash.words t.hash + 2
end

(* Direct-mapped memo for per-id sampling decisions.  Slot = id land
   mask; a colliding id simply overwrites (the cache is a pure
   accelerator: a miss recomputes the hash, a hit returns exactly what
   the hash would — values are only ever [store]d from a fresh
   evaluation, so decisions are unchanged by construction). *)
module Memo = struct
  type t = { mask : int; keys : int array; vals : int array }

  let absent = min_int

  let create ~slots =
    if slots < 1 then invalid_arg "Memo.create: slots must be >= 1";
    let n = ref 1 in
    while !n < slots do
      n := !n * 2
    done;
    { mask = !n - 1; keys = Array.make !n absent; vals = Array.make !n 0 }

  let find t key =
    let s = key land t.mask in
    if Array.unsafe_get t.keys s = key then Array.unsafe_get t.vals s else absent

  let store t key v =
    let s = key land t.mask in
    Array.unsafe_set t.keys s key;
    Array.unsafe_set t.vals s v

  let slots t = t.mask + 1
  let words t = (2 * (t.mask + 1)) + 1

  (* Checkpointing carries the cached keys so a resumed run's hit/miss
     sequence — and therefore its eval counters — matches the
     uninterrupted run exactly.  Merging instead resets: two shards'
     overwrite histories don't compose, and the cache is a pure
     accelerator, so dropping it is always sound. *)
  let iter t f =
    for s = 0 to t.mask do
      let k = Array.unsafe_get t.keys s in
      if k <> absent then f k (Array.unsafe_get t.vals s)
    done

  let reset t =
    Array.fill t.keys 0 (t.mask + 1) absent;
    Array.fill t.vals 0 (t.mask + 1) 0
end

module Reservoir = struct
  type t = {
    cap : int;
    buf : int array;
    mutable count : int;
    rng : Mkc_hashing.Splitmix.t;
  }

  let create ~cap ~seed =
    if cap < 1 then invalid_arg "Reservoir.create: cap must be >= 1";
    { cap; buf = Array.make cap 0; count = 0; rng = seed }

  let add t x =
    if t.count < t.cap then t.buf.(t.count) <- x
    else begin
      let j = Mkc_hashing.Splitmix.below t.rng (t.count + 1) in
      if j < t.cap then t.buf.(j) <- x
    end;
    t.count <- t.count + 1

  let contents t = Array.sub t.buf 0 (min t.count t.cap)
  let seen t = t.count
  let words t = t.cap + 2
end
