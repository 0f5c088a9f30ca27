module Bernoulli = struct
  type t = { hash : Mkc_hashing.Poly_hash.t }

  let create ~rate ~indep ~seed =
    let range = Mkc_hashing.Hash_family.sample_rate_range ~rate in
    { hash = Mkc_hashing.Poly_hash.create ~indep ~range ~seed }

  let keep t x = Mkc_hashing.Poly_hash.keep t.hash x

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

(* A sink's uncounted decision cache.  When every key it will see fits
   within [slots], the table is indexed by the key itself, so it keeps
   no keys and never evicts; its values take the narrowest width that
   holds them, a byte (0 = absent, else value + 2) or an int.  A wider
   key universe keeps the hashed [Memo].  A key outside a direct
   table's universe [0, universe) is never stored, so it always
   misses. *)
module Decisions = struct
  type t = Bytes of Bytes.t | Ints of int array | Hashed of Memo.t

  let absent = Memo.absent

  let create ~universe ~slots ~width =
    if universe > slots then Hashed (Memo.create ~slots)
    else
      match width with
      | `Byte -> Bytes (Bytes.make universe '\000')
      | `Int -> Ints (Array.make universe absent)

  let find t key =
    match t with
    | Bytes b ->
        if key >= 0 && key < Bytes.length b then
          let c = Char.code (Bytes.unsafe_get b key) in
          if c = 0 then absent else c - 2
        else absent
    | Ints a -> if key >= 0 && key < Array.length a then Array.unsafe_get a key else absent
    | Hashed m -> Memo.find m key

  let store t key v =
    match t with
    | Bytes b ->
        if v < -1 || v > 253 then invalid_arg "Decisions.store: byte value outside [-1, 253]";
        if key >= 0 && key < Bytes.length b then Bytes.unsafe_set b key (Char.unsafe_chr (v + 2))
    | Ints a -> if key >= 0 && key < Array.length a then Array.unsafe_set a key v
    | Hashed m -> Memo.store m key v
end
