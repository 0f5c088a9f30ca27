(* [mask] is [range - 1] when the range is a power of two, else -1: for
   a field value v >= 0, [v mod 2^j = v land (2^j - 1)], and most hot
   ranges here are powers of two (sign ranges, superset counts, nested
   sampler levels), so the reduction is a mask instead of an idiv. *)
type t = { coeffs : int array; range : int; mask : int }

let create ~indep ~range ~seed =
  if indep < 1 then invalid_arg "Poly_hash.create: indep must be >= 1";
  if range < 1 then invalid_arg "Poly_hash.create: range must be >= 1";
  let coeffs =
    Array.init indep (fun _ -> Prime_field.normalize (Splitmix.next_int seed))
  in
  let mask = if range land (range - 1) = 0 then range - 1 else -1 in
  { coeffs; range; mask }

(* The small-key kernel: [acc·x mod p] for a field element [acc < p]
   and a key [0 <= x < 2^31] in two native products, where
   [Prime_field.mul] needs four.  With acc = a1·2^31 + a0 (a1 < 2^30,
   a0 < 2^31):

     acc·x = hi·2^31 + lo,   hi = a1·x < 2^61,   lo = a0·x < 2^62.

   hi splits at bit 30, hi = h1·2^30 + h0, and 2^61 = 1 (mod p), so
   hi·2^31 = h1 + h0·2^31 (mod p), a sum of at most p; lo folds to
   (lo land p) + (lo lsr 61) <= p + 1.  The total stays below 2^62
   (no overflow), and one more fold and a conditional subtraction
   leave the canonical residue, the value [Prime_field.mul acc x]
   gives.  Every key the benchmarks hash is this small: set, element
   and superset ids and reduced elements.

   It is defined here, beside the loops that call it, and [@inline]:
   dune's dev profile compiles every module [-opaque], so a multiply
   defined in [Prime_field] would stay a call per Horner step.  [p] is
   spelled out for the same reason: a literal folds into the code, a
   field of another module is a load. *)
let p = (1 lsl 61) - 1

let[@inline] small x = x lsr 31 = 0

let[@inline] add a b =
  let s = a + b in
  if s >= p then s - p else s

let[@inline] mul_small acc x =
  let hi = (acc lsr 31) * x and lo = (acc land 0x7FFF_FFFF) * x in
  let s = (hi lsr 30) + ((hi land 0x3FFF_FFFF) lsl 31) + (lo land p) + (lo lsr 61) in
  let y = (s land p) + (s lsr 61) in
  if y >= p then y - p else y

(* Horner evaluation: c_{d-1} x^{d-1} + ... + c_0, from the top
   coefficient itself (d >= 1), not from 0·x + c_{d-1}.  Top-level with
   every free variable a parameter: a local [let rec] capturing [c]
   and [x] compiles to a heap closure per call without flambda —
   measurably 6 words on every hash evaluation of the hot path.  A key
   outside [0, 2^31) is normalized and multiplied by the general
   [Prime_field.mul]; both give the same residues. *)
let rec horner_small c x acc i =
  if i < 0 then acc else horner_small c x (add (mul_small acc x) (Array.unsafe_get c i)) (i - 1)

let rec horner c x acc i =
  if i < 0 then acc
  else horner c x (Prime_field.add (Prime_field.mul acc x) (Array.unsafe_get c i)) (i - 1)

let field_value t x =
  let c = t.coeffs in
  let d = Array.length c in
  if small x then horner_small c x (Array.unsafe_get c (d - 1)) (d - 2)
  else horner c (Prime_field.normalize x) (Array.unsafe_get c (d - 1)) (d - 2)

let hash t x =
  let v = field_value t x in
  if t.mask >= 0 then v land t.mask else v mod t.range

let keep t x = hash t x = 0

(* Coefficient-major batched Horner: one pass over the coefficient
   vector with the whole input block as the inner loop, so the d field
   elements are loaded d times total instead of d times per input.  The
   per-element arithmetic (start at c_{d-1}, fold each lower c_i in
   Horner order, then reduce to the range) is identical
   operation-for-operation to [hash], so outputs are bit-for-bit those
   of [hash] on each input.  A block whose keys are all small runs the
   two-product kernel with no test in the inner loop; any other block
   normalizes in the inner loop (a compare for in-range ids) and takes
   the general multiply. *)
let rec all_small xs i stop = i >= stop || (small (Array.unsafe_get xs i) && all_small xs (i + 1) stop)

let hash_batch t xs ~pos ~len out =
  if len < 0 || pos < 0 || pos + len > Array.length xs then
    invalid_arg "Poly_hash.hash_batch: bad slice";
  if Array.length out < len then invalid_arg "Poly_hash.hash_batch: out too short";
  let c = t.coeffs in
  let d = Array.length c in
  Array.fill out 0 len (Array.unsafe_get c (d - 1));
  if all_small xs pos (pos + len) then
    for i = d - 2 downto 0 do
      let ci = Array.unsafe_get c i in
      for j = 0 to len - 1 do
        Array.unsafe_set out j
          (add (mul_small (Array.unsafe_get out j) (Array.unsafe_get xs (pos + j))) ci)
      done
    done
  else
    for i = d - 2 downto 0 do
      let ci = Array.unsafe_get c i in
      for j = 0 to len - 1 do
        let x = Prime_field.normalize (Array.unsafe_get xs (pos + j)) in
        Array.unsafe_set out j (Prime_field.add (Prime_field.mul (Array.unsafe_get out j) x) ci)
      done
    done;
  if t.mask >= 0 then begin
    let m = t.mask in
    for j = 0 to len - 1 do
      Array.unsafe_set out j (Array.unsafe_get out j land m)
    done
  end
  else begin
    let r = t.range in
    for j = 0 to len - 1 do
      Array.unsafe_set out j (Array.unsafe_get out j mod r)
    done
  end

let affine a x b =
  if small x then add (mul_small a x) b
  else Prime_field.add (Prime_field.mul a (Prime_field.normalize x)) b

let range t = t.range
let indep t = Array.length t.coeffs
let words t = Array.length t.coeffs + 1
