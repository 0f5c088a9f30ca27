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

(* Horner evaluation: c_{d-1} x^{d-1} + ... + c_0, from the top
   coefficient itself (d >= 1), not from 0·x + c_{d-1}.  Top-level with
   every free variable a parameter: a local [let rec] capturing [c]
   and [x] compiles to a heap closure per call without flambda —
   measurably 6 words on every hash evaluation of the hot path. *)
let rec horner c x acc i =
  if i < 0 then acc
  else horner c x (Prime_field.add (Prime_field.mul acc x) (Array.unsafe_get c i)) (i - 1)

let field_value t x =
  let x = Prime_field.normalize x in
  let c = t.coeffs in
  let d = Array.length c in
  horner c x (Array.unsafe_get c (d - 1)) (d - 2)

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
   of [hash] on each input.  Normalizing
   in the inner loop (a compare for in-range ids) needs no buffer. *)
let hash_batch t xs ~pos ~len out =
  if len < 0 || pos < 0 || pos + len > Array.length xs then
    invalid_arg "Poly_hash.hash_batch: bad slice";
  if Array.length out < len then invalid_arg "Poly_hash.hash_batch: out too short";
  let c = t.coeffs in
  let d = Array.length c in
  Array.fill out 0 len (Array.unsafe_get c (d - 1));
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

let range t = t.range
let indep t = Array.length t.coeffs
let words t = Array.length t.coeffs + 1
