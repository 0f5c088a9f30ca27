(* [mask]: as in {!Poly_hash} — power-of-two ranges reduce with a mask
   instead of an idiv (the raw value is always in [0, p)). *)
type t = { a : int; b : int; range : int; mask : int }

let create ~range ~seed =
  if range < 1 then invalid_arg "Pairwise.create: range must be >= 1";
  let a = 1 + Splitmix.below seed (Prime_field.p - 1) in
  let b = Splitmix.below seed Prime_field.p in
  let mask = if range land (range - 1) = 0 then range - 1 else -1 in
  { a; b; range; mask }

let raw t x = Poly_hash.affine t.a x t.b

let hash t x =
  let v = raw t x in
  if t.mask >= 0 then v land t.mask else v mod t.range
let sign t x = if raw t x land 1 = 0 then 1 else -1
let words _ = 3
