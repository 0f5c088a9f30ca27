let chars = 8

(* Tables are stored as flat 32-bit halves in native-int arrays:
   entry [i*256 + c] of [lo] (resp. [hi]) is the low (resp. high) half
   of the 64-bit table word for character [c] of position [i].  XOR
   distributes over the halves, so folding the halves separately and
   recombining reproduces the 64-bit hash of the boxed-table layout
   bit-for-bit. *)
type t = { lo : int array; hi : int array }

let create ~seed =
  let lo = Array.make (chars * 256) 0 in
  let hi = Array.make (chars * 256) 0 in
  (* Same Splitmix draw order as the historical int64 table layout
     (position-major, character-ascending), so seeds keep producing
     identical hash functions. *)
  for i = 0 to chars - 1 do
    for c = 0 to 255 do
      let v = Mkc_hashing.Splitmix.next seed in
      let j = (i * 256) + c in
      lo.(j) <- Int64.to_int v land 0xFFFF_FFFF;
      hi.(j) <- Int64.to_int (Int64.shift_right_logical v 32) land 0xFFFF_FFFF
    done
  done;
  { lo; hi }

let hash64 t x =
  let lo = ref 0 and hi = ref 0 in
  for i = 0 to chars - 1 do
    let j = (i * 256) + ((x lsr (8 * i)) land 0xFF) in
    lo := !lo lxor Array.unsafe_get t.lo j;
    hi := !hi lxor Array.unsafe_get t.hi j
  done;
  Int64.logor (Int64.shift_left (Int64.of_int !hi) 32) (Int64.of_int !lo)

let hash t x r =
  if r < 1 then invalid_arg "Tabulation.hash: range must be >= 1";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (hash64 t x) 1) (Int64.of_int r))

let to_unit_float t x =
  let bits = Int64.shift_right_logical (hash64 t x) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

(* Space accounting stays in logical 64-bit table words (chars · 256):
   the lo/hi split stores the same randomness in two native-int halves,
   an implementation detail, not extra sketch state. *)
let words _t = chars * 256
