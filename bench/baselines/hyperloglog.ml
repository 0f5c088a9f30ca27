type t = {
  bits : int;
  tab : Tabulation.t;
  token : int;
  regs : Bytes.t;
}

let counter = ref 0

let create ?(bits = 10) ~seed () =
  if bits < 4 || bits > 18 then invalid_arg "Hyperloglog.create: bits must be in [4, 18]";
  incr counter;
  {
    bits;
    tab = Tabulation.create ~seed;
    token = !counter;
    regs = Bytes.make (1 lsl bits) '\000';
  }

let leading_rank v width =
  (* Position of the first 1-bit within the top [width] bits, 1-based;
     width+1 if all zero. *)
  let rec go i =
    if i > width then width + 1
    else if Int64.logand (Int64.shift_right_logical v (64 - i)) 1L = 1L then i
    else go (i + 1)
  in
  go 1

let add t x =
  let h = Tabulation.hash64 t.tab x in
  let idx = Int64.to_int (Int64.shift_right_logical h (64 - t.bits)) in
  let rest = Int64.shift_left h t.bits in
  let rank = leading_rank rest (64 - t.bits) in
  if rank > Char.code (Bytes.get t.regs idx) then
    Bytes.set t.regs idx (Char.chr (min 255 rank))

let alpha m =
  match m with
  | 16 -> 0.673
  | 32 -> 0.697
  | 64 -> 0.709
  | _ -> 0.7213 /. (1.0 +. 1.079 /. float_of_int m)

let estimate t =
  let m = 1 lsl t.bits in
  let sum = ref 0.0 and zeros = ref 0 in
  for i = 0 to m - 1 do
    let r = Char.code (Bytes.get t.regs i) in
    if r = 0 then incr zeros;
    sum := !sum +. Float.pow 2.0 (-.float_of_int r)
  done;
  let raw = alpha m *. float_of_int m *. float_of_int m /. !sum in
  if raw <= 2.5 *. float_of_int m && !zeros > 0 then
    (* linear counting for the small regime *)
    float_of_int m *. log (float_of_int m /. float_of_int !zeros)
  else raw

let merge a b =
  if a.token <> b.token then
    invalid_arg "Hyperloglog.merge: sketches use different hash functions";
  let m = 1 lsl a.bits in
  let regs = Bytes.make m '\000' in
  for i = 0 to m - 1 do
    Bytes.set regs i (max (Bytes.get a.regs i) (Bytes.get b.regs i))
  done;
  { a with regs }

let words t = ((1 lsl t.bits) + 7) / 8 + Tabulation.words t.tab
