(* Zigzag LEB128: a signed int maps to an unsigned one with the sign in
   bit 0 ((x lsl 1) lxor (x asr 62) on 63-bit ints), then goes out
   seven bits per byte, low group first, the high bit set on every byte
   but the last.  Small magnitudes of either sign take one byte. *)

type writer = Buffer.t

let writer () = Buffer.create 4096

let rec put_unsigned w z =
  if z land lnot 0x7f = 0 then Buffer.add_char w (Char.unsafe_chr z)
  else begin
    Buffer.add_char w (Char.unsafe_chr (z land 0x7f lor 0x80));
    put_unsigned w (z lsr 7)
  end

let put w x = put_unsigned w ((x lsl 1) lxor (x asr 62))

let contents = Buffer.contents

type reader = { s : string; mutable pos : int }

let reader s = { s; pos = 0 }

let rec get_unsigned r acc shift =
  let b = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else get_unsigned r acc (shift + 7)

let get r =
  let z = get_unsigned r 0 0 in
  (z lsr 1) lxor -(z land 1)

let at_end r = r.pos = String.length r.s

let put_l0 w sk =
  let z, prunes, entries = L0_bjkst.dump sk in
  put w z;
  put w prunes;
  put w (List.length entries);
  List.iter
    (fun (fp, lvl) ->
      put w (Int64.to_int fp land 0xFFFF_FFFF);
      put w (Int64.to_int (Int64.shift_right_logical fp 32));
      put w lvl)
    entries

(* [n] reads in stream order. *)
let get_list r n f =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f r :: acc) in
  go n []

let ok = function Ok () -> () | Error e -> invalid_arg ("Packed: " ^ e)

let get_l0 r sk =
  let z = get r in
  let prunes = get r in
  let entries =
    get_list r (get r) (fun r ->
        let lo = get r in
        let hi = get r in
        let lvl = get r in
        (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo), lvl))
  in
  ok (L0_bjkst.load_state sk ~z ~prunes ~entries)

(* Tracked ids go out sorted, so each is written as its gap to the
   previous one. *)
let put_hh w (rows, counts, prunes) =
  put w (Array.length rows);
  put w (if Array.length rows = 0 then 0 else Array.length rows.(0));
  Array.iter (Array.iter (put w)) rows;
  put w (List.length counts);
  ignore
    (List.fold_left
       (fun prev (id, c) ->
         put w (id - prev);
         put w c;
         id)
       0 counts
      : int);
  put w prunes

let get_hh r =
  let depth = get r in
  let width = get r in
  let rows = Array.init depth (fun _ -> Array.init width (fun _ -> get r)) in
  let prev = ref 0 in
  let counts =
    get_list r (get r) (fun r ->
        let id = !prev + get r in
        prev := id;
        (id, get r))
  in
  (rows, counts, get r)

let put_f2c w sk = Array.iter (put_hh w) (F2_contributing.dump sk)

let get_f2c r sk =
  ok
    (F2_contributing.load_state sk
       (Array.init (F2_contributing.levels sk) (fun _ -> get_hh r)))
