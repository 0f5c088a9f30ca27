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

let put_int64 w v =
  put w (Int64.to_int v land 0xFFFF_FFFF);
  put w (Int64.to_int (Int64.shift_right_logical v 32))

let contents = Buffer.contents
let reset = Buffer.clear

type reader = { s : string; mutable pos : int }

(* Raised only under [decode], which turns it into [Error]: the one
   exit of a failed read. *)
exception Malformed of string

let fail _ fmt = Printf.ksprintf (fun msg -> raise (Malformed msg)) fmt
let check r = function Ok () -> () | Error e -> fail r "%s" e

let decode s f =
  let r = { s; pos = 0 } in
  match f r with
  | v ->
      let left = String.length s - r.pos in
      if left = 0 then Ok v else Error (Printf.sprintf "%d bytes left over" left)
  | exception Malformed msg -> Error msg

let left r = String.length r.s - r.pos

(* At most nine bytes: the ninth carries bits 56..62, the top of a
   63-bit int. *)
let rec get_unsigned r acc shift =
  if r.pos >= String.length r.s then fail r "truncated varint";
  if shift > 56 then fail r "varint longer than 63 bits";
  let b = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else get_unsigned r acc (shift + 7)

let get r =
  let z = get_unsigned r 0 0 in
  (z lsr 1) lxor -(z land 1)

let get_count r =
  let n = get r in
  if n < 0 || n > left r then fail r "count %d with %d bytes left" n (left r);
  n

let get_below r bound =
  let v = get r in
  if v < 0 || v >= bound then fail r "value %d outside [0, %d)" v bound;
  v

let get_int64 r =
  let lo = get_below r 0x1_0000_0000 in
  let hi = get_below r 0x1_0000_0000 in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

(* [n] reads in stream order. *)
let get_list r n f =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f r :: acc) in
  go n []

let put_ids w id_of put_item items =
  put w (List.length items);
  ignore
    (List.fold_left
       (fun prev x ->
         let id = id_of x in
         put w (id - prev);
         put_item w x;
         id)
       0 items
      : int)

let get_ids r ~bound item =
  let prev = ref 0 and first = ref true in
  get_list r (get_count r) (fun r ->
      let gap = get r in
      if gap < (if !first then 0 else 1) || gap >= bound - !prev then
        fail r "id gap %d after %d: out of order or outside [0, %d)" gap !prev bound;
      let id = !prev + gap in
      prev := id;
      first := false;
      item r id)

let put_l0 w sk =
  let z, prunes, entries = L0_bjkst.dump sk in
  put w z;
  put w prunes;
  put w (List.length entries);
  List.iter (put w) entries

let get_l0 r sk =
  let z = get r in
  let prunes = get r in
  let entries = get_list r (get_count r) get in
  check r (L0_bjkst.load_state sk ~z ~prunes ~entries)

(* Per level: the CountSketch's depth and width, its counters row-major
   straight from the sketch's own array, then the tracked (id, count)
   pairs and the prune count.  The reader checks the shape and decodes
   the counters into the live sketch's array: no row is copied either
   way. *)
let put_f2c w sk =
  for i = 0 to F2_contributing.levels sk - 1 do
    let hh = F2_contributing.level sk i in
    let cs = F2_heavy_hitter.sketch hh in
    put w (Count_sketch.depth cs);
    put w (Count_sketch.width cs);
    let c = Count_sketch.counters cs in
    for j = 0 to Array.length c - 1 do
      put w (Array.unsafe_get c j)
    done;
    put_ids w fst (fun w (_, c) -> put w c) (F2_heavy_hitter.counts hh);
    put w (F2_heavy_hitter.prunes hh)
  done

let get_f2c r ~ids sk =
  for i = 0 to F2_contributing.levels sk - 1 do
    let cs = F2_heavy_hitter.sketch (F2_contributing.level sk i) in
    let depth = get r in
    let width = get r in
    let d = Count_sketch.depth cs and wd = Count_sketch.width cs in
    if depth <> d || width <> wd then
      fail r "count_sketch shape %dx%d, expected %dx%d" depth width d wd;
    let c = Count_sketch.counters cs in
    for j = 0 to Array.length c - 1 do
      Array.unsafe_set c j (get r)
    done;
    let counts = get_ids r ~bound:ids (fun r id -> (id, get r)) in
    check r (F2_contributing.load_tracked sk i ~counts ~prunes:(get r))
  done

let put_memo w m =
  put w (Sampler.Memo.slots m);
  let keys = ref [] in
  Sampler.Memo.iter m (fun key _ -> keys := key :: !keys);
  put w (List.length !keys);
  List.iter (put w) (List.rev !keys)

let get_memo r ~value m =
  let slots = Sampler.Memo.slots m in
  let n = get r in
  if n <> slots then fail r "memo: %d slots, expected %d" n slots;
  Sampler.Memo.reset m;
  let prev = ref (-1) in
  for _ = 1 to get_count r do
    let key = get r in
    let slot = key land (slots - 1) in
    if key < 0 || slot <= !prev then fail r "memo: key %d out of slot order" key;
    prev := slot;
    Sampler.Memo.store m key (value key)
  done
