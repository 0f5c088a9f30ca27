(* Flat-memory BJKST.  Each sketch owns one 4-wise independent
   polynomial hash over GF(2^61 - 1); the field value of a key is its
   fingerprint, and the fingerprint's trailing-zero count is its level.
   The buffer is one open-addressed (linear-probe) int array of
   fingerprints, [-1] marking an empty slot.  Slot count is a fixed
   power of two at least 2·(cap+1), so the load factor never exceeds
   1/2, the table never resizes, and an empty slot always exists.  The
   hot [add] path allocates nothing.

   Observable state (dump/load/merge, estimate, counters) is a pure
   function of the fingerprint set; table layout never leaks. *)

let fp_bits = 61

type t = {
  cap : int;
  hash : Mkc_hashing.Poly_hash.t; (* field values: fingerprints in [0, 2^61 - 1) *)
  shift : int; (* fp_bits - log2 slots: a fingerprint's top bits are its home slot *)
  tab : int array; (* fingerprints; -1 = empty *)
  mutable occ : int;
  mutable z : int;
  mutable prunes : int;
}

let rec log2_at_least n b = if 1 lsl b >= n then b else log2_at_least n (b + 1)

let create ?(cap = 96) ~seed () =
  if cap < 4 then invalid_arg "L0_bjkst.create: cap must be >= 4";
  let bits = log2_at_least (2 * (cap + 1)) 4 in
  {
    cap;
    hash = Mkc_hashing.Poly_hash.create ~indep:4 ~range:(1 lsl fp_bits) ~seed;
    shift = fp_bits - bits;
    tab = Array.make (1 lsl bits) (-1);
    occ = 0;
    z = 0;
    prunes = 0;
  }

(* 32-bit de Bruijn count-trailing-zeros.  [x land (-x)] isolates the
   lowest set bit; multiplying by the de Bruijn constant slides a unique
   5-bit window into bits 27..31 (the [land 0xFFFF_FFFF] emulates the
   32-bit wraparound the classic trick relies on — OCaml ints are wider,
   so the high product bits must be masked off, not wrapped). *)
let db32 = 0x077C_B531

let db32_tbl =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let tz32 x = Array.unsafe_get db32_tbl ((((x land (-x)) * db32) land 0xFFFF_FFFF) lsr 27)

let trailing_zeros x =
  let lo = x land 0xFFFF_FFFF in
  if lo <> 0 then tz32 lo
  else
    let hi = x lsr 32 in
    if hi <> 0 then 32 + tz32 hi else Sys.int_size

(* Find the slot holding fingerprint [fp], or the empty slot where it
   would go.  Tail-recursive: no refs, no allocation. *)
let rec probe t fp s =
  let v = Array.unsafe_get t.tab s in
  if v < 0 || v = fp then s else probe t fp ((s + 1) land (Array.length t.tab - 1))

(* Insert a fingerprint of level >= z; false if already present. *)
let insert t fp =
  let s = probe t fp (fp lsr t.shift) in
  if Array.unsafe_get t.tab s = fp then false
  else begin
    Array.unsafe_set t.tab s fp;
    t.occ <- t.occ + 1;
    true
  end

(* Keep only the fingerprints of level >= [t.z].  One cyclic pass that
   starts just after an empty slot lifts each entry out and re-places
   it if it survives: an entry only ever moves back towards its home,
   into slots the pass has already left, so no probe chain the pass has
   settled is broken later. *)
let sweep t =
  let mask = Array.length t.tab - 1 in
  let rec empty s = if t.tab.(s) < 0 then s else empty (s + 1) in
  let e = empty 0 in
  t.occ <- 0;
  for i = 1 to mask do
    let s = (e + i) land mask in
    let fp = Array.unsafe_get t.tab s in
    if fp >= 0 then begin
      Array.unsafe_set t.tab s (-1);
      if trailing_zeros fp >= t.z then ignore (insert t fp : bool)
    end
  done

let prune t =
  while t.occ > t.cap do
    t.prunes <- t.prunes + 1;
    t.z <- t.z + 1;
    sweep t
  done

let add t x =
  let fp = Mkc_hashing.Poly_hash.hash t.hash x in
  (* Collisions over a 61-bit range are negligible for the stream
     sizes we target, so the hash itself is the fingerprint. *)
  if trailing_zeros fp >= t.z && insert t fp && t.occ > t.cap then prune t

(* Canonical state: the buffer sorted by fingerprint, plus the level
   and prune counters.  Two sketches over the same seed are
   behaviourally identical iff their dumps are equal. *)
let dump t =
  let entries = Array.fold_left (fun acc fp -> if fp >= 0 then fp :: acc else acc) [] t.tab in
  (t.z, t.prunes, List.sort Int.compare entries)

let clear t =
  Array.fill t.tab 0 (Array.length t.tab) (-1);
  t.occ <- 0

let load_state t ~z ~prunes ~entries =
  if z < 0 || z > fp_bits || prunes < 0 then Error "l0: level or prune count out of range"
  else if List.length entries > t.cap then Error "l0: entries exceed cap"
  else if List.exists (fun fp -> fp < 0 || fp >= Mkc_hashing.Prime_field.p) entries then
    Error "l0: fingerprint outside [0, 2^61 - 1)"
  else if List.exists (fun fp -> trailing_zeros fp < z) entries then
    Error "l0: fingerprint below level z"
  else begin
    clear t;
    if List.for_all (insert t) entries then begin
      t.z <- z;
      t.prunes <- prunes;
      Ok ()
    end
    else begin
      clear t;
      Error "l0: duplicate fingerprint"
    end
  end

(* The sketch state is a pure function of the set of fingerprints seen:
   buf = { fp seen : level(fp) ≥ z } with z the smallest level at which
   that set fits in [cap].  Union-then-prune therefore reproduces the
   single-stream state exactly, whatever order the union is taken in.
   Requires both sketches to share cap and hash seed. *)
let merge_into ~dst src =
  if dst.cap <> src.cap then invalid_arg "L0_bjkst.merge_into: cap mismatch";
  dst.prunes <- max dst.prunes src.prunes;
  if src.z > dst.z then begin
    (* Adopting the source's level is not a capacity-driven prune. *)
    dst.z <- src.z;
    sweep dst
  end;
  Array.iter
    (fun fp -> if fp >= 0 && trailing_zeros fp >= dst.z && insert dst fp then prune dst)
    src.tab

let estimate t = float_of_int t.occ *. Float.pow 2.0 (float_of_int t.z)
let level t = t.z
let occupancy t = t.occ
let prunes t = t.prunes

(* Logical space: two words per live fingerprint (the table keeps its
   load at most 1/2), the hash coefficients, and the level and prune
   counters.  DESIGN.md records the resident-size mapping. *)
let words t = (2 * t.occ) + Mkc_hashing.Poly_hash.words t.hash + 2
