(* Flat-memory BJKST: the fingerprint buffer is an open-addressed
   (linear-probe) table over three preallocated int arrays — the 32-bit
   lo/hi halves of the 64-bit fingerprint and its trailing-zero level
   ([-1] marks an empty slot).  Slot count is a fixed power of two at
   least 2·(cap+1), so the load factor never exceeds 1/2 and the table
   never resizes: occupancy is bounded by cap+1 between prunes.  The
   hot [add] path therefore allocates nothing — no boxed int64 key, no
   Hashtbl bucket, no option.

   Observable state (dump/load/merge, estimate, counters) is a pure
   function of the fingerprint set, exactly as in the historical
   Hashtbl-backed layout; the canonical dump bytes are unchanged. *)

type t = {
  cap : int;
  tab : Mkc_hashing.Tabulation.t;
  mask : int; (* slots - 1; slots a power of two >= 2*(cap+1) *)
  fp_lo : int array;
  fp_hi : int array;
  lvl : int array; (* -1 = empty *)
  (* prune scratch: survivors of a level raise, <= cap+1 entries *)
  s_lo : int array;
  s_hi : int array;
  s_lvl : int array;
  mutable occ : int;
  mutable z : int;
  mutable prunes : int;
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ?(cap = 96) ~seed () =
  if cap < 4 then invalid_arg "L0_bjkst.create: cap must be >= 4";
  let slots = pow2_at_least (2 * (cap + 1)) 16 in
  {
    cap;
    tab = Mkc_hashing.Tabulation.create ~seed;
    mask = slots - 1;
    fp_lo = Array.make slots 0;
    fp_hi = Array.make slots 0;
    lvl = Array.make slots (-1);
    s_lo = Array.make (cap + 1) 0;
    s_hi = Array.make (cap + 1) 0;
    s_lvl = Array.make (cap + 1) 0;
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

let trailing_zeros v =
  (* Split the Int64 hash into two native-int halves once (mask and
     shift), then count within a half with the table — no per-bit loop,
     no Int64 arithmetic beyond the split. *)
  let lo = Int64.to_int v land 0xFFFF_FFFF in
  if lo <> 0 then tz32 lo
  else
    let hi = Int64.to_int (Int64.shift_right_logical v 32) land 0xFFFF_FFFF in
    if hi <> 0 then 32 + tz32 hi else 64

(* Probe start: entries surviving at level z have >= z trailing zero
   bits, so the raw low bits are useless as a slot index — mix both
   halves through a multiplicative avalanche first. *)
let[@inline] slot_of t lo hi =
  let h = lo lxor ((hi + lo) * 0x2545_F491_4F6C_DD1D) in
  (h lxor (h lsr 21)) land t.mask

(* Find the slot holding fingerprint (lo, hi), or the empty slot where
   it would go.  Tail-recursive: no refs, no allocation. *)
let rec probe t lo hi s =
  if Array.unsafe_get t.lvl s < 0 then s
  else if Array.unsafe_get t.fp_lo s = lo && Array.unsafe_get t.fp_hi s = hi then s
  else probe t lo hi ((s + 1) land t.mask)

let prune t =
  while t.occ > t.cap do
    t.prunes <- t.prunes + 1;
    t.z <- t.z + 1;
    let z = t.z in
    (* Compact survivors into scratch, clear, reinsert: prune-in-place
       over preallocated memory, no doomed-fingerprint list. *)
    let n = ref 0 in
    for s = 0 to t.mask do
      let l = Array.unsafe_get t.lvl s in
      if l >= 0 then begin
        if l >= z then begin
          let j = !n in
          t.s_lo.(j) <- Array.unsafe_get t.fp_lo s;
          t.s_hi.(j) <- Array.unsafe_get t.fp_hi s;
          t.s_lvl.(j) <- l;
          n := j + 1
        end;
        Array.unsafe_set t.lvl s (-1)
      end
    done;
    t.occ <- !n;
    for j = 0 to !n - 1 do
      let lo = t.s_lo.(j) and hi = t.s_hi.(j) in
      let s = probe t lo hi (slot_of t lo hi) in
      t.fp_lo.(s) <- lo;
      t.fp_hi.(s) <- hi;
      t.lvl.(s) <- t.s_lvl.(j)
    done
  done

(* The hash halves are already in [t.tab]. *)
let[@inline] add_hashed t =
  let lo = Mkc_hashing.Tabulation.part_lo t.tab in
  let hi = Mkc_hashing.Tabulation.part_hi t.tab in
  let lvl = if lo <> 0 then tz32 lo else if hi <> 0 then 32 + tz32 hi else 64 in
  if lvl >= t.z then begin
    (* The hash itself is the fingerprint: collisions over a 64-bit
       range are negligible for the stream sizes we target. *)
    let s = probe t lo hi (slot_of t lo hi) in
    if Array.unsafe_get t.lvl s < 0 then begin
      t.fp_lo.(s) <- lo;
      t.fp_hi.(s) <- hi;
      t.lvl.(s) <- lvl;
      t.occ <- t.occ + 1;
      if t.occ > t.cap then prune t
    end
  end

let add t x =
  Mkc_hashing.Tabulation.hash_parts t.tab x;
  add_hashed t

let fp_at t s =
  Int64.logor
    (Int64.shift_left (Int64.of_int t.fp_hi.(s)) 32)
    (Int64.of_int t.fp_lo.(s))

(* Canonical state: the buffer sorted by fingerprint (unsigned), plus
   the level and prune counters.  Two sketches over the same seed are
   behaviourally identical iff their dumps are equal — table layout
   (probe order, slot positions) never leaks into any observable. *)
let dump t =
  let entries = ref [] in
  for s = t.mask downto 0 do
    if t.lvl.(s) >= 0 then entries := (fp_at t s, t.lvl.(s)) :: !entries
  done;
  let entries =
    List.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) !entries
  in
  (t.z, t.prunes, entries)

let clear_table t =
  Array.fill t.lvl 0 (t.mask + 1) (-1);
  t.occ <- 0

(* Insert a fingerprint given as int64; returns false if already present. *)
let insert_fp t fp lvl =
  let lo = Int64.to_int fp land 0xFFFF_FFFF in
  let hi = Int64.to_int (Int64.shift_right_logical fp 32) land 0xFFFF_FFFF in
  let s = probe t lo hi (slot_of t lo hi) in
  if Array.unsafe_get t.lvl s >= 0 then false
  else begin
    t.fp_lo.(s) <- lo;
    t.fp_hi.(s) <- hi;
    t.lvl.(s) <- lvl;
    t.occ <- t.occ + 1;
    true
  end

let load_state t ~z ~prunes ~entries =
  if z < 0 || prunes < 0 then Error "l0: negative level or prune count"
  else if List.length entries > t.cap then Error "l0: entries exceed cap"
  else if List.exists (fun (_, lvl) -> lvl < z || lvl > 64) entries then
    Error "l0: entry level out of range"
  else begin
    clear_table t;
    let dup = List.exists (fun (fp, lvl) -> not (insert_fp t fp lvl)) entries in
    if dup then begin
      clear_table t;
      Error "l0: duplicate fingerprint"
    end
    else begin
      t.z <- z;
      t.prunes <- prunes;
      Ok ()
    end
  end

(* The sketch state is a pure function of the set of fingerprints seen:
   buf = { fp seen : level(fp) ≥ z } with z the smallest level at which
   that set fits in [cap].  Union-then-prune therefore reproduces the
   single-stream state exactly (merge is the set union).  Requires both
   sketches to share cap and hash seed. *)
let merge_into ~dst src =
  if dst.cap <> src.cap then invalid_arg "L0_bjkst.merge_into: cap mismatch";
  if src.z > dst.z then begin
    dst.z <- src.z;
    dst.prunes <- max dst.prunes src.prunes;
    (* Drop below-level entries without touching the prune counter:
       adopting the source's level is not a capacity-driven prune. *)
    let z = dst.z in
    let n = ref 0 in
    for s = 0 to dst.mask do
      let l = Array.unsafe_get dst.lvl s in
      if l >= 0 then begin
        if l >= z then begin
          let j = !n in
          dst.s_lo.(j) <- dst.fp_lo.(s);
          dst.s_hi.(j) <- dst.fp_hi.(s);
          dst.s_lvl.(j) <- l;
          n := j + 1
        end;
        dst.lvl.(s) <- -1
      end
    done;
    dst.occ <- !n;
    for j = 0 to !n - 1 do
      let lo = dst.s_lo.(j) and hi = dst.s_hi.(j) in
      let s = probe dst lo hi (slot_of dst lo hi) in
      dst.fp_lo.(s) <- lo;
      dst.fp_hi.(s) <- hi;
      dst.lvl.(s) <- dst.s_lvl.(j)
    done
  end
  else dst.prunes <- max dst.prunes src.prunes;
  (* Insert in canonical order so the destination state is independent
     of the source table's internal layout. *)
  let _, _, entries = dump src in
  List.iter
    (fun (fp, lvl) ->
      if lvl >= dst.z then begin
        ignore (insert_fp dst fp lvl : bool);
        if dst.occ > dst.cap then prune dst
      end)
    entries

let estimate t = float_of_int t.occ *. Float.pow 2.0 (float_of_int t.z)
let level t = t.z
let occupancy t = t.occ
let prunes t = t.prunes

(* Logical space: two words per live fingerprint entry plus the hash
   tables — the same accounting as the historical Hashtbl layout, so
   budget calibration and space profiles stay comparable.  The flat
   table preallocates 2·(cap+1) slots (a bounded constant factor over
   the live entries); DESIGN.md records the resident-size mapping. *)
let words t = (2 * t.occ) + Mkc_hashing.Tabulation.words t.tab + 2
