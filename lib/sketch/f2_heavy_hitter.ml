(* Candidate tracking: exact counts of tracked ids since insertion
   (SpaceSaving-style).  In the paper's insertion-only application the
   coordinate frequency IS the stream count, so an exact counter both
   identifies heavy candidates and avoids re-estimating through the
   CountSketch on every update (a per-update sort); the reported values
   still come from the CountSketch at finalize time, keeping the
   Theorem 2.10 (1 ± 1/2) guarantee.

   The live entries are packed in [ent_id]/[ent_cnt] over [0, tn), so a
   prune selects over them in place.  [index] is an open-addressed
   (linear-probe) table from slot to entry position ([-1] = empty).  Its
   slot count is a fixed power of two >= 2·(2·cap+1): occupancy peaks at
   2·cap+1 just before a prune fires, so the load factor stays <= 1/2
   and nothing ever resizes.  Entries leave either in bulk prunes (which
   rebuild [index] from the survivors) or one at a time when a turnstile
   deletion returns a signed count to zero: the index slot is
   backward-shift deleted (no tombstones) and the last entry moves into
   the freed position.  The per-update path allocates nothing.

   The tracker is its own record so that sketches fed the same update
   sequence at the same φ can hold one ([create ~share]): their tables,
   prunes and counts would be equal at every point anyway. *)
type tracker = {
  cap : int;
  ent_id : int array;
  ent_cnt : int array;
  index : int array;
  mask : int;
  mutable tn : int;
  mutable prunes : int;
}

type t = { phi : float; clamp : bool; cs : Count_sketch.t; tr : tracker }

type hit = { id : int; freq : float }

let empty = -1

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create_tracker cap =
  let maxocc = (2 * cap) + 1 in
  let slots = pow2_at_least (2 * maxocc) 16 in
  {
    cap;
    ent_id = Array.make maxocc 0;
    ent_cnt = Array.make maxocc 0;
    index = Array.make slots empty;
    mask = slots - 1;
    tn = 0;
    prunes = 0;
  }

let create ?(depth = 5) ?(width_factor = 8) ?(clamp = true) ?share ~phi ~seed () =
  if phi <= 0.0 || phi > 1.0 then invalid_arg "F2_heavy_hitter.create: phi must be in (0, 1]";
  let width = max 4 (int_of_float (ceil (float_of_int width_factor /. phi))) in
  let cap = max 4 (int_of_float (ceil (4.0 /. phi))) in
  let tr =
    match share with
    | None -> create_tracker cap
    | Some s when s.tr.cap = cap -> s.tr
    | Some _ -> invalid_arg "F2_heavy_hitter.create: the shared tracker has another cap"
  in
  { phi; clamp; cs = Count_sketch.create ~depth ~width ~seed:(Mkc_hashing.Splitmix.fork seed 0) (); tr }

(* The tracker's own operations, up to [insert_count], take the
   tracker. *)
let[@inline] slot_of t i =
  let h = i * 0x2545_F491_4F6C_DD1D in
  (h lxor (h lsr 23)) land t.mask

(* Find the slot indexing [i], or the empty slot where it would go.
   Tail-recursive: no refs, no allocation on the per-update path. *)
let rec probe t i s =
  let p = Array.unsafe_get t.index s in
  if p = empty || Array.unsafe_get t.ent_id p = i then s else probe t i ((s + 1) land t.mask)

(* Prune order: count descending with an id tie-break.  Which
   candidates survive must be a function of the (id, count) multiset
   alone, never of entry order — a restored or merged tracker holds its
   entries in a different order but must prune identically.  Tracked
   ids are distinct, so this order is strict and total and the top-[cap]
   set is unique: [prune] only has to select it, not sort it, and the
   survivors' order afterwards is unobservable ([dump] and [candidates]
   sort their results). *)
let[@inline] sorts_after t i j =
  let ci = Array.unsafe_get t.ent_cnt i and cj = Array.unsafe_get t.ent_cnt j in
  ci < cj || (ci = cj && Array.unsafe_get t.ent_id i > Array.unsafe_get t.ent_id j)

let swap t i j =
  let cnt = t.ent_cnt and ids = t.ent_id in
  let c = Array.unsafe_get cnt i in
  Array.unsafe_set cnt i (Array.unsafe_get cnt j);
  Array.unsafe_set cnt j c;
  let d = Array.unsafe_get ids i in
  Array.unsafe_set ids i (Array.unsafe_get ids j);
  Array.unsafe_set ids j d

(* Sift down in the heap over entries [lo, lo+n) whose root is the entry
   that sorts last. *)
let rec sift t lo n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let m = if sorts_after t (lo + l) (lo + i) then l else i in
    let r = l + 1 in
    let m = if r < n && sorts_after t (lo + r) (lo + m) then r else m in
    if m <> i then begin
      swap t (lo + i) (lo + m);
      sift t lo n m
    end
  end

(* Heap selection, O(n log n): keep the best [k - lo] seen so far in a
   heap over [lo, k) with the worst at its root, and let each entry of
   [k, hi) that sorts before the root replace it. *)
let heap_select t lo k hi =
  let n = k - lo in
  for i = (n / 2) - 1 downto 0 do
    sift t lo n i
  done;
  for e = k to hi - 1 do
    if sorts_after t lo e then begin
      swap t lo e;
      sift t lo n 0
    end
  done

(* Lomuto partition of [lo, hi) around the median of its first, middle
   and last entries; returns the pivot's final index. *)
let partition t lo hi =
  let mid = lo + ((hi - lo) / 2) and last = hi - 1 in
  if sorts_after t lo mid then swap t lo mid;
  if sorts_after t mid last then swap t mid last;
  if sorts_after t lo mid then swap t lo mid;
  swap t mid last;
  let store = ref lo in
  for i = lo to last - 1 do
    if sorts_after t last i then begin
      swap t i !store;
      incr store
    end
  done;
  swap t !store last;
  !store

(* Introselect: move the entries of [lo, hi) that sort first into
   [lo, k), in no particular order.  After [depth] partitions without
   converging it falls back to [heap_select], so the worst case stays
   O(n log n) even when [cap] is in the millions. *)
let rec select t lo k hi depth =
  if lo < k && k < hi then
    if depth = 0 then heap_select t lo k hi
    else begin
      let p = partition t lo hi in
      if p < k - 1 then select t (p + 1) k hi (depth - 1)
      else if p > k then select t lo k p (depth - 1)
    end

(* Top-level, unlike [Hash_family.ceil_log2]'s inner loop, so a prune
   allocates no closure. *)
let rec log2_floor n acc = if n <= 1 then acc else log2_floor (n / 2) (acc + 1)

(* Point [index] at every entry of [0, tn).  The ids are distinct, so
   each goes in the first empty slot of its probe sequence.  The index
   is cleared by a typed loop, not [Array.fill]: on an array in the
   major heap the runtime's fill treats every field as a possible
   pointer, and it cost as much as the select itself. *)
let reindex t =
  let index = t.index and mask = t.mask in
  for s = 0 to mask do
    Array.unsafe_set index s empty
  done;
  for p = 0 to t.tn - 1 do
    let s = ref (slot_of t (Array.unsafe_get t.ent_id p)) in
    while Array.unsafe_get index !s <> empty do
      s := (!s + 1) land mask
    done;
    Array.unsafe_set index !s p
  done

(* Select the top [cap] entries into [0, cap) in place, drop the rest
   and rebuild the index over the survivors. *)
let prune t =
  t.prunes <- t.prunes + 1;
  let n = t.tn in
  let keep = min t.cap n in
  select t 0 keep n (2 * log2_floor n 0);
  t.tn <- keep;
  reindex t

(* Backward-shift deletion from [hole]: walk the cluster after it,
   sliding back every index slot whose probe path crosses the hole.
   Probe sequences stay unbroken with no tombstones. *)
let rec shift t hole j =
  let p = Array.unsafe_get t.index j in
  if p <> empty then begin
    let next = (j + 1) land t.mask in
    if (j - slot_of t (Array.unsafe_get t.ent_id p)) land t.mask >= (j - hole) land t.mask
    then begin
      Array.unsafe_set t.index hole p;
      Array.unsafe_set t.index j empty;
      shift t j next
    end
    else shift t hole next
  end

(* Drop the entry at position [p], indexed from slot [s]: free the slot,
   then move the last entry into [p].  The serialized form ([dump] sorts
   by id) depends only on the surviving (id, count) multiset, which is
   what makes insert-then-delete bit-for-bit equal to never-inserted. *)
let remove t s p =
  Array.unsafe_set t.index s empty;
  shift t s ((s + 1) land t.mask);
  let last = t.tn - 1 in
  if p <> last then begin
    let id = Array.unsafe_get t.ent_id last in
    Array.unsafe_set t.index (probe t id (slot_of t id)) p;
    Array.unsafe_set t.ent_id p id;
    Array.unsafe_set t.ent_cnt p (Array.unsafe_get t.ent_cnt last)
  end;
  t.tn <- last

(* Append a new entry at slot [s] (found empty by [probe]). *)
let[@inline] append t s i c =
  let p = t.tn in
  Array.unsafe_set t.ent_id p i;
  Array.unsafe_set t.ent_cnt p c;
  Array.unsafe_set t.index s p;
  t.tn <- p + 1

(* The tracked half of an update on the tracker itself. *)
let track t i delta =
  let s = probe t i (slot_of t i) in
  let p = Array.unsafe_get t.index s in
  if p <> empty then begin
    let c = Array.unsafe_get t.ent_cnt p + delta in
    (* A signed count returning to zero means "never inserted": drop
       the entry so the table matches the insertion-free state.  With
       positive deltas (insertion-only streams) this branch is dead and
       the historical behaviour is bit-for-bit unchanged. *)
    if c = 0 then remove t s p else Array.unsafe_set t.ent_cnt p c
  end
  else begin
    append t s i delta;
    if t.tn > 2 * t.cap then prune t
  end

(* The tracked (id, count) pairs sorted by id. *)
let sorted_counts t =
  let counts = ref [] in
  for p = t.tn - 1 downto 0 do
    counts := (t.ent_id.(p), t.ent_cnt.(p)) :: !counts
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !counts

let clear_tracked t =
  t.tn <- 0;
  reindex t

(* Insert a restored (id, count); returns false on duplicate. *)
let insert_count t id c =
  let s = probe t id (slot_of t id) in
  if Array.unsafe_get t.index s <> empty then false
  else begin
    append t s id c;
    true
  end

(* The sketch's operations.  The two halves of an update are separable
   because they touch disjoint state.  The CountSketch half is linear
   and commutative — updates to the same id may be aggregated or
   reordered freely.  The tracked-count half is NOT: [prune] keeps the
   top-[cap] of the candidate table, and which ids are tracked when it
   fires depends on insertion order — so callers that aggregate the CS
   half per chunk must still replay this half in original stream order
   to stay bit-for-bit with per-item [add]. *)
let add_cs t i delta = Count_sketch.add t.cs i delta
let add_tracked t i delta = track t.tr i delta

let add t i delta =
  add_cs t i delta;
  add_tracked t i delta

(* Candidate recovery reads the tracker trimmed to its top [cap]. *)
let settle t = if t.tr.tn > t.tr.cap then prune t.tr

let candidates t =
  settle t;
  (* The CountSketch estimate of a light coordinate can be inflated by
     bucket collisions with a genuinely heavy one; the exact
     since-insertion counter is a sound upper bound in insertion-only
     streams, so report the minimum of the two.  (A heavy coordinate is
     tracked from early on, so its counter is near-exact and the
     (1 ± 1/2) value guarantee is preserved.) *)
  let tr = t.tr in
  let acc = ref [] in
  for p = tr.tn - 1 downto 0 do
    let id = tr.ent_id.(p) in
    let est = Count_sketch.estimate t.cs id in
    let freq = if t.clamp then Float.min est (float_of_int tr.ent_cnt.(p)) else est in
    acc := { id; freq } :: !acc
  done;
  List.sort
    (fun a b -> if a.freq <> b.freq then compare b.freq a.freq else compare a.id b.id)
    !acc

let hits t =
  let f2 = Count_sketch.f2_estimate t.cs in
  let threshold = t.phi *. f2 in
  candidates t |> List.filter (fun { freq; _ } -> freq *. freq >= threshold)

let counts t = sorted_counts t.tr
let dump t = (Count_sketch.dump t.cs, counts t, t.tr.prunes)

let check_tracked t ~counts ~prunes =
  if prunes < 0 then Error "f2_hh: negative prune count"
  else if List.length counts > 2 * t.tr.cap then Error "f2_hh: tracked counts exceed cap"
  else Ok ()

let load_tracked t ~counts ~prunes =
  match check_tracked t ~counts ~prunes with
  | Error e -> Error e
  | Ok () ->
      let tr = t.tr in
      clear_tracked tr;
      if List.exists (fun (id, c) -> not (insert_count tr id c)) counts then begin
        clear_tracked tr;
        Error "f2_hh: duplicate tracked id"
      end
      else begin
        tr.prunes <- prunes;
        Ok ()
      end

let load_state t ~rows ~counts ~prunes =
  match check_tracked t ~counts ~prunes with
  | Error e -> Error e
  | Ok () -> (
      match Count_sketch.load_state t.cs rows with
      | Error e -> Error e
      | Ok () -> load_tracked t ~counts ~prunes)

(* The CountSketch half is linear; the tracked half merges by summing
   since-insertion counters (replayed in canonical id order so the
   result is independent of either tracker's entry order).  When
   neither side has pruned this is exactly the single-stream tracked
   state; once prunes have fired the tracker is an approximation either
   way. *)
let merge_into ~dst src =
  if dst.tr.cap <> src.tr.cap then invalid_arg "F2_heavy_hitter.merge_into: cap mismatch";
  Count_sketch.merge_into ~dst:dst.cs src.cs;
  List.iter (fun (id, c) -> track dst.tr id c) (sorted_counts src.tr);
  dst.tr.prunes <- dst.tr.prunes + src.tr.prunes

let f2_estimate t = Count_sketch.f2_estimate t.cs
let phi t = t.phi
let tracked t = t.tr.tn
let cap t = t.tr.cap
let sketch t = t.cs
let shares_tracker a b = a.tr == b.tr
let mem t i = Array.unsafe_get t.tr.index (probe t.tr i (slot_of t.tr i)) <> empty
let prunes t = t.tr.prunes

(* Logical space: two words per live tracked entry plus the
   CountSketch — same accounting as the historical Hashtbl layout
   (the index's 2×-slot preallocation is a bounded constant factor;
   see DESIGN.md).  A shared tracker is charged to every sketch that
   holds it. *)
let words t = Count_sketch.words t.cs + (2 * t.tr.tn)
