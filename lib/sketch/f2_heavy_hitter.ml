type t = {
  phi : float;
  clamp : bool;
  cs : Count_sketch.t;
  cap : int;
  (* Candidate tracking: exact counts of tracked ids since insertion
     (SpaceSaving-style).  In the paper's insertion-only application the
     coordinate frequency IS the stream count, so an exact counter both
     identifies heavy candidates and avoids re-estimating through the
     CountSketch on every update (a per-update sort); the reported
     values still come from the CountSketch at finalize time, keeping
     the Theorem 2.10 (1 ± 1/2) guarantee.

     The tracker is a flat open-addressed (linear-probe) table over two
     preallocated int arrays: [tkeys] ([min_int] = empty) and [tvals].
     Slot count is a fixed power of two >= 2·(2·cap+1): occupancy peaks
     at 2·cap+1 just before a prune fires, so the load factor stays
     <= 1/2 and the table never resizes.  Entries leave either in bulk
     prunes (which rebuild from scratch) or one at a time when a
     turnstile deletion returns a signed count to zero — the latter
     uses backward-shift deletion, so linear probing still needs no
     tombstones, and the per-update path allocates nothing. *)
  tkeys : int array;
  tvals : int array;
  tmask : int;
  (* prune scratch: at most 2·cap+1 live entries when a prune fires *)
  sid : int array;
  scnt : int array;
  mutable tn : int;
  mutable prunes : int;
}

type hit = { id : int; freq : float }

let absent = min_int

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ?(depth = 5) ?(width_factor = 8) ?(clamp = true) ~phi ~seed () =
  if phi <= 0.0 || phi > 1.0 then invalid_arg "F2_heavy_hitter.create: phi must be in (0, 1]";
  let width = max 4 (int_of_float (ceil (float_of_int width_factor /. phi))) in
  let cap = max 4 (int_of_float (ceil (4.0 /. phi))) in
  let maxocc = (2 * cap) + 1 in
  let slots = pow2_at_least (2 * maxocc) 16 in
  {
    phi;
    clamp;
    cs = Count_sketch.create ~depth ~width ~seed:(Mkc_hashing.Splitmix.fork seed 0) ();
    cap;
    tkeys = Array.make slots absent;
    tvals = Array.make slots 0;
    tmask = slots - 1;
    sid = Array.make maxocc 0;
    scnt = Array.make maxocc 0;
    tn = 0;
    prunes = 0;
  }

let[@inline] slot_of t i =
  let h = i * 0x2545_F491_4F6C_DD1D in
  (h lxor (h lsr 23)) land t.tmask

(* Find the slot holding [i], or the empty slot where it would go.
   Tail-recursive: no refs, no allocation on the per-update path. *)
let rec probe keys mask i s =
  let k = Array.unsafe_get keys s in
  if k = i || k = absent then s else probe keys mask i ((s + 1) land mask)

(* Prune order: count descending with an id tie-break.  Which
   candidates survive must be a function of the (id, count) multiset
   alone, never of table layout — a restored or merged table has a
   different slot arrangement but must prune identically.  Tracked ids
   are distinct, so this order is strict and total and the top-[cap]
   set is unique: [prune] only has to select it, not sort it, and the
   survivors' slot layout afterwards is unobservable ([dump] and
   [candidates] sort their results). *)
let[@inline] sorts_after t i j =
  let ci = Array.unsafe_get t.scnt i and cj = Array.unsafe_get t.scnt j in
  ci < cj || (ci = cj && Array.unsafe_get t.sid i > Array.unsafe_get t.sid j)

let swap_scratch t i j =
  let c = t.scnt.(i) in
  t.scnt.(i) <- t.scnt.(j);
  t.scnt.(j) <- c;
  let d = t.sid.(i) in
  t.sid.(i) <- t.sid.(j);
  t.sid.(j) <- d

(* Sift down in the heap over scratch [lo, lo+n) whose root is the entry
   that sorts last. *)
let rec sift t lo n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let m = if sorts_after t (lo + l) (lo + i) then l else i in
    let r = l + 1 in
    let m = if r < n && sorts_after t (lo + r) (lo + m) then r else m in
    if m <> i then begin
      swap_scratch t (lo + i) (lo + m);
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
      swap_scratch t lo e;
      sift t lo n 0
    end
  done

(* Lomuto partition of [lo, hi) around the median of its first, middle
   and last entries; returns the pivot's final index. *)
let partition t lo hi =
  let mid = lo + ((hi - lo) / 2) and last = hi - 1 in
  if sorts_after t lo mid then swap_scratch t lo mid;
  if sorts_after t mid last then swap_scratch t mid last;
  if sorts_after t lo mid then swap_scratch t lo mid;
  swap_scratch t mid last;
  let store = ref lo in
  for i = lo to last - 1 do
    if sorts_after t last i then begin
      swap_scratch t i !store;
      incr store
    end
  done;
  swap_scratch t !store last;
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

(* Insert without overflow checks: only called while rebuilding below
   cap occupancy. *)
let reinsert t id c =
  let s = probe t.tkeys t.tmask id (slot_of t id) in
  t.tkeys.(s) <- id;
  t.tvals.(s) <- c;
  t.tn <- t.tn + 1

let prune t =
  t.prunes <- t.prunes + 1;
  let n = ref 0 in
  for s = 0 to t.tmask do
    if Array.unsafe_get t.tkeys s <> absent then begin
      t.sid.(!n) <- Array.unsafe_get t.tkeys s;
      t.scnt.(!n) <- Array.unsafe_get t.tvals s;
      incr n;
      Array.unsafe_set t.tkeys s absent
    end
  done;
  let keep = min t.cap !n in
  select t 0 keep !n (2 * log2_floor !n 0);
  t.tn <- 0;
  for j = 0 to keep - 1 do
    reinsert t t.sid.(j) t.scnt.(j)
  done

(* The two halves of an update, separable because they touch disjoint
   state.  The CountSketch half is linear and commutative — updates to
   the same id may be aggregated or reordered freely.  The tracked-count
   half is NOT: [prune] keeps the top-[cap] of the candidate table, and
   which ids are tracked when it fires depends on insertion order — so
   callers that aggregate the CS half per chunk must still replay this
   half in original stream order to stay bit-for-bit with per-item
   [add]. *)
let add_cs t i delta = Count_sketch.add t.cs i delta

(* Backward-shift deletion: clear the hole, then walk the cluster after
   it, sliding back every entry whose probe path crosses the hole.
   Probe sequences stay unbroken with no tombstones; the serialized
   form ([dump] sorts by id) depends only on the surviving (id, count)
   multiset, which is what makes insert-then-delete bit-for-bit equal
   to never-inserted on the serialized table. *)
let remove_at t s =
  t.tn <- t.tn - 1;
  let mask = t.tmask in
  let hole = ref s in
  Array.unsafe_set t.tkeys s absent;
  let j = ref ((s + 1) land mask) in
  let continue = ref true in
  while !continue do
    let k = Array.unsafe_get t.tkeys !j in
    if k = absent then continue := false
    else begin
      let h = slot_of t k in
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        Array.unsafe_set t.tkeys !hole k;
        Array.unsafe_set t.tvals !hole (Array.unsafe_get t.tvals !j);
        Array.unsafe_set t.tkeys !j absent;
        hole := !j
      end;
      j := (!j + 1) land mask
    end
  done

let add_tracked t i delta =
  let s = probe t.tkeys t.tmask i (slot_of t i) in
  if Array.unsafe_get t.tkeys s = i then begin
    let c = Array.unsafe_get t.tvals s + delta in
    (* A signed count returning to zero means "never inserted": drop
       the entry so the table matches the insertion-free state.  With
       positive deltas (insertion-only streams) this branch is dead and
       the historical behaviour is bit-for-bit unchanged. *)
    if c = 0 then remove_at t s else Array.unsafe_set t.tvals s c
  end
  else begin
    Array.unsafe_set t.tkeys s i;
    Array.unsafe_set t.tvals s delta;
    t.tn <- t.tn + 1;
    if t.tn > 2 * t.cap then prune t
  end

let add t i delta =
  add_cs t i delta;
  add_tracked t i delta

(* Candidate recovery reads the tracker trimmed to its top [cap]. *)
let settle t = if t.tn > t.cap then prune t

let candidates t =
  settle t;
  (* The CountSketch estimate of a light coordinate can be inflated by
     bucket collisions with a genuinely heavy one; the exact
     since-insertion counter is a sound upper bound in insertion-only
     streams, so report the minimum of the two.  (A heavy coordinate is
     tracked from early on, so its counter is near-exact and the
     (1 ± 1/2) value guarantee is preserved.) *)
  let acc = ref [] in
  for s = 0 to t.tmask do
    let id = t.tkeys.(s) in
    if id <> absent then begin
      let est = Count_sketch.estimate t.cs id in
      let freq = if t.clamp then Float.min est (float_of_int t.tvals.(s)) else est in
      acc := { id; freq } :: !acc
    end
  done;
  List.sort
    (fun a b -> if a.freq <> b.freq then compare b.freq a.freq else compare a.id b.id)
    !acc

let hits t =
  let f2 = Count_sketch.f2_estimate t.cs in
  let threshold = t.phi *. f2 in
  candidates t |> List.filter (fun { freq; _ } -> freq *. freq >= threshold)

let dump t =
  let counts = ref [] in
  for s = 0 to t.tmask do
    if t.tkeys.(s) <> absent then counts := (t.tkeys.(s), t.tvals.(s)) :: !counts
  done;
  let counts = List.sort (fun (a, _) (b, _) -> compare a b) !counts in
  (Count_sketch.dump t.cs, counts, t.prunes)

let clear_tracked t =
  Array.fill t.tkeys 0 (t.tmask + 1) absent;
  t.tn <- 0

(* Insert a restored/merged (id, count); returns false on duplicate. *)
let insert_count t id c =
  let s = probe t.tkeys t.tmask id (slot_of t id) in
  if Array.unsafe_get t.tkeys s = id then false
  else begin
    t.tkeys.(s) <- id;
    t.tvals.(s) <- c;
    t.tn <- t.tn + 1;
    true
  end

let load_state t ~rows ~counts ~prunes =
  if prunes < 0 then Error "f2_hh: negative prune count"
  else if List.length counts > 2 * t.cap then Error "f2_hh: tracked counts exceed cap"
  else
    match Count_sketch.load_state t.cs rows with
    | Error e -> Error e
    | Ok () ->
        clear_tracked t;
        let dup = List.exists (fun (id, c) -> not (insert_count t id c)) counts in
        if dup then begin
          clear_tracked t;
          Error "f2_hh: duplicate tracked id"
        end
        else begin
          t.prunes <- prunes;
          Ok ()
        end

(* The CountSketch half is linear; the tracked half merges by summing
   since-insertion counters (replayed in canonical id order so the
   result is independent of either table's layout).  When neither side
   has pruned this is exactly the single-stream tracked state; once
   prunes have fired the tracker is an approximation either way. *)
let merge_into ~dst src =
  if dst.cap <> src.cap then invalid_arg "F2_heavy_hitter.merge_into: cap mismatch";
  Count_sketch.merge_into ~dst:dst.cs src.cs;
  let _, counts, _ = dump src in
  List.iter (fun (id, c) -> add_tracked dst id c) counts;
  dst.prunes <- dst.prunes + src.prunes

let f2_estimate t = Count_sketch.f2_estimate t.cs
let phi t = t.phi
let tracked t = t.tn
let cap t = t.cap
let shape t = (Count_sketch.depth t.cs, Count_sketch.width t.cs)
let mem t i = Array.unsafe_get t.tkeys (probe t.tkeys t.tmask i (slot_of t i)) = i
let prunes t = t.prunes

(* Logical space: two words per live tracked entry plus the
   CountSketch — same accounting as the historical Hashtbl layout
   (the flat table's 2×-slot preallocation is a bounded constant
   factor; see DESIGN.md). *)
let words t = Count_sketch.words t.cs + (2 * t.tn)
