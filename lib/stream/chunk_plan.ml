(* Per-chunk distinct-id grouping: the shared first pass of the
   chunk-deduplicated hash engine.

   [build] scans a chunk once and produces, in reusable scratch (no
   per-chunk allocation once the buffers have grown to a steady state):

   - the distinct set ids of the chunk, in first-appearance order;
   - the distinct raw element values of the chunk, in first-appearance
     order;
   - for every edge of the chunk, the index of its set (resp. element)
     in those distinct tables.

   Downstream consumers evaluate each per-set or per-element hash
   decision once per distinct id and then replay the chunk edge by edge
   through O(1) array lookups, so the final sketch states are exactly
   the per-edge ones — only the evaluation schedule changes.

   Id -> index mapping uses one flat open-addressed (linear-probe) table
   per id kind.  A table is sized by the distinct ids it has held, not
   by the chunk length: it starts at [init_slots] and doubles when an
   insert would take it past load 1/2, and it stays grown across
   builds.  Each slot is two adjacent words: the key, and the build
   stamp packed above the distinct index.  A slot is live only if its
   stamp is the current build's, so "clearing" between chunks is a
   single counter increment, not an O(slots) wipe.  The per-edge cost
   is two probes with no allocation — no Hashtbl buckets, no [Some j]
   per lookup. *)

let init_slots = 256
let idx_bits = 32
let idx_mask = (1 lsl idx_bits) - 1

(* The stamp lives above [idx_bits]; at this value the tables are wiped
   once and the stamp restarts, so a stale slot never reads as live. *)
let max_stamp = max_int lsr idx_bits

(* One id kind's distinct table. *)
type ids = {
  mutable count : int;
  mutable ids : int array; (* distinct ids, first-appearance order; (mask+1)/2 long *)
  mutable mask : int; (* slots - 1 *)
  mutable tab : int array; (* slot s: key at 2s, stamp lsl idx_bits lor index at 2s+1 *)
}

type t = {
  mutable len : int;
  (* per-edge, chunk-relative: index into the distinct tables *)
  mutable set_idx : int array;
  mutable elt_idx : int array;
  sets : ids;
  elts : ids;
  mutable stamp : int;
}

let make_ids () =
  { count = 0; ids = Array.make (init_slots / 2) 0; mask = init_slots - 1;
    tab = Array.make (2 * init_slots) 0 }

let create () =
  { len = 0; set_idx = [||]; elt_idx = [||]; sets = make_ids (); elts = make_ids (); stamp = 0 }

let ensure a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let[@inline] mix x = (x * 0x2545_F491_4F6C_DD1D) lsr 17

(* Double the table and re-insert this build's ids from [ids]; the
   fresh table is all zeros, which no live stamp (>= 1) reads as live. *)
let grow d ~stamp =
  let slots = 2 * (d.mask + 1) in
  let mask = slots - 1 in
  let tab = Array.make (2 * slots) 0 in
  for j = 0 to d.count - 1 do
    let key = d.ids.(j) in
    let s = ref (mix key land mask) in
    while tab.((2 * !s) + 1) <> 0 do
      s := (!s + 1) land mask
    done;
    tab.(2 * !s) <- key;
    tab.((2 * !s) + 1) <- (stamp lsl idx_bits) lor j
  done;
  let ids = Array.make (slots / 2) 0 in
  Array.blit d.ids 0 ids 0 d.count;
  d.mask <- mask;
  d.tab <- tab;
  d.ids <- ids

(* The distinct index of [key] in this build, added on first sight. *)
let rec index d ~stamp key =
  let tab = d.tab and mask = d.mask in
  let s = ref (mix key land mask) in
  while
    Array.unsafe_get tab ((2 * !s) + 1) lsr idx_bits = stamp
    && Array.unsafe_get tab (2 * !s) <> key
  do
    s := (!s + 1) land mask
  done;
  let info = Array.unsafe_get tab ((2 * !s) + 1) in
  if info lsr idx_bits = stamp then info land idx_mask
  else if 2 * (d.count + 1) > mask + 1 then begin
    grow d ~stamp;
    index d ~stamp key
  end
  else begin
    let j = d.count in
    Array.unsafe_set tab (2 * !s) key;
    Array.unsafe_set tab ((2 * !s) + 1) ((stamp lsl idx_bits) lor j);
    Array.unsafe_set d.ids j key;
    d.count <- j + 1;
    j
  end

let build t edges ~pos ~len =
  if len < 0 || pos < 0 || pos + len > Array.length edges then
    invalid_arg "Chunk_plan.build: bad slice";
  if len > idx_mask then invalid_arg "Chunk_plan.build: chunk over 2^32 edges";
  t.len <- len;
  t.set_idx <- ensure t.set_idx len;
  t.elt_idx <- ensure t.elt_idx len;
  if t.stamp = max_stamp then begin
    Array.fill t.sets.tab 0 (Array.length t.sets.tab) 0;
    Array.fill t.elts.tab 0 (Array.length t.elts.tab) 0;
    t.stamp <- 0
  end;
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp and sets = t.sets and elts = t.elts in
  let set_idx = t.set_idx and elt_idx = t.elt_idx in
  sets.count <- 0;
  elts.count <- 0;
  for i = 0 to len - 1 do
    let (e : Edge.t) = Array.unsafe_get edges (pos + i) in
    Array.unsafe_set set_idx i (index sets ~stamp e.set);
    Array.unsafe_set elt_idx i (index elts ~stamp e.elt)
  done

let len t = t.len
let num_sets t = t.sets.count
let num_elts t = t.elts.count

(* Direct array access for hot loops; the first [num_sets] (resp.
   [num_elts], [len]) entries are valid for the current chunk. *)
let sets t = t.sets.ids
let elts t = t.elts.ids
let set_index t = t.set_idx
let elt_index t = t.elt_idx
