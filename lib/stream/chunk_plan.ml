(* Per-chunk distinct-id grouping: the shared first pass of the
   chunk-deduplicated hash engine.

   [build] scans a chunk once and produces, in reusable scratch (no
   per-chunk allocation once the buffers have grown to a steady state):

   - the distinct set ids of the chunk, in first-appearance order, with
     per-set edge counts;
   - the distinct raw element values of the chunk, in first-appearance
     order;
   - for every edge of the chunk, the index of its set (resp. element)
     in those distinct tables.

   Downstream consumers evaluate each per-set or per-element hash
   decision once per distinct id and then replay the chunk edge by edge
   through O(1) array lookups, so the final sketch states are exactly
   the per-edge ones — only the evaluation schedule changes.

   Id -> slot mapping uses flat open-addressed (linear-probe) tables
   over preallocated int arrays, sized to a power of two >= 2·chunk_len
   so the load factor stays <= 1/2.  A stamp array versions the slots:
   a slot is live only if its stamp equals the current build's, so
   "clearing" between chunks is a single counter increment, not an
   O(slots) wipe.  The per-edge cost is two probes with no allocation —
   no Hashtbl buckets, no [Some j] per lookup. *)

type t = {
  mutable len : int;
  (* per-edge, chunk-relative: index into the distinct tables *)
  mutable set_idx : int array;
  mutable elt_idx : int array;
  (* distinct sets, first-appearance order *)
  mutable nsets : int;
  mutable sets : int array;
  (* distinct raw element values, first-appearance order *)
  mutable nelts : int;
  mutable elts : int array;
  (* open-addressed id -> distinct-slot tables, stamp-versioned *)
  mutable smask : int;
  mutable skey : int array;
  mutable sval : int array;
  mutable sstamp : int array;
  mutable emask : int;
  mutable ekey : int array;
  mutable eval : int array;
  mutable estamp : int array;
  mutable stamp : int;
}

let init_slots = 2048

let create () =
  {
    len = 0;
    set_idx = [||];
    elt_idx = [||];
    nsets = 0;
    sets = [||];
    nelts = 0;
    elts = [||];
    smask = init_slots - 1;
    skey = Array.make init_slots 0;
    sval = Array.make init_slots 0;
    sstamp = Array.make init_slots 0;
    emask = init_slots - 1;
    ekey = Array.make init_slots 0;
    eval = Array.make init_slots 0;
    estamp = Array.make init_slots 0;
    stamp = 0;
  }

(* Pre-size every buffer for [chunk]-edge builds so the first windows of
   a run pay no growth reallocation — the pool driver's double-buffered
   scratch pair is created at the window width once per run. *)
let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create_sized ~chunk =
  if chunk < 1 then invalid_arg "Chunk_plan.create_sized: chunk must be >= 1";
  let t = create () in
  let slots = pow2_at_least (2 * chunk) init_slots in
  t.set_idx <- Array.make chunk 0;
  t.elt_idx <- Array.make chunk 0;
  t.sets <- Array.make chunk 0;
  t.elts <- Array.make chunk 0;
  t.smask <- slots - 1;
  t.skey <- Array.make slots 0;
  t.sval <- Array.make slots 0;
  t.sstamp <- Array.make slots 0;
  t.emask <- slots - 1;
  t.ekey <- Array.make slots 0;
  t.eval <- Array.make slots 0;
  t.estamp <- Array.make slots 0;
  t

let ensure a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let[@inline] mix x = (x * 0x2545_F491_4F6C_DD1D) lsr 17

let build t edges ~pos ~len =
  if len < 0 || pos < 0 || pos + len > Array.length edges then
    invalid_arg "Chunk_plan.build: bad slice";
  t.len <- len;
  t.set_idx <- ensure t.set_idx len;
  t.elt_idx <- ensure t.elt_idx len;
  t.sets <- ensure t.sets len;
  t.elts <- ensure t.elts len;
  (* Distinct counts are bounded by the chunk length, so power-of-two
     slots >= 2·len keeps the load factor under 1/2 with no mid-chunk
     rehash. *)
  let slots = pow2_at_least (2 * max 1 len) init_slots in
  if slots - 1 > t.smask then begin
    t.smask <- slots - 1;
    t.skey <- Array.make slots 0;
    t.sval <- Array.make slots 0;
    t.sstamp <- Array.make slots 0;
    t.emask <- slots - 1;
    t.ekey <- Array.make slots 0;
    t.eval <- Array.make slots 0;
    t.estamp <- Array.make slots 0;
    t.stamp <- 0
  end;
  t.nsets <- 0;
  t.nelts <- 0;
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let smask = t.smask and skey = t.skey and sval = t.sval and sstamp = t.sstamp in
  let emask = t.emask and ekey = t.ekey and eval = t.eval and estamp = t.estamp in
  for i = 0 to len - 1 do
    let (e : Edge.t) = Array.unsafe_get edges (pos + i) in
    (* set id -> distinct slot *)
    let s = ref (mix e.set land smask) in
    while
      Array.unsafe_get sstamp !s = stamp && Array.unsafe_get skey !s <> e.set
    do
      s := (!s + 1) land smask
    done;
    let sj =
      if Array.unsafe_get sstamp !s = stamp then Array.unsafe_get sval !s
      else begin
        let j = t.nsets in
        Array.unsafe_set sstamp !s stamp;
        Array.unsafe_set skey !s e.set;
        Array.unsafe_set sval !s j;
        t.sets.(j) <- e.set;
        t.nsets <- j + 1;
        j
      end
    in
    (* raw element value -> distinct slot *)
    let p = ref (mix e.elt land emask) in
    while
      Array.unsafe_get estamp !p = stamp && Array.unsafe_get ekey !p <> e.elt
    do
      p := (!p + 1) land emask
    done;
    let ej =
      if Array.unsafe_get estamp !p = stamp then Array.unsafe_get eval !p
      else begin
        let j = t.nelts in
        Array.unsafe_set estamp !p stamp;
        Array.unsafe_set ekey !p e.elt;
        Array.unsafe_set eval !p j;
        t.elts.(j) <- e.elt;
        t.nelts <- j + 1;
        j
      end
    in
    t.set_idx.(i) <- sj;
    t.elt_idx.(i) <- ej
  done

let len t = t.len
let num_sets t = t.nsets
let num_elts t = t.nelts

(* Direct array access for hot loops; the first [num_sets] (resp.
   [num_elts], [len]) entries are valid for the current chunk. *)
let sets t = t.sets
let elts t = t.elts
let set_index t = t.set_idx
let elt_index t = t.elt_idx

let words t =
  Array.length t.set_idx + Array.length t.elt_idx + Array.length t.sets + Array.length t.elts
  + (3 * (t.smask + 1))
  + (3 * (t.emask + 1))
