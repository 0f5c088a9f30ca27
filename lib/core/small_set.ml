(* A stored member is the reduced element with its keep-level in the
   low bits: guess g (γ = 2^-g) reads the members with level <= G - g,
   so one store holds every guess's sub-instance. *)
let level_bits = 6 (* levels are <= G = ⌈log2 α⌉ <= 62 *)

let member elt lvl = (elt lsl level_bits) lor lvl
let elt_of c = c lsr level_bits
let level_of c = c land ((1 lsl level_bits) - 1)

(* One repeat's store: an arena of stored pairs, each slot a member
   code and the slot of the same set's next older pair (-1 at its
   oldest), so a set's members chain latest-first from its head.  Links
   always point to a lower slot.  The arena is fixed-size blocks, added
   as it fills: nothing is sized ahead, and nothing is copied to grow. *)
module Store = struct
  module Heads = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash x = x land max_int
  end)

  let block_bits = 10
  let block = 1 lsl block_bits

  type t = {
    mutable codes : int array array; (* a code is -1 once deleted *)
    mutable older : int array array;
    mutable blocks : int;
    mutable slots : int; (* in use, deleted ones included *)
    mutable deleted : int;
    heads : int ref Heads.t; (* set id -> its latest pair's slot *)
  }

  let create () =
    { codes = [||]; older = [||]; blocks = 0; slots = 0; deleted = 0; heads = Heads.create 64 }

  (* Slots below [slots] lie inside the blocks. *)
  let get a i = Array.unsafe_get (Array.unsafe_get a (i lsr block_bits)) (i land (block - 1))
  let set a i v = Array.unsafe_set (Array.unsafe_get a (i lsr block_bits)) (i land (block - 1)) v
  let sets s = Heads.length s.heads
  let pairs s = s.slots - s.deleted

  (* Blocks are kept: a restored store refills them. *)
  let reset s =
    Heads.reset s.heads;
    s.slots <- 0;
    s.deleted <- 0

  let reserve s n =
    while s.blocks * block < s.slots + n do
      if s.blocks = Array.length s.codes then begin
        let grow a = Array.append a (Array.make (max 4 s.blocks) [||]) in
        s.codes <- grow s.codes;
        s.older <- grow s.older
      end;
      s.codes.(s.blocks) <- Array.make block 0;
      s.older.(s.blocks) <- Array.make block 0;
      s.blocks <- s.blocks + 1
    done

  (* Append [c] as [id]'s latest pair. *)
  let push s id c =
    reserve s 1;
    let i = s.slots in
    set s.codes i c;
    (match Heads.find s.heads id with
    | h ->
        set s.older i !h;
        h := i
    | exception Not_found ->
        set s.older i (-1);
        Heads.add s.heads id (ref i));
    s.slots <- i + 1

  (* Append [n] pairs of [id], given latest first by [code 0] ..
     [code (n-1)] (called in that order), as newer than its stored
     ones: they take the next slots oldest first. *)
  let append_chain s id n code =
    reserve s n;
    let base = s.slots in
    let head = Heads.find_opt s.heads id in
    let oldest = match head with Some h -> !h | None -> -1 in
    for j = 0 to n - 1 do
      let i = base + n - 1 - j in
      set s.codes i (code j);
      set s.older i (if j = n - 1 then oldest else i - 1)
    done;
    s.slots <- base + n;
    match head with Some h -> h := base + n - 1 | None -> Heads.add s.heads id (ref (base + n - 1))

  (* Keep the live pairs of level <= [top] in place, in slot order.
     [remap.(i)] is slot i's new place, or for a dropped slot the new
     place of its nearest kept older pair: links skip the dropped pairs,
     and a set whose chain is left empty goes. *)
  let compact s ~top =
    let remap = Array.make s.slots (-1) in
    let j = ref 0 in
    for i = 0 to s.slots - 1 do
      let c = get s.codes i and o = get s.older i in
      let o = if o < 0 then -1 else remap.(o) in
      if c >= 0 && level_of c <= top then begin
        set s.codes !j c;
        set s.older !j o;
        remap.(i) <- !j;
        incr j
      end
      else remap.(i) <- o
    done;
    s.slots <- !j;
    s.deleted <- 0;
    Heads.filter_map_inplace
      (fun _ h ->
        h := remap.(!h);
        if !h < 0 then None else Some h)
      s.heads

  (* Unlink the latest pair of [id] whose code is [c], if any; a chain
     left empty removes its set, leaving the store exactly as if that
     insert never happened.  Deleted slots are reclaimed once they are
     half the arena. *)
  let delete s id c ~top =
    match Heads.find s.heads id with
    | exception Not_found -> false
    | h ->
        let newer = ref (-1) and i = ref !h in
        while !i >= 0 && get s.codes !i <> c do
          newer := !i;
          i := get s.older !i
        done;
        !i >= 0
        && begin
             let o = get s.older !i in
             if !newer >= 0 then set s.older !newer o
             else if o >= 0 then h := o
             else Heads.remove s.heads id;
             set s.codes !i (-1);
             s.deleted <- s.deleted + 1;
             if 2 * s.deleted > s.slots then compact s ~top;
             true
           end

  (* The codes down a chain from slot [i], latest first. *)
  let rec iter_chain s f i =
    if i >= 0 then begin
      f (get s.codes i);
      iter_chain s f (get s.older i)
    end

  let chain_length s h =
    let n = ref 0 and i = ref h in
    while !i >= 0 do
      incr n;
      i := get s.older !i
    done;
    !n

  (* Append each of [src]'s chains as newer than [s]'s pairs of its set. *)
  let append s src =
    Heads.iter
      (fun id h ->
        let i = ref !h in
        append_chain s id (chain_length src !h) (fun _ ->
            let c = get src.codes !i in
            i := get src.older !i;
            c))
      src.heads

  (* The stored set ids in increasing order: layout order is not
     canonical (a restored or merged store has another one). *)
  let ids s =
    let a = Array.make (Heads.length s.heads) 0 and n = ref 0 in
    Heads.iter
      (fun id _ ->
        a.(!n) <- id;
        incr n)
      s.heads;
    Array.sort Int.compare a;
    a

  let head s id = !(Heads.find s.heads id)
end

type repeat_state = {
  elem_sampler : Mkc_sketch.Sampler.Nested.t;
  (* level i has rate base·2^i; guess g (γ = 2^-g) uses level G - g *)
  set_sampler : Mkc_sketch.Sampler.Bernoulli.t option; (* M; None = rate 1 *)
  store : Store.t;
  counts : int array; (* per guess: pairs its sub-instance holds; 0 once dead *)
  mutable live : int;
      (* The lowest live guess.  Guess g's sub-instance contains guess
         g+1's, so its count is never the smaller one and the cap kills
         it first (Figure 5's terminate): dead guesses are a prefix. *)
  (* Planned-path accelerators: ids recur across chunks, so the pure
     seed-determined sampling decisions are memoised instead of
     re-hashed every chunk.  Scratch — uncounted, unchecked-pointed,
     merge-safe (see Large_set for the argument). *)
  elem_memo : Mkc_sketch.Sampler.Decisions.t; (* reduced elt -> nested code *)
  set_memo : Mkc_sketch.Sampler.Decisions.t; (* set id -> 0/1 in M *)
}

type t = {
  params : Params.t;
  guesses : int; (* G + 1 *)
  budget : int; (* cover budget κ on sub-instances *)
  base_rate : float; (* finest element rate, for scaling *)
  cap : int; (* per-guess stored-pair cap *)
  repeats : repeat_state array;
  mutable st_elem_sampler_evals : int;
  mutable st_set_sampler_evals : int;
  mutable st_pairs_stored : int; (* monotone, unlike stored_pairs *)
}

let create (params : Params.t) ~seed =
  let p = params in
  let g_max = Mkc_hashing.Hash_family.ceil_log2 (max 1 (int_of_float (ceil p.Params.alpha))) in
  let guesses = g_max + 1 in
  let budget =
    max 1 (min p.k (int_of_float (ceil (4.0 *. float_of_int p.k /. p.alpha))))
  in
  (* Element rate for guess g: 16·γ_g·k / (α·u); the nested sampler's
     level 0 carries the finest guess γ = 2^-g_max. *)
  let rate_of_gamma gamma = min 1.0 (64.0 *. gamma *. float_of_int p.k /. (p.alpha *. float_of_int p.u)) in
  let base_rate = rate_of_gamma (Float.pow 2.0 (-.float_of_int g_max)) in
  let set_rate = min 1.0 (2.0 /. p.alpha) in
  let cap =
    (* Lemma 4.21 bounds the stored sub-instance by Õ(m/α²); the
       practical profile instantiates the polylog as 16·log2(mn). *)
    let m_over_a2 = Mkc_hashing.Hash_family.ceil_div p.m (max 1 (int_of_float (p.alpha *. p.alpha))) in
    max 1024 (int_of_float (16.0 *. float_of_int m_over_a2 *. Params.log2f (p.m * max 1 p.n)))
  in
  let mk_repeat r =
    let sd = Mkc_hashing.Splitmix.fork seed r in
    {
      elem_sampler =
        Mkc_sketch.Sampler.Nested.create ~base_rate ~levels:guesses ~indep:p.indep
          ~seed:(Mkc_hashing.Splitmix.fork sd 0);
      set_sampler =
        (if set_rate >= 1.0 then None
         else
           Some
             (Mkc_sketch.Sampler.Bernoulli.create ~rate:set_rate ~indep:p.indep
                ~seed:(Mkc_hashing.Splitmix.fork sd 1)));
      store = Store.create ();
      counts = Array.make guesses 0;
      live = 0;
      elem_memo =
        Mkc_sketch.Sampler.Decisions.create ~universe:p.Params.u ~slots:65536 ~width:`Byte;
      (* Rate 1 keeps every set: nothing to memoise. *)
      set_memo =
        Mkc_sketch.Sampler.Decisions.create
          ~universe:(if set_rate >= 1.0 then 0 else p.Params.m)
          ~slots:65536 ~width:`Byte;
    }
  in
  {
    params;
    guesses;
    budget;
    base_rate;
    cap;
    repeats = Array.init p.oracle_repeats mk_repeat;
    st_elem_sampler_evals = 0;
    st_set_sampler_evals = 0;
    st_pairs_stored = 0;
  }

let in_m t rs set =
  match rs.set_sampler with
  | None -> true
  | Some s ->
      t.st_set_sampler_evals <- t.st_set_sampler_evals + 1;
      Mkc_sketch.Sampler.Bernoulli.keep s set

(* The pairs the store holds: the lowest live guess's count. *)
let held t rs = if rs.live < t.guesses then rs.counts.(rs.live) else 0

(* Kill the guesses whose count passed the cap — a prefix, since counts
   never rise with g.  If [live] has passed [from], drop the members no
   live guess reads any more (level > G - live) and the sets left empty,
   so the store is exactly the lowest live guess's sub-instance. *)
let apply_cap t rs ~from =
  while held t rs > t.cap do
    rs.counts.(rs.live) <- 0;
    rs.live <- rs.live + 1
  done;
  if rs.live > from then Store.compact rs.store ~top:(t.guesses - 1 - rs.live)

let bump rs ~top d =
  for g = rs.live to top do
    Array.unsafe_set rs.counts g (Array.unsafe_get rs.counts g + d)
  done

(* A sampled (set, elt) with keep-level [lvl] reaches guesses
   g <= G - lvl.  An insertion is stored once and counted by each live
   guess that reads it ([st_pairs_stored] counts per guess, as the cap
   does).  A turnstile deletion drops the most recent stored occurrence,
   if any: every duplicate of (set, elt) has the same level, so the
   first match down the set's chain is the latest insert.  Sampling
   decisions are pure hashes of (set, elt), so a deletion passes the
   same filters its insertion did.  A dead guess stays dead. *)
let apply t rs set elt lvl sign =
  let top = t.guesses - 1 - lvl in
  if top >= rs.live then begin
    let c = member elt lvl in
    if sign > 0 then begin
      Store.push rs.store set c;
      bump rs ~top 1;
      t.st_pairs_stored <- t.st_pairs_stored + top - rs.live + 1;
      apply_cap t rs ~from:rs.live
    end
    else if Store.delete rs.store set c ~top:(t.guesses - 1 - rs.live) then bump rs ~top (-1)
  end

let feed_repeat t rs (e : Mkc_stream.Edge.t) =
  t.st_elem_sampler_evals <- t.st_elem_sampler_evals + 1;
  let lvl = Mkc_sketch.Sampler.Nested.min_keep_level_code rs.elem_sampler e.elt in
  if lvl >= 0 && in_m t rs e.set then apply t rs e.set e.elt lvl e.sign

let feed t e = Array.iter (fun rs -> feed_repeat t rs e) t.repeats

let feed_planned t plan ~red edges ~pos ~len =
  (* Chunk-deduplicated path: nested element decisions once per distinct
     (reduced) element, set-sample membership once per distinct set —
     both served from cross-chunk memo caches — then an in-order replay,
     so store sequences (hence cap/termination points) are exactly the
     per-edge ones.  Eval counters charge the full ne/ns per chunk
     (decision consumptions, not hash evaluations), independent of
     cache warmth. *)
  let ns = Mkc_stream.Chunk_plan.num_sets plan in
  let ne = Mkc_stream.Chunk_plan.num_elts plan in
  let codes = Feed_scratch.(ints Codes) ne and inm = Feed_scratch.(flags Set_flags) ns in
  let sets = Mkc_stream.Chunk_plan.sets plan in
  let set_idx = Mkc_stream.Chunk_plan.set_index plan in
  let elt_idx = Mkc_stream.Chunk_plan.elt_index plan in
  Array.iter
    (fun rs ->
      t.st_elem_sampler_evals <- t.st_elem_sampler_evals + ne;
      (let memo = rs.elem_memo and s = rs.elem_sampler in
       for j = 0 to ne - 1 do
         let x = Array.unsafe_get red j in
         let v = Mkc_sketch.Sampler.Decisions.find memo x in
         if v <> Mkc_sketch.Sampler.Decisions.absent then Array.unsafe_set codes j v
         else begin
           let c = Mkc_sketch.Sampler.Nested.min_keep_level_code s x in
           Mkc_sketch.Sampler.Decisions.store memo x c;
           Array.unsafe_set codes j c
         end
       done);
      (match rs.set_sampler with
      | None -> Array.fill inm 0 ns true
      | Some s ->
          t.st_set_sampler_evals <- t.st_set_sampler_evals + ns;
          let memo = rs.set_memo in
          for j = 0 to ns - 1 do
            let x = Array.unsafe_get sets j in
            let v = Mkc_sketch.Sampler.Decisions.find memo x in
            if v >= 0 then Array.unsafe_set inm j (v = 1)
            else begin
              let b = Mkc_sketch.Sampler.Bernoulli.keep s x in
              Mkc_sketch.Sampler.Decisions.store memo x (if b then 1 else 0);
              Array.unsafe_set inm j b
            end
          done);
      for i = 0 to len - 1 do
        let ej = Array.unsafe_get elt_idx i in
        let lvl = Array.unsafe_get codes ej in
        if lvl >= 0 then begin
          let sj = Array.unsafe_get set_idx i in
          if Array.unsafe_get inm sj then
            apply t rs (Array.unsafe_get sets sj) (Array.unsafe_get red ej) lvl
              (Array.unsafe_get edges (pos + i)).Mkc_stream.Edge.sign
        end
      done)
    t.repeats

let elem_rate t gamma_exp =
  (* level index of guess g is (guesses - 1) - g *)
  float_of_int (1 lsl (t.guesses - 1 - gamma_exp)) *. t.base_rate
  |> min 1.0

(* The store as one CSR in set-id order — member codes, levels kept,
   latest first — built once per finalize. *)
type csr = { ids : int array; off : int array; members : int array }

let csr rs =
  let ids = Store.ids rs.store in
  let off = Array.make (Array.length ids + 1) 0 in
  let members = Array.make (Store.pairs rs.store) 0 in
  Array.iteri
    (fun i id ->
      let j = ref off.(i) in
      Store.iter_chain rs.store
        (fun c ->
          members.(!j) <- c;
          incr j)
        (Store.head rs.store id);
      off.(i + 1) <- !j)
    ids;
  { ids; off; members }

(* Guess g's sub-instance in one level-filtered pass: each set's
   elements of level <= G - g, sets left empty dropped.  Set-id order
   stays: greedy breaks coverage ties by candidate order, so the order
   fed in must be canonical.  The guess's pair count sizes it. *)
let sub_instance t rs st g =
  let top = t.guesses - 1 - g in
  let ns = Array.length st.ids in
  let ids = Array.make ns 0 and off = Array.make (ns + 1) 0 in
  let elts = Array.make rs.counts.(g) 0 in
  let j = ref 0 and s = ref 0 in
  for i = 0 to ns - 1 do
    let start = !j in
    for q = st.off.(i) to st.off.(i + 1) - 1 do
      let c = Array.unsafe_get st.members q in
      if level_of c <= top then begin
        elts.(!j) <- elt_of c;
        incr j
      end
    done;
    if !j > start then begin
      ids.(!s) <- st.ids.(i);
      incr s;
      off.(!s) <- !j
    end
  done;
  (Array.sub ids 0 !s, off, elts)

let solve t rs st ~repeat g =
  let ids, off, elts = if g < rs.live then ([||], [||], [||]) else sub_instance t rs st g in
  if Array.length ids = 0 then None
  else begin
    let n = t.params.Params.u in
    let res = Mkc_coverage.Greedy.run_csr ~n ~ids ~off ~elts ~k:t.budget in
    (* Figure 5's acceptance filter: sol must be Ω̃(k/α) on the sample,
       otherwise scaling up would manufacture coverage out of noise
       (Lemma 4.23). *)
    if res.coverage >= max 16 (2 * t.budget) then
      let rate = elem_rate t g in
      (* Conservative 1/2 scale: greedy maximizes over sampled
         intersections, so the naive inverse-rate scale-up is biased
         upward (the oracle must not overestimate, Lemma 4.23). *)
      let witness () =
        (* The ESTIMATE is tied to the analyzed budget κ, but the
           reporting budget is k (Theorem 3.2's +k term): extend greedy
           on the stored sub-instance up to k sets — extra picks can
           only increase the reported cover's true coverage. *)
        (Mkc_coverage.Greedy.run_csr ~n ~ids ~off ~elts ~k:t.params.Params.k).chosen
      in
      Some
        {
          Solution.estimate = 0.5 *. float_of_int res.coverage /. rate;
          witness;
          provenance = Solution.Small_set { gamma_exp = g; repeat };
        }
    else None
  end

let finalize t =
  (* Per guess γ, average the accepted repeats (maximizing over noisy
     scaled values would bias upward); then take the best guess. *)
  let best = ref None in
  let stores = Array.map csr t.repeats in
  for g = 0 to t.guesses - 1 do
    let solved =
      List.init (Array.length t.repeats) (fun repeat ->
          solve t t.repeats.(repeat) stores.(repeat) ~repeat g)
    in
    match List.filter_map Fun.id solved with
    | [] -> ()
    | outs ->
        let mean =
          List.fold_left (fun a (o : Solution.outcome) -> a +. o.estimate) 0.0 outs
          /. float_of_int (List.length outs)
        in
        let top =
          List.fold_left
            (fun acc (o : Solution.outcome) ->
              match acc with
              | Some (b : Solution.outcome) when b.estimate >= o.estimate -> acc
              | _ -> Some o)
            None outs
        in
        (match top with
        | Some o ->
            let cand = { o with Solution.estimate = mean } in
            (match !best with
            | Some (b : Solution.outcome) when b.estimate >= mean -> ()
            | _ -> best := Some cand)
        | None -> ())
  done;
  !best

(* Packed per repeat: the lowest live guess, then the one store in
   set-id order (ids as gaps), each member list verbatim.  The per-guess
   counts are recomputed from the levels. *)
let freeze w t =
  let module Pk = Mkc_sketch.Packed in
  Array.iter
    (fun rs ->
      Pk.put w rs.live;
      Pk.put_ids w Fun.id
        (fun w id ->
          let h = Store.head rs.store id in
          Pk.put w (Store.chain_length rs.store h);
          Store.iter_chain rs.store (Pk.put w) h)
        (Array.to_list (Store.ids rs.store)))
    t.repeats

(* Beyond the ranges (live in [0, G+1], set ids in [0, m), members in
   [0, u), levels in [0, G - live]), a stored repeat is consistent:
   member lists are non-empty and the counts they imply stay within the
   cap. *)
let thaw r t =
  let module Pk = Mkc_sketch.Packed in
  let p = t.params in
  Array.iter
    (fun rs ->
      let live = Pk.get_below r (t.guesses + 1) in
      let top = t.guesses - 1 - live in
      Store.reset rs.store;
      Array.fill rs.counts 0 t.guesses 0;
      rs.live <- live;
      ignore
        (Pk.get_ids r ~bound:p.Params.m (fun r id ->
             let n = Pk.get_count r in
             if n = 0 then Pk.fail r "small_set: empty member list for set %d" id;
             let get r =
               let c = Pk.get r in
               if c < 0 || elt_of c >= p.u || level_of c > top then
                 Pk.fail r "small_set: member %d of set %d outside [0, %d) or above level %d" c id
                   p.u top;
               bump rs ~top:(t.guesses - 1 - level_of c) 1;
               c
             in
             Store.append_chain rs.store id n (fun _ -> get r))
          : unit list);
      if held t rs > t.cap then
        Pk.fail r "small_set: %d pairs at guess %d, cap %d" (held t rs) live t.cap)
    t.repeats;
  t.st_elem_sampler_evals <- 0;
  t.st_set_sampler_evals <- 0;
  t.st_pairs_stored <- 0

let freeze_work w t =
  List.iter (Mkc_sketch.Packed.put w)
    [ t.st_elem_sampler_evals; t.st_set_sampler_evals; t.st_pairs_stored ]

let thaw_work r t =
  t.st_elem_sampler_evals <- Mkc_sketch.Packed.get r;
  t.st_set_sampler_evals <- Mkc_sketch.Packed.get r;
  t.st_pairs_stored <- Mkc_sketch.Packed.get r

(* Merging a repeat: sampling decisions are pure hashes (same seeds
   both sides), so shard stores are disjoint-in-time slices of the
   single-stream store.  A guess dead on either side is dead; the live
   counts sum, and since a count is monotone until death, a sum over the
   cap reproduces the single-run termination exactly.  Member lists are
   latest-first, so the later shard's pairs go in as the newer ones. *)
let merge_repeat t dst src =
  let from = min dst.live src.live in
  dst.live <- max dst.live src.live;
  for g = 0 to t.guesses - 1 do
    dst.counts.(g) <- (if g < dst.live then 0 else dst.counts.(g) + src.counts.(g))
  done;
  Store.append dst.store src.store;
  apply_cap t dst ~from

let merge_into ~dst src =
  Array.iteri (fun r srs -> merge_repeat dst dst.repeats.(r) srs) src.repeats;
  dst.st_elem_sampler_evals <- dst.st_elem_sampler_evals + src.st_elem_sampler_evals;
  dst.st_set_sampler_evals <- dst.st_set_sampler_evals + src.st_set_sampler_evals;
  dst.st_pairs_stored <- dst.st_pairs_stored + src.st_pairs_stored

let stored_pairs t =
  Array.fold_left (fun acc rs -> Array.fold_left ( + ) acc rs.counts) 0 t.repeats

let budget t = t.budget
let cap t = t.cap

(* The store is the lowest live guess's sub-instance: 2 words per pair
   plus 1 per set. *)
let words_breakdown t =
  let samplers = ref 0 and store = ref 0 in
  Array.iter
    (fun rs ->
      samplers :=
        !samplers
        + Mkc_sketch.Sampler.Nested.words rs.elem_sampler
        + (match rs.set_sampler with None -> 0 | Some s -> Mkc_sketch.Sampler.Bernoulli.words s);
      store := !store + (2 * held t rs) + Store.sets rs.store)
    t.repeats;
  [ ("samplers", !samplers); ("store", !store) ]

let words t = List.fold_left (fun acc (_, w) -> acc + w) 0 (words_breakdown t)

let stats t =
  [
    ("elem_sampler_evals", t.st_elem_sampler_evals);
    ("set_sampler_evals", t.st_set_sampler_evals);
    ("pairs_stored", t.st_pairs_stored);
    ("dead_instances", Array.fold_left (fun acc rs -> acc + rs.live) 0 t.repeats);
  ]
