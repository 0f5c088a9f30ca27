(* A stored member is the reduced element with its keep-level in the
   low bits: guess g (γ = 2^-g) reads the members with level <= G - g,
   so one store holds every guess's sub-instance. *)
let level_bits = 6 (* levels are <= G = ⌈log2 α⌉ <= 62 *)

let member elt lvl = (elt lsl level_bits) lor lvl
let elt_of c = c lsr level_bits
let level_of c = c land ((1 lsl level_bits) - 1)

type repeat_state = {
  elem_sampler : Mkc_sketch.Sampler.Nested.t;
  (* level i has rate base·2^i; guess g (γ = 2^-g) uses level G - g *)
  set_sampler : Mkc_sketch.Sampler.Bernoulli.t option; (* M; None = rate 1 *)
  store : (int, int list ref) Hashtbl.t; (* set id -> members, latest first *)
  counts : int array; (* per guess: pairs its sub-instance holds; 0 once dead *)
  mutable live : int;
      (* The lowest live guess.  Guess g's sub-instance contains guess
         g+1's, so its count is never the smaller one and the cap kills
         it first (Figure 5's terminate): dead guesses are a prefix. *)
  (* Planned-path accelerators: ids recur across chunks, so the pure
     seed-determined sampling decisions are memoised instead of
     re-hashed every chunk.  Scratch — uncounted, unchecked-pointed,
     merge-safe (see Large_set for the argument). *)
  elem_memo : Mkc_sketch.Sampler.Memo.t; (* reduced elt -> nested code *)
  set_memo : Mkc_sketch.Sampler.Memo.t; (* set id -> 0/1 in M *)
}

type t = {
  params : Params.t;
  guesses : int; (* G + 1 *)
  budget : int; (* cover budget κ on sub-instances *)
  base_rate : float; (* finest element rate, for scaling *)
  cap : int; (* per-guess stored-pair cap *)
  repeats : repeat_state array;
  (* feed_planned decision scratch, reused across chunks and repeats *)
  mutable sc_codes : int array; (* distinct elt -> nested keep-level code *)
  mutable sc_inm : bool array; (* distinct set -> in set sample M *)
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
      store = Hashtbl.create 64;
      counts = Array.make guesses 0;
      live = 0;
      elem_memo = Mkc_sketch.Sampler.Memo.create ~slots:(min (max 16 p.Params.u) 65536);
      set_memo = Mkc_sketch.Sampler.Memo.create ~slots:(min p.Params.m 65536);
    }
  in
  {
    params;
    guesses;
    budget;
    base_rate;
    cap;
    repeats = Array.init p.oracle_repeats mk_repeat;
    sc_codes = [||];
    sc_inm = [||];
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
  let top = t.guesses - 1 - rs.live in
  if rs.live > from then
    Hashtbl.filter_map_inplace
      (fun _ members ->
        match List.filter (fun c -> level_of c <= top) !members with
        | [] -> None
        | l ->
            members := l;
            Some members)
      rs.store

let bump rs ~top d =
  for g = rs.live to top do
    Array.unsafe_set rs.counts g (Array.unsafe_get rs.counts g + d)
  done

(* A sampled (set, elt) with keep-level [lvl] reaches guesses
   g <= G - lvl.  An insertion is stored once and counted by each live
   guess that reads it ([st_pairs_stored] counts per guess, as the cap
   does).  A turnstile deletion drops the most recent stored occurrence,
   if any: member lists are latest-first, and every duplicate of
   (set, elt) has the same level, so the first match is the latest
   insert; an emptied list removes its set outright, leaving the store
   exactly as if that insert never happened.  Sampling decisions are
   pure hashes of (set, elt), so a deletion passes the same filters its
   insertion did.  A dead guess stays dead. *)
let apply t rs set elt lvl sign =
  let top = t.guesses - 1 - lvl in
  if top >= rs.live then begin
    let c = member elt lvl in
    if sign > 0 then begin
      (match Hashtbl.find rs.store set with
      | members -> members := c :: !members
      | exception Not_found -> Hashtbl.add rs.store set (ref [ c ]));
      bump rs ~top 1;
      t.st_pairs_stored <- t.st_pairs_stored + top - rs.live + 1;
      apply_cap t rs ~from:rs.live
    end
    else
      match Hashtbl.find rs.store set with
      | exception Not_found -> ()
      | members -> (
          let rec rm = function
            | [] -> raise Not_found
            | x :: tl -> if x = c then tl else x :: rm tl
          in
          match rm !members with
          | exception Not_found -> ()
          | l ->
              (match l with [] -> Hashtbl.remove rs.store set | _ -> members := l);
              bump rs ~top (-1))
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
  if Array.length t.sc_codes < ne then
    t.sc_codes <- Array.make (max ne (2 * Array.length t.sc_codes)) 0;
  if Array.length t.sc_inm < ns then
    t.sc_inm <- Array.make (max ns (2 * Array.length t.sc_inm)) false;
  let codes = t.sc_codes and inm = t.sc_inm in
  let sets = Mkc_stream.Chunk_plan.sets plan in
  let set_idx = Mkc_stream.Chunk_plan.set_index plan in
  let elt_idx = Mkc_stream.Chunk_plan.elt_index plan in
  Array.iter
    (fun rs ->
      t.st_elem_sampler_evals <- t.st_elem_sampler_evals + ne;
      (let memo = rs.elem_memo and s = rs.elem_sampler in
       for j = 0 to ne - 1 do
         let x = Array.unsafe_get red j in
         let v = Mkc_sketch.Sampler.Memo.find memo x in
         if v <> Mkc_sketch.Sampler.Memo.absent then Array.unsafe_set codes j v
         else begin
           let c = Mkc_sketch.Sampler.Nested.min_keep_level_code s x in
           Mkc_sketch.Sampler.Memo.store memo x c;
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
            let v = Mkc_sketch.Sampler.Memo.find memo x in
            if v >= 0 then Array.unsafe_set inm j (v = 1)
            else begin
              let b = Mkc_sketch.Sampler.Bernoulli.keep s x in
              Mkc_sketch.Sampler.Memo.store memo x (if b then 1 else 0);
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

(* The store in set-id order, member lists as held: its fold order is
   layout order, which a restored or merged store does not share. *)
let sorted_store rs =
  Hashtbl.fold (fun id members acc -> (id, !members) :: acc) rs.store []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Guess g's sub-instance: each set's members of level <= G - g, latest
   first, sets left empty dropped.  Sorted by set id: greedy breaks
   coverage ties by candidate order, so the order fed in must be
   canonical, not the store's layout order. *)
let sub_instance t rs g =
  let top = t.guesses - 1 - g in
  List.filter_map
    (fun (id, members) ->
      match List.filter_map (fun c -> if level_of c <= top then Some (elt_of c) else None) members with
      | [] -> None
      | l -> Some (id, Array.of_list l))
    (sorted_store rs)

let solve t rs ~repeat g =
  match if g < rs.live then [] else sub_instance t rs g with
  | [] -> None
  | sets ->
    let res = Mkc_coverage.Greedy.run_on_subsets ~n:t.params.Params.u ~sets ~k:t.budget in
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
        (Mkc_coverage.Greedy.run_on_subsets ~n:t.params.Params.u ~sets ~k:t.params.Params.k)
          .chosen
      in
      Some
        {
          Solution.estimate = 0.5 *. float_of_int res.coverage /. rate;
          witness;
          provenance = Solution.Small_set { gamma_exp = g; repeat };
        }
    else None

let finalize t =
  (* Per guess γ, average the accepted repeats (maximizing over noisy
     scaled values would bias upward); then take the best guess. *)
  let best = ref None in
  for g = 0 to t.guesses - 1 do
    let solved = List.mapi (fun repeat rs -> solve t rs ~repeat g) (Array.to_list t.repeats) in
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
      Pk.put_ids w fst
        (fun w (_, members) ->
          Pk.put w (List.length members);
          List.iter (Pk.put w) members)
        (sorted_store rs))
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
      Hashtbl.reset rs.store;
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
             Hashtbl.replace rs.store id (ref (List.init n (fun _ -> get r))))
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
   latest-first, so the later shard's list goes first. *)
let merge_repeat t dst src =
  let from = min dst.live src.live in
  dst.live <- max dst.live src.live;
  for g = 0 to t.guesses - 1 do
    dst.counts.(g) <- (if g < dst.live then 0 else dst.counts.(g) + src.counts.(g))
  done;
  Hashtbl.iter
    (fun id members ->
      match Hashtbl.find_opt dst.store id with
      | Some existing -> existing := !members @ !existing
      | None -> Hashtbl.replace dst.store id (ref !members))
    src.store;
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
      store := !store + (2 * held t rs) + Hashtbl.length rs.store)
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
