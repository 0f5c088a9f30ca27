type instance = {
  gamma_exp : int; (* γ = 2^-gamma_exp *)
  repeat : int;
  store : (int, int list ref) Hashtbl.t; (* set id -> sampled members *)
  mutable pairs : int;
  mutable dead : bool; (* storage cap exceeded (Figure 5's terminate) *)
}

type repeat_state = {
  elem_sampler : Mkc_sketch.Sampler.Nested.t;
  (* level i has rate base·2^i; guess g (γ = 2^-g) uses level G - g *)
  set_sampler : Mkc_sketch.Sampler.Bernoulli.t option; (* M; None = rate 1 *)
  instances : instance array; (* indexed by gamma_exp *)
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
  cap : int; (* per-instance stored-pair cap *)
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
      instances =
        Array.init guesses (fun g ->
            { gamma_exp = g; repeat = r; store = Hashtbl.create 64; pairs = 0; dead = false });
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

let add_pair t inst set elt =
  if not inst.dead then begin
    (match Hashtbl.find_opt inst.store set with
    | Some members -> members := elt :: !members
    | None -> Hashtbl.replace inst.store set (ref [ elt ]));
    inst.pairs <- inst.pairs + 1;
    t.st_pairs_stored <- t.st_pairs_stored + 1;
    if inst.pairs > t.cap then begin
      inst.dead <- true;
      Hashtbl.reset inst.store;
      inst.pairs <- 0
    end
  end

(* The store in set-id order, member lists as held: its fold order is
   layout order, which a restored or merged store does not share. *)
let sorted_store inst =
  Hashtbl.fold (fun id members acc -> (id, !members) :: acc) inst.store []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Turnstile deletion: drop the most recent stored occurrence of
   (set, elt), if any.  Member lists are latest-first, so the first
   match is the latest insert; an emptied list removes its store entry
   outright, leaving the store exactly as if that insert never
   happened.  Sampling decisions are pure hashes of (set, elt), so a
   deletion passes the same filters its insertion did and lands on the
   same instances.  [st_pairs_stored] is the monotone work counter —
   deletions leave it alone.  A dead (capped) instance stays dead. *)
let remove_pair inst set elt =
  if not inst.dead then
    match Hashtbl.find_opt inst.store set with
    | None -> ()
    | Some members -> (
        let rec rm = function
          | [] -> raise Not_found
          | x :: tl -> if x = elt then tl else x :: rm tl
        in
        match rm !members with
        | [] ->
            Hashtbl.remove inst.store set;
            inst.pairs <- inst.pairs - 1
        | l ->
            members := l;
            inst.pairs <- inst.pairs - 1
        | exception Not_found -> ())

let feed_repeat t rs (e : Mkc_stream.Edge.t) =
  t.st_elem_sampler_evals <- t.st_elem_sampler_evals + 1;
  let min_lvl = Mkc_sketch.Sampler.Nested.min_keep_level_code rs.elem_sampler e.elt in
  if min_lvl >= 0 && in_m t rs e.set then begin
    (* Element survives at levels >= min_lvl, i.e. guesses
       g <= (guesses - 1) - min_lvl. *)
    let top_guess = t.guesses - 1 - min_lvl in
    if e.sign > 0 then
      for g = 0 to top_guess do
        add_pair t rs.instances.(g) e.set e.elt
      done
    else
      for g = 0 to top_guess do
        remove_pair rs.instances.(g) e.set e.elt
      done
  end

let feed t e = Array.iter (fun rs -> feed_repeat t rs e) t.repeats

let feed_planned t plan ~red edges ~pos ~len =
  (* Chunk-deduplicated path: nested element decisions once per distinct
     (reduced) element, set-sample membership once per distinct set —
     both served from cross-chunk memo caches — then an in-order replay,
     so add_pair sequences (hence cap/termination points) are exactly
     the per-edge ones.  Eval counters charge the full ne/ns per chunk
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
        let min_lvl = Array.unsafe_get codes ej in
        if min_lvl >= 0 then begin
          let sj = Array.unsafe_get set_idx i in
          if Array.unsafe_get inm sj then begin
            let set = Array.unsafe_get sets sj and elt = Array.unsafe_get red ej in
            let top_guess = t.guesses - 1 - min_lvl in
            if (Array.unsafe_get edges (pos + i)).Mkc_stream.Edge.sign > 0 then
              for g = 0 to top_guess do
                add_pair t rs.instances.(g) set elt
              done
            else
              for g = 0 to top_guess do
                remove_pair rs.instances.(g) set elt
              done
          end
        end
      done)
    t.repeats

let elem_rate t gamma_exp =
  (* level index of guess g is (guesses - 1) - g *)
  float_of_int (1 lsl (t.guesses - 1 - gamma_exp)) *. t.base_rate
  |> min 1.0

let solve t (inst : instance) =
  if inst.dead || Hashtbl.length inst.store = 0 then None
  else begin
    let sets =
      Hashtbl.fold (fun id members acc -> (id, Array.of_list !members) :: acc) inst.store []
      (* Sorted by set id: greedy breaks coverage ties by candidate
         order, so the order fed in must be canonical, not the store's
         layout order (a restored store has a different layout). *)
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let res = Mkc_coverage.Greedy.run_on_subsets ~n:t.params.Params.u ~sets ~k:t.budget in
    (* Figure 5's acceptance filter: sol must be Ω̃(k/α) on the sample,
       otherwise scaling up would manufacture coverage out of noise
       (Lemma 4.23). *)
    if res.coverage >= max 16 (2 * t.budget) then
      let rate = elem_rate t inst.gamma_exp in
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
          provenance = Solution.Small_set { gamma_exp = inst.gamma_exp; repeat = inst.repeat };
        }
    else None
  end

let finalize t =
  (* Per guess γ, average the accepted repeats (maximizing over noisy
     scaled values would bias upward); then take the best guess. *)
  let best = ref None in
  for g = 0 to t.guesses - 1 do
    let accepted =
      Array.to_list t.repeats |> List.filter_map (fun rs -> solve t rs.instances.(g))
    in
    match accepted with
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

(* Packed per sub-instance: pair count, death flag, then the store in
   set-id order (ids as gaps), each member list verbatim. *)
let freeze w t =
  let module Pk = Mkc_sketch.Packed in
  Array.iter
    (fun rs ->
      Array.iter
        (fun inst ->
          Pk.put w inst.pairs;
          Pk.put w (Bool.to_int inst.dead);
          Pk.put_ids w fst
            (fun w (_, members) ->
              Pk.put w (List.length members);
              List.iter (Pk.put w) members)
            (sorted_store inst))
        rs.instances)
    t.repeats

(* Beyond the ranges (set ids in [0, m), members in [0, u)), a stored
   instance is consistent: member lists are non-empty, [pairs] counts
   them and stays within the cap, and a dead instance stores nothing. *)
let thaw r t =
  let module Pk = Mkc_sketch.Packed in
  let p = t.params in
  Array.iter
    (fun rs ->
      Array.iter
        (fun inst ->
          let pairs = Pk.get r in
          let dead = Pk.get_below r 2 = 1 in
          Hashtbl.reset inst.store;
          let stored = ref 0 in
          ignore
            (Pk.get_ids r ~bound:p.Params.m (fun r id ->
                 let n = Pk.get_count r in
                 if n = 0 then Pk.fail r "small_set: empty member list for set %d" id;
                 stored := !stored + n;
                 Hashtbl.replace inst.store id (ref (List.init n (fun _ -> Pk.get_below r p.u))))
              : unit list);
          if pairs <> !stored || pairs > t.cap || (dead && pairs > 0) then
            Pk.fail r "small_set: %d pairs (dead %b) with %d stored, cap %d" pairs dead !stored
              t.cap;
          inst.pairs <- pairs;
          inst.dead <- dead)
        rs.instances)
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

(* Merging a stored sub-instance: sampling decisions are pure hashes
   (same seeds both sides), so shard stores are disjoint-in-time slices
   of the single-stream store.  Member lists are latest-first, so the
   later shard's list is prepended; the pair count is monotone until
   death, so summed pairs exceeding the cap reproduces the single-run
   termination exactly. *)
let merge_instance t dst src =
  if src.dead || dst.dead then begin
    dst.dead <- true;
    Hashtbl.reset dst.store;
    dst.pairs <- 0
  end
  else begin
    sorted_store src
    |> List.iter (fun (id, members) ->
           match Hashtbl.find_opt dst.store id with
           | Some existing -> existing := members @ !existing
           | None -> Hashtbl.replace dst.store id (ref members));
    dst.pairs <- dst.pairs + src.pairs;
    if dst.pairs > t.cap then begin
      dst.dead <- true;
      Hashtbl.reset dst.store;
      dst.pairs <- 0
    end
  end

let merge_into ~dst src =
  Array.iteri
    (fun r (srs : repeat_state) ->
      Array.iteri
        (fun g inst -> merge_instance dst dst.repeats.(r).instances.(g) inst)
        srs.instances)
    src.repeats;
  dst.st_elem_sampler_evals <- dst.st_elem_sampler_evals + src.st_elem_sampler_evals;
  dst.st_set_sampler_evals <- dst.st_set_sampler_evals + src.st_set_sampler_evals;
  dst.st_pairs_stored <- dst.st_pairs_stored + src.st_pairs_stored

let stored_pairs t =
  Array.fold_left
    (fun acc rs -> Array.fold_left (fun acc inst -> acc + inst.pairs) acc rs.instances)
    0 t.repeats

let budget t = t.budget
let cap t = t.cap

let words_breakdown t =
  let samplers = ref 0 and store = ref 0 in
  Array.iter
    (fun rs ->
      samplers :=
        !samplers
        + Mkc_sketch.Sampler.Nested.words rs.elem_sampler
        + (match rs.set_sampler with None -> 0 | Some s -> Mkc_sketch.Sampler.Bernoulli.words s);
      store :=
        !store
        + Array.fold_left
            (fun acc inst -> acc + (2 * inst.pairs) + Hashtbl.length inst.store)
            0 rs.instances)
    t.repeats;
  [ ("samplers", !samplers); ("store", !store) ]

let words t = List.fold_left (fun acc (_, w) -> acc + w) 0 (words_breakdown t)

let dead_instances t =
  Array.fold_left
    (fun acc rs ->
      Array.fold_left (fun acc inst -> if inst.dead then acc + 1 else acc) acc rs.instances)
    0 t.repeats

let stats t =
  [
    ("elem_sampler_evals", t.st_elem_sampler_evals);
    ("set_sampler_evals", t.st_set_sampler_evals);
    ("pairs_stored", t.st_pairs_stored);
    ("dead_instances", dead_instances t);
  ]
