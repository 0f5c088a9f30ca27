type t = {
  params : Params.t;
  sampler : Mkc_sketch.Sampler.Nested.t; (* over set ids; level g ~ β = 2^g *)
  sketches : Mkc_sketch.L0_bjkst.t array; (* one per level *)
  memo : Mkc_sketch.Sampler.Memo.t; (* set id -> keep-level code *)
  mutable st_sampler_evals : int;
  mutable st_l0_updates : int;
  mutable st_memo_hits : int;
}

let num_levels params =
  1 + Mkc_hashing.Hash_family.ceil_log2 (max 1 (int_of_float (ceil params.Params.alpha)))

let create (params : Params.t) ~seed =
  let levels = num_levels params in
  let base_rate = float_of_int params.k /. float_of_int params.m in
  {
    params;
    sampler =
      Mkc_sketch.Sampler.Nested.create ~base_rate ~levels ~indep:params.indep
        ~seed:(Mkc_hashing.Splitmix.fork seed 0);
    sketches =
      Array.init levels (fun g ->
          Mkc_sketch.L0_bjkst.create ~seed:(Mkc_hashing.Splitmix.fork seed (g + 1)) ());
    (* Enough slots for one per set on the instance sizes we target, so
       steady-state misses vanish; capped so memo space stays O(1)
       words per instance relative to the Õ(m/α²) budget. *)
    memo = Mkc_sketch.Sampler.Memo.create ~slots:(min (max 1 params.Params.m) 4096);
    st_sampler_evals = 0;
    st_l0_updates = 0;
    st_memo_hits = 0;
  }

(* The set-sampling decision for a set id, through the memo: a hit
   returns the cached keep-level code, a miss evaluates the hash (the
   only place [st_sampler_evals] is counted) and caches it.  Values only
   ever enter the memo from a fresh evaluation, so the decision is
   always exactly the hash's — the memo changes how often the polynomial
   is evaluated, never what it says. *)
let keep_code t id =
  let c = Mkc_sketch.Sampler.Memo.find t.memo id in
  if c <> Mkc_sketch.Sampler.Memo.absent then begin
    t.st_memo_hits <- t.st_memo_hits + 1;
    c
  end
  else begin
    t.st_sampler_evals <- t.st_sampler_evals + 1;
    let c = Mkc_sketch.Sampler.Nested.min_keep_level_code t.sampler id in
    Mkc_sketch.Sampler.Memo.store t.memo id c;
    c
  end

let add_levels t finest elt =
  (* Nesting: a set sampled at level [finest] belongs to every coarser
     (higher-rate) level's collection too. *)
  let top = Array.length t.sketches - 1 in
  t.st_l0_updates <- t.st_l0_updates + (top - finest + 1);
  for g = finest to top do
    Mkc_sketch.L0_bjkst.add (Array.unsafe_get t.sketches g) elt
  done

(* Turnstile note: the per-level collections are set-variant L0 sketches
   (insertion-only), so deletions bypass them — a level's distinct-cover
   estimate over a churned stream is an upper bound on the live
   coverage (the windowed mode bounds staleness instead; DESIGN.md,
   turnstile section).  The sampler decision is still consumed for
   every edge so eval counters stay sign-independent. *)
let feed t (e : Mkc_stream.Edge.t) =
  let finest = keep_code t e.set in
  if finest >= 0 && e.sign > 0 then add_levels t finest e.elt

let feed_planned t plan ~red edges ~pos ~len =
  (* Decide once per distinct set id, then replay the chunk in original
     edge order — L0 updates land in exactly the per-edge sequence, so
     sketch states (prune points included) are bit-for-bit identical. *)
  let ns = Mkc_stream.Chunk_plan.num_sets plan in
  let codes = Feed_scratch.(ints Codes) ns in
  let sets = Mkc_stream.Chunk_plan.sets plan in
  for j = 0 to ns - 1 do
    Array.unsafe_set codes j (keep_code t (Array.unsafe_get sets j))
  done;
  let set_idx = Mkc_stream.Chunk_plan.set_index plan in
  let elt_idx = Mkc_stream.Chunk_plan.elt_index plan in
  for i = 0 to len - 1 do
    let finest = Array.unsafe_get codes (Array.unsafe_get set_idx i) in
    if finest >= 0 && (Array.unsafe_get edges (pos + i)).Mkc_stream.Edge.sign > 0 then
      add_levels t finest (Array.unsafe_get red (Array.unsafe_get elt_idx i))
  done

let sampler_evals t = t.st_sampler_evals
let beta_of_level g = 1 lsl g

let coverage_estimates t =
  Array.to_list
    (Array.mapi (fun g sk -> (beta_of_level g, Mkc_sketch.L0_bjkst.estimate sk)) t.sketches)

let witness t level () =
  (* Enumerate the sampled sets of the winning level from the stored
     hash seed; truncate to k ids (a uniform k-subset of F^rnd). *)
  let out = ref [] and count = ref 0 in
  let m = t.params.Params.m and k = t.params.Params.k in
  let s = ref 0 in
  while !count < k && !s < m do
    if Mkc_sketch.Sampler.Nested.keep t.sampler ~level !s then begin
      out := !s :: !out;
      incr count
    end;
    incr s
  done;
  List.rev !out

let finalize t =
  let p = t.params in
  let u = float_of_int p.Params.u in
  let best = ref None in
  Array.iteri
    (fun g sk ->
      let beta = float_of_int (beta_of_level g) in
      let v = Mkc_sketch.L0_bjkst.estimate sk in
      if v >= p.sigma *. beta *. u /. (4.0 *. p.alpha) then begin
        let est = 2.0 *. v /. (3.0 *. beta) in
        match !best with
        | Some (b, _) when b >= est -> ()
        | _ -> best := Some (est, g)
      end)
    t.sketches;
  Option.map
    (fun (est, g) ->
      {
        Solution.estimate = est;
        witness = witness t g;
        provenance = Solution.Large_common { beta = beta_of_level g };
      })
    !best

(* The packed state holds only the L0 sketches: the memo is an
   accelerator and the counters are work done, neither of which a merge
   source needs.  A checkpoint adds both as its work tail, so a resumed
   run replays the uninterrupted run's hit/miss sequence. *)
let freeze w t = Array.iter (Mkc_sketch.Packed.put_l0 w) t.sketches

let thaw r t =
  Array.iter (Mkc_sketch.Packed.get_l0 r) t.sketches;
  t.st_sampler_evals <- 0;
  t.st_l0_updates <- 0;
  t.st_memo_hits <- 0

let freeze_work w t =
  List.iter (Mkc_sketch.Packed.put w) [ t.st_sampler_evals; t.st_l0_updates; t.st_memo_hits ];
  Mkc_sketch.Packed.put_memo w t.memo

let thaw_work r t =
  t.st_sampler_evals <- Mkc_sketch.Packed.get r;
  t.st_l0_updates <- Mkc_sketch.Packed.get r;
  t.st_memo_hits <- Mkc_sketch.Packed.get r;
  Mkc_sketch.Packed.get_memo r t.memo
    ~value:(Mkc_sketch.Sampler.Nested.min_keep_level_code t.sampler)

(* L0 sketches merge exactly (state = pure function of elements seen);
   work counters sum (total work done across shards); the decision memo
   resets — overwrite histories don't compose, and it is a pure
   accelerator, so a rebuild from scratch is always sound. *)
let merge_into ~dst src =
  Array.iteri
    (fun g sk -> Mkc_sketch.L0_bjkst.merge_into ~dst:dst.sketches.(g) sk)
    src.sketches;
  Mkc_sketch.Sampler.Memo.reset dst.memo;
  dst.st_sampler_evals <- dst.st_sampler_evals + src.st_sampler_evals;
  dst.st_l0_updates <- dst.st_l0_updates + src.st_l0_updates;
  dst.st_memo_hits <- dst.st_memo_hits + src.st_memo_hits

let words_breakdown t =
  [
    ("sampler", Mkc_sketch.Sampler.Nested.words t.sampler);
    ("memo", Mkc_sketch.Sampler.Memo.words t.memo);
    ("l0", Array.fold_left (fun acc sk -> acc + Mkc_sketch.L0_bjkst.words sk) 0 t.sketches);
  ]

let words t = List.fold_left (fun acc (_, w) -> acc + w) 0 (words_breakdown t)

let stats t =
  [
    ("sampler_evals", t.st_sampler_evals);
    ("l0_updates", t.st_l0_updates);
    ("memo_hits", t.st_memo_hits);
    ( "l0_prunes",
      Array.fold_left (fun acc sk -> acc + Mkc_sketch.L0_bjkst.prunes sk) 0 t.sketches );
    ( "l0_occupancy",
      Array.fold_left (fun acc sk -> acc + Mkc_sketch.L0_bjkst.occupancy sk) 0 t.sketches );
  ]
