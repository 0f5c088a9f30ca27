type t = {
  num_levels : int;
  (* One nested sampler drives all class-size guesses: F2C level i
     (class size ≈ 2^i, survival rate oversample/2^i) is the nested
     sampler's level (num_levels - 1 - i), so one hash evaluation per
     update decides every level. *)
  sampler : Sampler.Nested.t;
  hhs : F2_heavy_hitter.t array;
  (* Levels [0, first_tracked] hold one candidate tracker (see
     [create]); the tracked halves run at levels
     [first_tracked, num_levels) only, once per tracker. *)
  first_tracked : int;
}

type hit = { id : int; freq : float; level : int }

let create ?(depth = 5) ?(oversample = 2.0) ~gamma ~r ~indep ~seed () =
  if gamma <= 0.0 then invalid_arg "F2_contributing.create: gamma must be positive";
  if r < 1 then invalid_arg "F2_contributing.create: r must be >= 1";
  let num_levels = Mkc_hashing.Hash_family.ceil_log2 r + 1 in
  (* Lemma 2.9: once only ~polylog coordinates of a γ-contributing class
     survive the subsampling, each survivor is an Ω̃(γ)-heavy hitter of
     the substream.  The practical profile folds the polylog divisor
     into φ = γ/2. *)
  let phi = min 1.0 (gamma /. 2.0) in
  let base_rate = oversample /. float_of_int (1 lsl (num_levels - 1)) in
  let sampler =
    Sampler.Nested.create ~base_rate ~levels:num_levels ~indep
      ~seed:(Mkc_hashing.Splitmix.fork seed 0)
  in
  (* The full-rate levels: those whose nested level has range 1 (with
     the default oversample 2, levels 0 and 1).  They keep every
     coordinate, so they see one signed update sequence at one φ and
     their trackers would be equal at every point; one tracker serves
     them all, and only their CountSketches (own seeds) differ. *)
  let rec full i =
    if i < num_levels && Sampler.Nested.rate sampler ~level:(num_levels - 1 - i) = 1.0 then
      full (i + 1)
    else i
  in
  let first_tracked = max 0 (full 0 - 1) in
  let hh0 = F2_heavy_hitter.create ~depth ~phi ~seed:(Mkc_hashing.Splitmix.fork seed 1) () in
  {
    num_levels;
    sampler;
    hhs =
      Array.init num_levels (fun i ->
          if i = 0 then hh0
          else
            F2_heavy_hitter.create ~depth ~phi
              ?share:(if i <= first_tracked then Some hh0 else None)
              ~seed:(Mkc_hashing.Splitmix.fork seed (i + 1))
              ());
    first_tracked;
  }

(* nested level j ↔ F2C level (num_levels - 1 - j); an item surviving
   at nested levels >= code survives at F2C levels
   <= num_levels - 1 - code.  [decide] exposes the sampling decision
   (the keep-level code, -1 = dropped everywhere) so chunk-deduplicated
   callers can evaluate it once per distinct coordinate and replay it
   across that coordinate's updates. *)
let decide t i = Sampler.Nested.min_keep_level_code t.sampler i

let add_cs_decided t ~code i delta =
  if code >= 0 then
    for lvl = 0 to t.num_levels - 1 - code do
      F2_heavy_hitter.add_cs (Array.unsafe_get t.hhs lvl) i delta
    done

(* A kept coordinate ([code >= 0]) reaches every full-rate level, so the
   tracked half starts at [first_tracked] (its tracker serves the levels
   below) and runs once per tracker. *)
let add_decided t ~code i delta =
  add_cs_decided t ~code i delta;
  if code >= 0 then
    for lvl = t.first_tracked to t.num_levels - 1 - code do
      F2_heavy_hitter.add_tracked (Array.unsafe_get t.hhs lvl) i delta
    done

let add t i delta = add_decided t ~code:(decide t i) i delta

let dedup hits =
  let best = Hashtbl.create 16 in
  List.iter
    (fun (h : hit) ->
      match Hashtbl.find_opt best h.id with
      | Some (prev : hit) when prev.freq >= h.freq -> ()
      | _ -> Hashtbl.replace best h.id h)
    hits;
  Hashtbl.fold (fun _ h acc -> h :: acc) best []
  |> List.sort (fun a b ->
         if a.freq <> b.freq then compare b.freq a.freq else compare a.id b.id)

let collect t extract =
  Array.to_list t.hhs
  |> List.mapi (fun i hh ->
         extract hh
         |> List.map (fun (h : F2_heavy_hitter.hit) -> { id = h.id; freq = h.freq; level = i }))
  |> List.concat |> dedup

let settle t =
  for lvl = t.first_tracked to t.num_levels - 1 do
    F2_heavy_hitter.settle t.hhs.(lvl)
  done

let hits t = collect t F2_heavy_hitter.hits
let candidates t = collect t F2_heavy_hitter.candidates
let levels t = Array.length t.hhs

let level t i =
  if i < 0 || i >= t.num_levels then invalid_arg "F2_contributing.level: out of range";
  t.hhs.(i)
let first_tracked t = t.first_tracked
let tracked t = Array.fold_left (fun acc hh -> acc + F2_heavy_hitter.tracked hh) 0 t.hhs
let prunes t = Array.fold_left (fun acc hh -> acc + F2_heavy_hitter.prunes hh) 0 t.hhs

let words t =
  Sampler.Nested.words t.sampler
  + Array.fold_left (fun acc hh -> acc + F2_heavy_hitter.words hh) 0 t.hhs

let dump t = Array.map F2_heavy_hitter.dump t.hhs

(* Whether level [i] holds level 0's tracker rather than its own. *)
let shared t i = i > 0 && i <= t.first_tracked

(* A shared level's dumped tracked part must be the one level 0 just
   loaded, or the payload describes a state no stream can reach. *)
let load_tracked t i ~counts ~prunes =
  let hh = level t i in
  if shared t i then
    if counts = F2_heavy_hitter.counts hh && prunes = F2_heavy_hitter.prunes hh then Ok ()
    else Error (Printf.sprintf "f2c level %d: tracked state differs from level 0's, which it shares" i)
  else
    Result.map_error (Printf.sprintf "f2c level %d: %s" i)
      (F2_heavy_hitter.load_tracked hh ~counts ~prunes)

(* Per-level merge: the subsampling decision is a pure hash of the
   coordinate (same seed on both sides), so the surviving substreams
   partition exactly like the input and levels merge independently.  A
   shared tracker merges once, with level 0. *)
let merge_into ~dst src =
  if dst.num_levels <> src.num_levels then
    invalid_arg "F2_contributing.merge_into: level count mismatch";
  Array.iteri
    (fun i hh ->
      if shared dst i then
        Count_sketch.merge_into ~dst:(F2_heavy_hitter.sketch dst.hhs.(i)) (F2_heavy_hitter.sketch hh)
      else F2_heavy_hitter.merge_into ~dst:dst.hhs.(i) hh)
    src.hhs
