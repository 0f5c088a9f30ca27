type t = {
  num_levels : int;
  (* One nested sampler drives all class-size guesses: F2C level i
     (class size ≈ 2^i, survival rate oversample/2^i) is the nested
     sampler's level (num_levels - 1 - i), so one hash evaluation per
     update decides every level. *)
  sampler : Sampler.Nested.t;
  hhs : F2_heavy_hitter.t array;
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
  {
    num_levels;
    sampler =
      Sampler.Nested.create ~base_rate ~levels:num_levels ~indep
        ~seed:(Mkc_hashing.Splitmix.fork seed 0);
    hhs =
      Array.init num_levels (fun i ->
          F2_heavy_hitter.create ~depth ~phi ~seed:(Mkc_hashing.Splitmix.fork seed (i + 1)) ());
  }

(* nested level j ↔ F2C level (num_levels - 1 - j); an item surviving
   at nested levels >= code survives at F2C levels
   <= num_levels - 1 - code.  [decide] exposes the sampling decision
   (the keep-level code, -1 = dropped everywhere) so chunk-deduplicated
   callers can evaluate it once per distinct coordinate and replay it
   across that coordinate's updates. *)
let decide t i = Sampler.Nested.min_keep_level_code t.sampler i

let decide_batch t ids ~pos ~len out =
  Sampler.Nested.min_keep_level_batch t.sampler ids ~pos ~len out

let add_tracked_decided t ~code i delta =
  if code >= 0 then
    for lvl = 0 to t.num_levels - 1 - code do
      F2_heavy_hitter.add_tracked (Array.unsafe_get t.hhs lvl) i delta
    done

let add_cs_decided t ~code i delta =
  if code >= 0 then
    for lvl = 0 to t.num_levels - 1 - code do
      F2_heavy_hitter.add_cs (Array.unsafe_get t.hhs lvl) i delta
    done

let add_decided t ~code i delta =
  if code >= 0 then
    for lvl = 0 to t.num_levels - 1 - code do
      F2_heavy_hitter.add (Array.unsafe_get t.hhs lvl) i delta
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

let settle t = Array.iter F2_heavy_hitter.settle t.hhs
let hits t = collect t F2_heavy_hitter.hits
let candidates t = collect t F2_heavy_hitter.candidates
let levels t = Array.length t.hhs

let level t i =
  if i < 0 || i >= t.num_levels then invalid_arg "F2_contributing.level: out of range";
  t.hhs.(i)
let tracked t = Array.fold_left (fun acc hh -> acc + F2_heavy_hitter.tracked hh) 0 t.hhs
let prunes t = Array.fold_left (fun acc hh -> acc + F2_heavy_hitter.prunes hh) 0 t.hhs

let words t =
  Sampler.Nested.words t.sampler
  + Array.fold_left (fun acc hh -> acc + F2_heavy_hitter.words hh) 0 t.hhs

let dump t = Array.map F2_heavy_hitter.dump t.hhs

let load_state t levels =
  if Array.length levels <> t.num_levels then Error "f2c: level count mismatch"
  else begin
    let rec go i =
      if i >= t.num_levels then Ok ()
      else
        let rows, counts, prunes = levels.(i) in
        match F2_heavy_hitter.load_state t.hhs.(i) ~rows ~counts ~prunes with
        | Error e -> Error (Printf.sprintf "f2c level %d: %s" i e)
        | Ok () -> go (i + 1)
    in
    go 0
  end

(* Per-level merge: the subsampling decision is a pure hash of the
   coordinate (same seed on both sides), so the surviving substreams
   partition exactly like the input and levels merge independently. *)
let merge_into ~dst src =
  if dst.num_levels <> src.num_levels then
    invalid_arg "F2_contributing.merge_into: level count mismatch";
  Array.iteri (fun i hh -> F2_heavy_hitter.merge_into ~dst:dst.hhs.(i) hh) src.hhs
