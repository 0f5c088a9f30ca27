type t = {
  bits : int;
  phi : float;
  levels : Mkc_sketch.Count_sketch.t array; (* levels.(l) sketches prefixes of length l+1 *)
}

type hit = { id : int; freq : float }

let create ?(depth = 5) ?(width_factor = 8) ~bits ~phi ~seed () =
  if bits < 1 || bits > 30 then invalid_arg "Dyadic_hh.create: bits must be in [1, 30]";
  if phi <= 0.0 || phi > 1.0 then invalid_arg "Dyadic_hh.create: phi must be in (0, 1]";
  let width = max 4 (int_of_float (ceil (float_of_int width_factor /. phi))) in
  {
    bits;
    phi;
    levels =
      Array.init bits (fun l ->
          Mkc_sketch.Count_sketch.create ~depth ~width ~seed:(Mkc_hashing.Splitmix.fork seed l) ());
  }

let add t i delta =
  if i < 0 || i >= 1 lsl t.bits then invalid_arg "Dyadic_hh.add: coordinate out of range";
  (* register the length-(l+1) prefix of i at level l *)
  for l = 0 to t.bits - 1 do
    Mkc_sketch.Count_sketch.add t.levels.(l) (i lsr (t.bits - 1 - l)) delta
  done

let hits t =
  let leaf = t.levels.(t.bits - 1) in
  let threshold = sqrt (t.phi *. Mkc_sketch.Count_sketch.f2_estimate leaf) in
  (* Refine heavy prefixes level by level.  A coordinate with
     a(i) ≥ √(φ F2) keeps every prefix at least that heavy (prefix
     frequencies only aggregate), so it survives every refinement. *)
  let rec refine l prefixes =
    if l = t.bits then prefixes
    else
      let next =
        List.concat_map
          (fun p ->
            List.filter
              (fun c -> Mkc_sketch.Count_sketch.estimate t.levels.(l) c >= threshold)
              [ 2 * p; (2 * p) + 1 ])
          prefixes
      in
      (* guard against blow-up on adversarial sketches: at most 2/φ
         genuine φ-heavy prefixes exist per level *)
      let cap = max 4 (int_of_float (ceil (4.0 /. t.phi))) in
      let next =
        if List.length next > cap then begin
          let scored =
            List.map (fun c -> (Mkc_sketch.Count_sketch.estimate t.levels.(l) c, c)) next
            |> List.sort (fun (a, _) (b, _) -> compare b a)
          in
          List.filteri (fun i _ -> i < cap) scored |> List.map snd
        end
        else next
      in
      refine (l + 1) next
  in
  refine 0 [ 0 ]
  |> List.map (fun id -> { id; freq = Mkc_sketch.Count_sketch.estimate leaf id })
  |> List.filter (fun h -> h.freq >= threshold)
  |> List.sort (fun a b -> compare b.freq a.freq)

let words t = Array.fold_left (fun acc cs -> acc + Mkc_sketch.Count_sketch.words cs) 0 t.levels
