type t = {
  groups : int;
  per_group : int;
  signs : Mkc_hashing.Poly_hash.t array; (* one 4-wise sign hash per counter *)
  counters : int array;
}

let create ?(groups = 5) ?(per_group = 16) ~seed () =
  if groups < 1 || per_group < 1 then invalid_arg "F2_ams.create: sizes must be >= 1";
  let total = groups * per_group in
  let signs =
    Array.init total (fun i ->
        Mkc_hashing.Poly_hash.create ~indep:4 ~range:2 ~seed:(Mkc_hashing.Splitmix.fork seed i))
  in
  { groups; per_group; signs; counters = Array.make total 0 }

let sign h x = if Mkc_hashing.Poly_hash.hash h x = 0 then 1 else -1

let add t i delta =
  for c = 0 to Array.length t.counters - 1 do
    t.counters.(c) <- t.counters.(c) + (sign t.signs.(c) i * delta)
  done

let dump t = Array.copy t.counters

let load_state t counters =
  if Array.length counters <> Array.length t.counters then
    Error "f2_ams: counter length mismatch"
  else begin
    Array.blit counters 0 t.counters 0 (Array.length counters);
    Ok ()
  end

(* Each counter is Σ_i s(i)·a[i], linear in the update stream, so the
   merge of two sketches over the same signs is pointwise addition. *)
let merge_into ~dst src =
  if Array.length dst.counters <> Array.length src.counters then
    invalid_arg "F2_ams.merge_into: shape mismatch";
  for c = 0 to Array.length dst.counters - 1 do
    dst.counters.(c) <- dst.counters.(c) + src.counters.(c)
  done

let estimate t =
  let means =
    Array.init t.groups (fun g ->
        let acc = ref 0.0 in
        for j = 0 to t.per_group - 1 do
          let c = float_of_int t.counters.((g * t.per_group) + j) in
          acc := !acc +. (c *. c)
        done;
        !acc /. float_of_int t.per_group)
  in
  Array.sort compare means;
  means.(t.groups / 2)

let words t =
  Array.length t.counters
  + Array.fold_left (fun acc h -> acc + Mkc_hashing.Poly_hash.words h) 0 t.signs
