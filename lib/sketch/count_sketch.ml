type t = {
  depth : int;
  width : int;
  buckets : Mkc_hashing.Pairwise.t array;
  signs : Mkc_hashing.Poly_hash.t array;
  (* Row-major flat counters: row r bucket b lives at [r*width + b].
     One contiguous allocation instead of depth boxed rows — better
     locality on the per-edge path, and the whole sketch state is a
     single preallocated block. *)
  counters : int array;
  row_est : int array; (* [estimate]'s per-row values, sorted in place *)
}

let create ?(depth = 5) ~width ~seed () =
  if depth < 1 then invalid_arg "Count_sketch.create: depth must be >= 1";
  if width < 1 then invalid_arg "Count_sketch.create: width must be >= 1";
  {
    depth;
    width;
    buckets =
      Array.init depth (fun r ->
          Mkc_hashing.Pairwise.create ~range:width ~seed:(Mkc_hashing.Splitmix.fork seed (2 * r)));
    signs =
      Array.init depth (fun r ->
          Mkc_hashing.Poly_hash.create ~indep:4 ~range:2
            ~seed:(Mkc_hashing.Splitmix.fork seed ((2 * r) + 1)));
    counters = Array.make (depth * width) 0;
    row_est = Array.make depth 0;
  }

let sign h x = if Mkc_hashing.Poly_hash.hash h x = 0 then 1 else -1

let add t i delta =
  let cs = t.counters in
  for r = 0 to t.depth - 1 do
    let b = Mkc_hashing.Pairwise.hash (Array.unsafe_get t.buckets r) i in
    let j = (r * t.width) + b in
    Array.unsafe_set cs j
      (Array.unsafe_get cs j + (sign (Array.unsafe_get t.signs r) i * delta))
  done

(* The canonical dump stays a depth x width matrix — checkpoint codecs
   and goldens predate the flat layout. *)
let dump t = Array.init t.depth (fun r -> Array.sub t.counters (r * t.width) t.width)

let load_state t rows =
  if
    Array.length rows <> t.depth
    || Array.exists (fun row -> Array.length row <> t.width) rows
  then Error "count_sketch: row shape mismatch"
  else begin
    Array.iteri (fun r row -> Array.blit row 0 t.counters (r * t.width) t.width) rows;
    Ok ()
  end

(* Every counter is a signed sum over the update stream — linear — so
   merging sketches with the same hashes is pointwise addition. *)
let merge_into ~dst src =
  if dst.depth <> src.depth || dst.width <> src.width then
    invalid_arg "Count_sketch.merge_into: shape mismatch";
  let d = dst.counters and s = src.counters in
  for j = 0 to (dst.depth * dst.width) - 1 do
    d.(j) <- d.(j) + s.(j)
  done

(* Median of the rows' signed counters, insertion-sorted into the
   sketch's own scratch as ints: [float_of_int] is monotone, so the
   median (and the even-depth mean of the two middle rows) is the one a
   float sort would give, and nothing but the result is allocated. *)
let estimate t i =
  let v = t.row_est in
  for r = 0 to t.depth - 1 do
    let b = Mkc_hashing.Pairwise.hash (Array.unsafe_get t.buckets r) i in
    let x = sign (Array.unsafe_get t.signs r) i * Array.unsafe_get t.counters ((r * t.width) + b) in
    let j = ref (r - 1) in
    while !j >= 0 && Array.unsafe_get v !j > x do
      Array.unsafe_set v (!j + 1) (Array.unsafe_get v !j);
      decr j
    done;
    Array.unsafe_set v (!j + 1) x
  done;
  let h = t.depth / 2 in
  if t.depth land 1 = 1 then float_of_int v.(h)
  else (float_of_int v.(h - 1) +. float_of_int v.(h)) /. 2.0

let f2_estimate t =
  let per_row =
    Array.init t.depth (fun r ->
        let acc = ref 0.0 in
        for b = 0 to t.width - 1 do
          let c = float_of_int t.counters.((r * t.width) + b) in
          acc := !acc +. (c *. c)
        done;
        !acc)
  in
  Array.sort compare per_row;
  per_row.(t.depth / 2)

let counters t = t.counters
let depth t = t.depth
let width t = t.width

let words t =
  (t.depth * t.width)
  + Array.fold_left (fun acc h -> acc + Mkc_hashing.Pairwise.words h) 0 t.buckets
  + Array.fold_left (fun acc h -> acc + Mkc_hashing.Poly_hash.words h) 0 t.signs
