module FSet = Set.Make (Float)

type t = {
  cap : int;
  tab : Tabulation.t;
  token : int; (* identifies the hash function, for merge compatibility *)
  mutable kept : FSet.t;
}

let counter = ref 0

let create ?(cap = 64) ~seed () =
  if cap < 2 then invalid_arg "Kmv.create: cap must be >= 2";
  incr counter;
  { cap; tab = Tabulation.create ~seed; token = !counter; kept = FSet.empty }

let add t x =
  let v = Tabulation.to_unit_float t.tab x in
  if FSet.mem v t.kept then ()
  else if FSet.cardinal t.kept < t.cap then t.kept <- FSet.add v t.kept
  else
    let mx = FSet.max_elt t.kept in
    if v < mx then t.kept <- FSet.add v (FSet.remove mx t.kept)

let estimate t =
  let size = FSet.cardinal t.kept in
  if size < t.cap then float_of_int size
  else float_of_int (t.cap - 1) /. FSet.max_elt t.kept

let copy t = { t with kept = FSet.empty }

let merge a b =
  if a.token <> b.token then
    invalid_arg "Kmv.merge: sketches use different hash functions";
  let union = FSet.union a.kept b.kept in
  let rec trim s = if FSet.cardinal s > a.cap then trim (FSet.remove (FSet.max_elt s) s) else s in
  { a with kept = trim union }

let words t = FSet.cardinal t.kept + Tabulation.words t.tab
