type t = { hash : Mkc_hashing.Poly_hash.t; q : int; m : int }

let create ~m ~q ~indep ~seed =
  if q < 1 then invalid_arg "Superset_partition.create: q must be >= 1";
  { hash = Mkc_hashing.Poly_hash.create ~indep ~range:q ~seed; q; m }

let superset_of t s = Mkc_hashing.Poly_hash.hash t.hash s

let members ?limit t i =
  let out = ref [] and count = ref 0 in
  let cap = Option.value ~default:t.m limit in
  let s = ref 0 in
  while !count < cap && !s < t.m do
    if superset_of t !s = i then begin
      out := !s :: !out;
      incr count
    end;
    incr s
  done;
  List.rev !out

let words t = Mkc_hashing.Poly_hash.words t.hash + 2
