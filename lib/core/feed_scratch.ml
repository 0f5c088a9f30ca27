type ints = Red | Codes | Sid_sums | Sid_list | Edge_sid | Edge_sign | Work_sid | Work_sign
type flags = Elt_flags | Set_flags

type t = {
  ints : int array array; (* by [ints] role, in declaration order *)
  flags : bool array array;
  plan : Mkc_stream.Chunk_plan.t Lazy.t;
}

let key =
  Domain.DLS.new_key (fun () ->
      let plan = lazy (Mkc_stream.Chunk_plan.create ()) in
      { ints = Array.make 8 [||]; flags = Array.make 2 [||]; plan })

(* Doubling growth.  A grown [Sid_sums] is all [min_int], as the
   invariant keeps the old one between feeds. *)
let grow bufs i n fill =
  let a = bufs.(i) in
  if Array.length a >= n then a
  else begin
    let a = Array.make (max n (2 * Array.length a)) fill in
    bufs.(i) <- a;
    a
  end

let ints role n =
  let i =
    match role with
    | Red -> 0
    | Codes -> 1
    | Sid_sums -> 2
    | Sid_list -> 3
    | Edge_sid -> 4
    | Edge_sign -> 5
    | Work_sid -> 6
    | Work_sign -> 7
  in
  grow (Domain.DLS.get key).ints i n (if role = Sid_sums then min_int else 0)

let flags role n =
  grow (Domain.DLS.get key).flags (match role with Elt_flags -> 0 | Set_flags -> 1) n false

let plan () = Lazy.force (Domain.DLS.get key).plan
