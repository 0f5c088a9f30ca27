module type S = sig
  type t
  type result

  val feed : t -> Edge.t -> unit
  val feed_planned : t -> Chunk_plan.t -> Edge.t array -> pos:int -> len:int -> unit
  val finalize : t -> result
  val words : t -> int
  val words_breakdown : t -> (string * int) list
end

type ('s, 'r) sink = (module S with type t = 's and type result = 'r)
type any = Any : ('s, 'r) sink * 's -> any

let pack m s = Any (m, s)

module Any = struct
  let feed (Any ((module M), s)) e = M.feed s e

  let feed_planned (Any ((module M), s)) plan edges ~pos ~len =
    M.feed_planned s plan edges ~pos ~len

  let words (Any ((module M), s)) = M.words s
  let words_breakdown (Any ((module M), s)) = M.words_breakdown s
end

(* Canonical form of a words_breakdown: duplicate keys merged by sum,
   sorted by key.  Component keys are dot-namespaced by convention
   ("oracle.large_common.l0"), so a sorted list reads as a tree. *)
let canonical_breakdown kvs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    kvs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let prefix_breakdown prefix kvs = List.map (fun (k, v) -> (prefix ^ "." ^ k, v)) kvs
