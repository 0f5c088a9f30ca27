type kept = { id : int; members : int array }

type t = {
  n : int;
  k : int;
  mutable sol : kept list;
}

let create ~n ~k =
  if n < 1 || k < 1 then invalid_arg "Swap_greedy.create: n and k must be >= 1";
  { n; k; sol = [] }

let coverage_map t sol =
  let covered = Array.make t.n 0 in
  List.iter (fun s -> Array.iter (fun e -> covered.(e) <- covered.(e) + 1) s.members) sol;
  covered

(* unique contribution of each kept set: elements covered by it alone *)
let contributions t sol =
  let covered = coverage_map t sol in
  List.map
    (fun s ->
      let unique = ref 0 in
      Array.iter (fun e -> if covered.(e) = 1 then incr unique) s.members;
      (s, !unique))
    sol

let feed t id members =
  let members = Array.of_list (List.sort_uniq compare (Array.to_list members)) in
  if Array.length members > 0 then begin
    let covered = coverage_map t t.sol in
    let fresh = Array.fold_left (fun acc e -> if covered.(e) = 0 then acc + 1 else acc) 0 members in
    if List.length t.sol < t.k then begin
      if fresh > 0 then t.sol <- { id; members } :: t.sol
    end
    else if fresh > 0 then begin
      match
        List.sort (fun (_, a) (_, b) -> compare a b) (contributions t t.sol)
      with
      | (weakest, unique) :: _ when fresh >= 2 * max 1 unique ->
          t.sol <- { id; members } :: List.filter (fun s -> s.id <> weakest.id) t.sol
      | _ -> ()
    end
  end

let result t =
  let covered = coverage_map t t.sol in
  let coverage = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 covered in
  { Mkc_coverage.Greedy.chosen = List.rev_map (fun s -> s.id) t.sol; coverage }

let words t =
  List.fold_left (fun acc s -> acc + Array.length s.members + 2) 0 t.sol
