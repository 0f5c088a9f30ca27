type guess = {
  v : float;
  covered : Bytes.t;
  mutable count : int;
  mutable sel : int list;
  mutable picked : int;
}

type t = {
  n : int;
  k : int;
  epsilon : float;
  mutable max_single : int;
  guesses : (int, guess) Hashtbl.t; (* keyed by the exponent of (1+ε) *)
}

let create ~n ~k ?(epsilon = 0.1) () =
  if n < 1 || k < 1 then invalid_arg "Sieve.create: n and k must be >= 1";
  if epsilon <= 0.0 then invalid_arg "Sieve.create: epsilon must be positive";
  { n; k; epsilon; max_single = 0; guesses = Hashtbl.create 32 }

let exponent_range t =
  let base = 1.0 +. t.epsilon in
  let lo = int_of_float (Float.floor (log (float_of_int t.max_single) /. log base)) in
  let hi = int_of_float (Float.ceil (log (float_of_int (t.max_single * t.k)) /. log base)) in
  (lo, hi)

let sync_guesses t =
  if t.max_single > 0 then begin
    let lo, hi = exponent_range t in
    let stale =
      Hashtbl.fold (fun e _ acc -> if e < lo || e > hi then e :: acc else acc) t.guesses []
    in
    List.iter (Hashtbl.remove t.guesses) stale;
    for e = lo to hi do
      if not (Hashtbl.mem t.guesses e) then
        Hashtbl.replace t.guesses e
          {
            v = Float.pow (1.0 +. t.epsilon) (float_of_int e);
            covered = Bytes.make t.n '\000';
            count = 0;
            sel = [];
            picked = 0;
          }
    done
  end

let marginal g members =
  let fresh = ref 0 in
  (* [members] may contain duplicates; count each uncovered element once
     by marking as we go, then unmarking is avoided by counting via a
     second scan trick: mark with '\002' provisionally. *)
  Array.iter
    (fun e ->
      if Bytes.get g.covered e = '\000' then begin
        Bytes.set g.covered e '\002';
        incr fresh
      end)
    members;
  Array.iter (fun e -> if Bytes.get g.covered e = '\002' then Bytes.set g.covered e '\000') members;
  !fresh

let admit g members id gain =
  Array.iter (fun e -> Bytes.set g.covered e '\001') members;
  g.count <- g.count + gain;
  g.sel <- id :: g.sel;
  g.picked <- g.picked + 1

let feed t id members =
  let distinct =
    let seen = Hashtbl.create (Array.length members) in
    Array.iter (fun e -> Hashtbl.replace seen e ()) members;
    Hashtbl.length seen
  in
  if distinct > t.max_single then begin
    t.max_single <- distinct;
    sync_guesses t
  end;
  Hashtbl.iter
    (fun _ g ->
      if g.picked < t.k then begin
        let gain = marginal g members in
        let threshold =
          ((g.v /. 2.0) -. float_of_int g.count) /. float_of_int (t.k - g.picked)
        in
        if gain > 0 && float_of_int gain >= threshold then admit g members id gain
      end)
    t.guesses

let result t =
  let best =
    Hashtbl.fold
      (fun _ g acc ->
        match acc with Some b when b.count >= g.count -> acc | _ -> Some g)
      t.guesses None
  in
  match best with
  | None -> { Mkc_coverage.Greedy.chosen = []; coverage = 0 }
  | Some g -> { Mkc_coverage.Greedy.chosen = List.rev g.sel; coverage = g.count }

let words t =
  Hashtbl.fold (fun _ g acc -> acc + ((t.n + 7) / 8) + g.picked + 3) t.guesses 0
