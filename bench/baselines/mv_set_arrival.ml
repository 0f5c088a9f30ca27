type guess = {
  v : int;
  rate : float;
  sampler : Mkc_sketch.Sampler.Bernoulli.t option; (* None = rate 1 *)
  covered : (int, unit) Hashtbl.t; (* sampled covered elements *)
  mutable count : int;
  mutable chosen : int list;
  mutable picked : int;
}

type t = {
  k : int;
  epsilon : float;
  seed : int;
  mutable max_single : int;
  guesses : (int, guess) Hashtbl.t; (* keyed by log2 v *)
}

type result = { chosen : int list; coverage : float }

let create ?(epsilon = 0.5) ?(seed = 1) ~k () =
  if k < 1 then invalid_arg "Mv_set_arrival.create: k must be >= 1";
  if epsilon <= 0.0 || epsilon > 1.0 then
    invalid_arg "Mv_set_arrival.create: epsilon must be in (0, 1]";
  { k; epsilon; seed; max_single = 0; guesses = Hashtbl.create 16 }

let sample_rate t v =
  Float.min 1.0
    (8.0 *. float_of_int t.k /. (t.epsilon *. t.epsilon *. float_of_int v))

let sync_guesses t =
  if t.max_single > 0 then begin
    let lo = Mkc_hashing.Hash_family.ceil_log2 t.max_single in
    let hi = Mkc_hashing.Hash_family.ceil_log2 (t.max_single * t.k) in
    let stale =
      Hashtbl.fold (fun e _ acc -> if e < lo || e > hi then e :: acc else acc) t.guesses []
    in
    List.iter (Hashtbl.remove t.guesses) stale;
    for e = lo to hi do
      if not (Hashtbl.mem t.guesses e) then begin
        let v = 1 lsl e in
        let rate = sample_rate t v in
        Hashtbl.replace t.guesses e
          {
            v;
            rate;
            sampler =
              (if rate >= 1.0 then None
               else
                 Some
                   (Mkc_sketch.Sampler.Bernoulli.create ~rate ~indep:4
                      ~seed:(Mkc_hashing.Splitmix.create (t.seed + (131 * e)))));
            covered = Hashtbl.create 64;
            count = 0;
            chosen = [];
            picked = 0;
          }
      end
    done
  end

let in_sample g e =
  match g.sampler with None -> true | Some s -> Mkc_sketch.Sampler.Bernoulli.keep s e

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
        let fresh = ref [] in
        Array.iter
          (fun e ->
            if in_sample g e && not (Hashtbl.mem g.covered e) && not (List.mem e !fresh) then
              fresh := e :: !fresh)
          members;
        let gain = List.length !fresh in
        let threshold = g.rate *. float_of_int g.v /. (2.0 *. float_of_int t.k) in
        if gain > 0 && float_of_int gain >= threshold then begin
          List.iter (fun e -> Hashtbl.replace g.covered e ()) !fresh;
          g.count <- g.count + gain;
          g.chosen <- id :: g.chosen;
          g.picked <- g.picked + 1
        end
      end)
    t.guesses

let result t =
  let best = ref { chosen = []; coverage = 0.0 } in
  Hashtbl.iter
    (fun _ g ->
      let scaled = float_of_int g.count /. g.rate in
      if scaled > !best.coverage then best := { chosen = List.rev g.chosen; coverage = scaled })
    t.guesses;
  !best

let words t =
  Hashtbl.fold
    (fun _ g acc -> acc + Hashtbl.length g.covered + g.picked + 4)
    t.guesses 0
