type guess = {
  z : int;
  sampler : Mkc_sketch.Sampler.Bernoulli.t option; (* None = rate 1 *)
  store : (int, int list ref) Hashtbl.t; (* set id -> sampled members *)
  mutable pairs : int;
  mutable dead : bool;
}

type t = {
  n : int;
  k : int;
  cap : int; (* per-guess stored-pair cap *)
  guesses : guess list;
}

type result = { chosen : int list; coverage : float; words : int }

let create ~m ~n ~k ?(epsilon = 0.5) ?(seed = 1) () =
  if k < 1 then invalid_arg "Mcgregor_vu.create: k must be >= 1";
  if epsilon <= 0.0 || epsilon > 1.0 then
    invalid_arg "Mcgregor_vu.create: epsilon must be in (0, 1]";
  let root = Mkc_hashing.Splitmix.create seed in
  let sample_const = 8.0 /. (epsilon *. epsilon) in
  let log2f x = Float.max 1.0 (Float.log2 (float_of_int (max 2 x))) in
  let cap =
    max 1024 (int_of_float (sample_const *. float_of_int m *. log2f (m * n) /. 8.0))
  in
  let top = Mkc_hashing.Hash_family.ceil_log2 (max 2 n) in
  let guesses =
    List.init (top - 1) (fun i ->
        let z = 1 lsl (i + 2) in
        let rate = Float.min 1.0 (sample_const *. float_of_int k /. float_of_int z) in
        {
          z;
          sampler =
            (if rate >= 1.0 then None
             else
               Some
                 (Mkc_sketch.Sampler.Bernoulli.create ~rate ~indep:4
                    ~seed:(Mkc_hashing.Splitmix.fork root i)));
          store = Hashtbl.create 64;
          pairs = 0;
          dead = false;
        })
  in
  { n; k; cap; guesses }

let rate_of g =
  match g.sampler with None -> 1.0 | Some s -> Mkc_sketch.Sampler.Bernoulli.rate s

let feed_guess t g (e : Mkc_stream.Edge.t) =
  if not g.dead then begin
    let keep =
      match g.sampler with
      | None -> true
      | Some s -> Mkc_sketch.Sampler.Bernoulli.keep s e.elt
    in
    if keep then begin
      (match Hashtbl.find_opt g.store e.set with
      | Some members -> members := e.elt :: !members
      | None -> Hashtbl.replace g.store e.set (ref [ e.elt ]));
      g.pairs <- g.pairs + 1;
      if g.pairs > t.cap then begin
        (* this guess of OPT was too small: its sample is too dense *)
        g.dead <- true;
        Hashtbl.reset g.store;
        g.pairs <- 0
      end
    end
  end

let feed t e = List.iter (fun g -> feed_guess t g e) t.guesses

let finalize t =
  let best = ref { chosen = []; coverage = 0.0; words = 0 } in
  List.iter
    (fun g ->
      if (not g.dead) && Hashtbl.length g.store > 0 then begin
        let sets =
          Hashtbl.fold (fun id members acc -> (id, Array.of_list !members) :: acc) g.store []
          (* Sorted by set id: greedy breaks coverage ties by candidate
             order, which must not depend on the store's layout. *)
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        let r = Mkc_coverage.Greedy.run_on_subsets ~n:t.n ~sets ~k:t.k in
        (* accept a guess only when greedy's sampled coverage is in the
           regime the element-sampling lemma calibrates: ~ rate·z *)
        let expected = rate_of g *. float_of_int g.z in
        if float_of_int r.coverage >= expected /. 8.0 then begin
          let scaled = float_of_int r.coverage /. rate_of g in
          if scaled > !best.coverage then
            best := { chosen = r.chosen; coverage = scaled; words = 0 }
        end
      end)
    t.guesses;
  let words =
    List.fold_left (fun acc g -> acc + (2 * g.pairs) + 4) 0 t.guesses
  in
  { !best with words }

let words t = List.fold_left (fun acc g -> acc + (2 * g.pairs) + 4) 0 t.guesses
