(* Seeded input generation and the offline references the benchmark
   scores answers against.  Everything here is self-contained — its own
   PRNG, its own generators, its own greedy — so a refactor of the
   library cannot change the bytes of an input or the reference an
   answer is checked against. *)

(* SplitMix64 (Steele, Lea, Flood 2014). *)
type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let below r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))
let unit_float r = Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.0

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A signed edge stream in generation order, with the (m, n) bounds the
   stream pins: every generator emits the edge (m-1, n-1), so the
   bounds a loader infers from the ids are exactly (m, n). *)
type stream = { m : int; n : int; sets : int array; elts : int array; signs : int array }

let edges s = Array.length s.sets

let of_pairs ~m ~n pairs =
  {
    m;
    n;
    sets = Array.map fst pairs;
    elts = Array.map snd pairs;
    signs = Array.make (Array.length pairs) 1;
  }

let pin ~m ~n pairs =
  if Array.exists (fun p -> p = (m - 1, n - 1)) pairs then pairs
  else Array.append pairs [| (m - 1, n - 1) |]

(* [draws] distinct uniform elements per set, edges shuffled. *)
let uniform ~n ~m ~draws ~seed =
  let r = rng seed in
  let stamp = Array.make n (-1) in
  let pairs = Array.make (m * draws) (0, 0) in
  for s = 0 to m - 1 do
    let got = ref 0 in
    while !got < draws do
      let e = below r n in
      if stamp.(e) <> s then begin
        stamp.(e) <- s;
        pairs.((s * draws) + !got) <- (s, e);
        incr got
      end
    done
  done;
  let pairs = pin ~m ~n pairs in
  shuffle r pairs;
  of_pairs ~m ~n pairs

(* Power-law digraph: [arcs] arcs u -> v with u drawn Zipf([skew]) over
   the vertices and v uniform; set u is u's out-neighbourhood (parallel
   arcs stay as repeated edges).  Streamed in the in-arrival order of
   the paper's footnote 2: all arcs into one target together, targets
   in random order. *)
let power_law_in_arrival ~vertices ~arcs ~skew ~seed =
  let r = rng seed in
  let cdf = Array.make vertices 0.0 in
  let acc = ref 0.0 in
  for i = 0 to vertices - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) skew);
    cdf.(i) <- !acc
  done;
  let zipf () =
    let u = unit_float r *. !acc in
    let lo = ref 0 and hi = ref (vertices - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let pairs =
    pin ~m:vertices ~n:vertices (Array.init arcs (fun _ -> (zipf (), below r vertices)))
  in
  let rank = Array.init vertices (fun v -> v) in
  shuffle r rank;
  let start = Array.make (vertices + 1) 0 in
  Array.iter (fun (_, v) -> start.(rank.(v) + 1) <- start.(rank.(v) + 1) + 1) pairs;
  for i = 1 to vertices do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let out = Array.make (Array.length pairs) (0, 0) in
  Array.iter
    (fun ((_, v) as p) ->
      out.(start.(rank.(v))) <- p;
      start.(rank.(v)) <- start.(rank.(v)) + 1)
    pairs;
  of_pairs ~m:vertices ~n:vertices out

(* [k] disjoint planted sets of n/(2k) elements each cover half the
   universe; every other set draws n/(8k) noise elements, half of them
   from the planted region.  Edges shuffled. *)
let planted_few_large ~n ~m ~k ~seed =
  let r = rng seed in
  let half = n / 2 and noise = max 1 (n / (8 * k)) in
  let ids = Array.init m (fun s -> s) in
  shuffle r ids;
  let pairs = ref [] in
  for i = 0 to k - 1 do
    for e = half * i / k to (half * (i + 1) / k) - 1 do
      pairs := (ids.(i), e) :: !pairs
    done
  done;
  for i = k to m - 1 do
    for _ = 1 to noise do
      let e = if below r 2 = 0 then below r half else half + below r (n - half) in
      pairs := (ids.(i), e) :: !pairs
    done
  done;
  let pairs = pin ~m ~n (Array.of_list !pairs) in
  shuffle r pairs;
  of_pairs ~m ~n pairs

(* Turnstile churn: each edge is retracted with probability [frac]; a
   retraction queues FIFO behind its insertion and is released with
   probability 1/2 after each later insertion, the rest at the end, so
   every deletion follows its insertion. *)
let churn ~frac ~seed s =
  let r = rng seed in
  let out = ref [] and pending = Queue.create () in
  Array.iteri
    (fun i set ->
      let e = s.elts.(i) in
      out := (set, e, 1) :: !out;
      if unit_float r < frac then Queue.add (set, e) pending;
      if (not (Queue.is_empty pending)) && below r 2 = 0 then begin
        let ds, de = Queue.pop pending in
        out := (ds, de, -1) :: !out
      end)
    s.sets;
  Queue.iter (fun (ds, de) -> out := (ds, de, -1) :: !out) pending;
  let a = Array.of_list (List.rev !out) in
  {
    s with
    sets = Array.map (fun (x, _, _) -> x) a;
    elts = Array.map (fun (_, y, _) -> y) a;
    signs = Array.map (fun (_, _, z) -> z) a;
  }

let write_text s path =
  let oc = open_out_bin path in
  let b = Buffer.create (1 lsl 16) in
  Array.iteri
    (fun i set ->
      Buffer.add_string b (string_of_int set);
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int s.elts.(i));
      if s.signs.(i) < 0 then Buffer.add_string b " -1";
      Buffer.add_char b '\n';
      if Buffer.length b > 1 lsl 15 then begin
        Buffer.output_buffer oc b;
        Buffer.clear b
      end)
    s.sets;
  Buffer.output_buffer oc b;
  close_out oc

(* ---------- references ---------- *)

(* The net instance of the edges [pos, pos+len): pairs whose signed
   multiplicity is positive, as per-set sorted distinct element arrays. *)
let net_sets s ~pos ~len =
  let net = Hashtbl.create (2 * len) in
  for i = pos to pos + len - 1 do
    let key = (s.sets.(i) * s.n) + s.elts.(i) in
    Hashtbl.replace net key (s.signs.(i) + Option.value ~default:0 (Hashtbl.find_opt net key))
  done;
  let buckets = Array.make s.m [] in
  Hashtbl.iter
    (fun key c -> if c > 0 then buckets.(key / s.n) <- (key mod s.n) :: buckets.(key / s.n))
    net;
  Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) buckets

(* Offline greedy k-cover: coverage G >= (1 - 1/e) OPT, so OPT lies in
   [G, G / (1 - 1/e)]. *)
let greedy sets ~n ~k =
  let covered = Bytes.make n '\000' in
  let chosen = Array.make (Array.length sets) false in
  let total = ref 0 in
  for _ = 1 to k do
    let best = ref (-1) and best_gain = ref 0 in
    Array.iteri
      (fun s elts ->
        if not chosen.(s) then begin
          let g =
            Array.fold_left (fun a e -> if Bytes.get covered e = '\000' then a + 1 else a) 0 elts
          in
          if g > !best_gain then begin
            best := s;
            best_gain := g
          end
        end)
      sets;
    if !best >= 0 then begin
      chosen.(!best) <- true;
      total := !total + !best_gain;
      Array.iter (fun e -> Bytes.set covered e '\001') sets.(!best)
    end
  done;
  !total

let coverage sets ~n ids =
  let covered = Bytes.make n '\000' in
  List.iter (fun s -> Array.iter (fun e -> Bytes.set covered e '\001') sets.(s)) ids;
  let c = ref 0 in
  Bytes.iter (fun b -> if b <> '\000' then incr c) covered;
  !c

(* The suffix a window of [window] epochs of [epoch_edges] edges holds
   at end of stream: the full epochs it keeps plus the in-flight one. *)
let live_suffix_len ~window ~epoch_edges ~total =
  (min window (total / epoch_edges) * epoch_edges) + (total mod epoch_edges)
