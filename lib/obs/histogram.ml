(* Log-linear (HDR-style) latency histogram on a preallocated flat
   int array.

   Bucket layout: each power-of-two octave is split into 16 linear
   sub-buckets, so every bucket's width is at most 1/16 of its lower
   bound (≤ 6.25% relative error).  Values 0..15 get their own exact
   bucket; for v >= 16 the index is

     16 * (floor(log2 v) - 3) + (the 4 bits after the leading bit)

   which makes index = v for all v < 32 (the two layouts agree on the
   seam).  62 octaves * 16 sub-buckets cover the full int63 range, so
   nanosecond latencies up to ~292 years land without clamping.

   Everything is an immediate int: [record] performs no allocation
   (the allocation test pins this at <= 0 minor words per record), and
   [merge] is a commutative monoid with [create ()] as identity — the
   law the registry's counters and gauges obey too, so per-domain
   shards can merge in any order. *)

type t = {
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  buckets : int array;
}

let sub_buckets = 16
let num_buckets = 960 (* 16 exact + 59 octaves * 16 sub-buckets *)

let create () =
  { count = 0; sum = 0; vmin = max_int; vmax = min_int; buckets = Array.make num_buckets 0 }

let clear t =
  t.count <- 0;
  t.sum <- 0;
  t.vmin <- max_int;
  t.vmax <- min_int;
  Array.fill t.buckets 0 num_buckets 0

(* floor(log2 v) for v >= 1, by shift descent — no floats, no refs,
   nothing allocated. *)
let rec floor_log2 v p =
  if v >= 256 then floor_log2 (v lsr 8) (p + 8)
  else if v >= 2 then floor_log2 (v lsr 1) (p + 1)
  else p

let bucket_of v =
  if v < 16 then if v < 0 then 0 else v
  else
    let p = floor_log2 v 0 in
    (16 * (p - 3)) + ((v lsr (p - 4)) land 15)

(* Largest value mapping to bucket [i] (inclusive): the bound reported
   by quantiles and used as the Prometheus [le] label, which is a <=
   comparison, so inclusive is exact. *)
let bound_of_bucket i =
  if i < 16 then if i < 0 then 0 else i
  else
    let octave = i / 16 and sub = i mod 16 in
    ((16 + sub + 1) lsl (octave - 1)) - 1

let record t v =
  let v = if v < 0 then 0 else v in
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  let i = bucket_of v in
  Array.unsafe_set t.buckets i (Array.unsafe_get t.buckets i + 1)

let merge_into ~dst src =
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum + src.sum;
  if src.vmin < dst.vmin then dst.vmin <- src.vmin;
  if src.vmax > dst.vmax then dst.vmax <- src.vmax;
  for i = 0 to num_buckets - 1 do
    dst.buckets.(i) <- dst.buckets.(i) + src.buckets.(i)
  done

let merge a b =
  let t = create () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

let nonzero_buckets t =
  let out = ref [] in
  for i = num_buckets - 1 downto 0 do
    if t.buckets.(i) > 0 then out := (i, t.buckets.(i)) :: !out
  done;
  !out

(* ---------- ceil-rank quantiles ---------- *)

(* The one ceil-rank definition shared by every quantile in the tree:
   the q-quantile of n observations is the one at 1-based rank
   ceil(q * n), clamped to [1, n].  Telemetry.summarize uses the same
   function over raw sorted samples, so the two paths cannot drift. *)
let ceil_rank q n =
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  max 1 (min n r)

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0 else a.(ceil_rank q n - 1)

let quantile t q =
  if t.count = 0 then 0
  else begin
    let rank = ceil_rank q t.count in
    let seen = ref 0 and hit = ref (num_buckets - 1) and looking = ref true in
    for i = 0 to num_buckets - 1 do
      if !looking then begin
        seen := !seen + t.buckets.(i);
        if !seen >= rank then begin
          hit := i;
          looking := false
        end
      end
    done;
    (* report the bucket's inclusive upper bound, capped by the exact
       observed maximum (the top bucket can be much wider than vmax) *)
    min (bound_of_bucket !hit) t.vmax
  end

(* ---------- digests ---------- *)

type digest = {
  d_count : int;
  d_sum : int;
  d_min : int;
  d_max : int;
  d_p50 : int;
  d_p90 : int;
  d_p99 : int;
  d_p999 : int;
}

let digest t =
  {
    d_count = t.count;
    d_sum = t.sum;
    d_min = (if t.count = 0 then 0 else t.vmin);
    d_max = (if t.count = 0 then 0 else t.vmax);
    d_p50 = quantile t 0.5;
    d_p90 = quantile t 0.9;
    d_p99 = quantile t 0.99;
    d_p999 = quantile t 0.999;
  }

let digest_to_json d =
  Json.Object
    [
      ("count", Json.Int d.d_count);
      ("sum", Json.Int d.d_sum);
      ("min", Json.Int d.d_min);
      ("max", Json.Int d.d_max);
      ("p50", Json.Int d.d_p50);
      ("p90", Json.Int d.d_p90);
      ("p99", Json.Int d.d_p99);
      ("p999", Json.Int d.d_p999);
    ]

let ( let* ) = Result.bind

let int_field ctx name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or mistyped field %S" ctx name)

let digest_of_json j =
  let ctx = "histogram digest" in
  let* d_count = int_field ctx "count" j in
  let* d_sum = int_field ctx "sum" j in
  let* d_min = int_field ctx "min" j in
  let* d_max = int_field ctx "max" j in
  let* d_p50 = int_field ctx "p50" j in
  let* d_p90 = int_field ctx "p90" j in
  let* d_p99 = int_field ctx "p99" j in
  let* d_p999 = int_field ctx "p999" j in
  if d_count < 0 then Error (ctx ^ ": negative count")
  else if d_count > 0 && d_min > d_max then Error (ctx ^ ": min above max")
  else if
    d_count > 0
    && not (d_p50 <= d_p90 && d_p90 <= d_p99 && d_p99 <= d_p999 && d_p999 <= d_max)
  then Error (ctx ^ ": quantiles not monotone")
  else Ok { d_count; d_sum; d_min; d_max; d_p50; d_p90; d_p99; d_p999 }

(* ---------- encodings ---------- *)

let to_json t =
  Json.Object
    [
      ("count", Json.Int t.count);
      ("sum", Json.Int t.sum);
      ("min", Json.Int (if t.count = 0 then 0 else t.vmin));
      ("max", Json.Int (if t.count = 0 then 0 else t.vmax));
      ( "buckets",
        Json.Array
          (List.map (fun (i, c) -> Json.Array [ Json.Int i; Json.Int c ]) (nonzero_buckets t))
      );
    ]

let of_json j =
  let ctx = "histogram" in
  let* count = int_field ctx "count" j in
  let* sum = int_field ctx "sum" j in
  let* vmin = int_field ctx "min" j in
  let* vmax = int_field ctx "max" j in
  let* raw =
    match Option.bind (Json.member "buckets" j) Json.to_list with
    | Some l -> Ok l
    | None -> Error (ctx ^ ": missing or mistyped array \"buckets\"")
  in
  let* pairs =
    List.fold_left
      (fun acc el ->
        let* acc = acc in
        match el with
        | Json.Array [ a; b ] -> (
            match (Json.to_int a, Json.to_int b) with
            | Some i, Some c -> Ok ((i, c) :: acc)
            | _ -> Error (ctx ^ ": bad bucket pair"))
        | _ -> Error (ctx ^ ": expected 2-element bucket arrays"))
      (Ok []) raw
  in
  let pairs = List.rev pairs in
  if List.exists (fun (i, c) -> i < 0 || i >= num_buckets || c < 0) pairs then
    Error (ctx ^ ": bucket index or count out of range")
  else if List.fold_left (fun a (_, c) -> a + c) 0 pairs <> count then
    Error (ctx ^ ": bucket counts do not sum to count")
  else begin
    let t = create () in
    t.count <- count;
    t.sum <- sum;
    t.vmin <- (if count = 0 then max_int else vmin);
    t.vmax <- (if count = 0 then min_int else vmax);
    List.iter (fun (i, c) -> t.buckets.(i) <- t.buckets.(i) + c) pairs;
    Ok t
  end

(* Prometheus exposition: cumulative [_bucket] lines with the bucket's
   inclusive upper bound as the [le] label, then [_sum] and [_count]. *)
let prometheus ~name t =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "# TYPE %s histogram" name;
  let cum = ref 0 in
  List.iter
    (fun (i, c) ->
      cum := !cum + c;
      line "%s_bucket{le=\"%d\"} %d" name (bound_of_bucket i) !cum)
    (nonzero_buckets t);
  line "%s_bucket{le=\"+Inf\"} %d" name t.count;
  line "%s_sum %d" name t.sum;
  line "%s_count %d" name t.count;
  Buffer.contents b
