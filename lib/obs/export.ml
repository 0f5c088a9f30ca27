(* Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; we map
   every other character to '_' and prefix a '_' when the first
   character is a digit (dropping it would collide "2xx" with "xx"). *)
let sanitize name =
  let mapped =
    String.map
      (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name
  in
  if mapped = "" then "_"
  else match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

(* Prometheus exposition spells the IEEE specials "NaN" / "+Inf" /
   "-Inf"; %g would print "nan"/"inf", which scrapers reject. *)
let num f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
  else Printf.sprintf "%g" f

(* Bucket upper bound for the [le] label / quantile report. *)
let bucket_bound i = float_of_int (Histogram.bound_of_bucket i)

let prometheus (s : Snapshot.t) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (m : Snapshot.metric) ->
      let n = sanitize m.Snapshot.mname in
      match m.Snapshot.mvalue with
      | Snapshot.Counter c ->
          line "# TYPE %s counter" n;
          line "%s %d" n c
      | Snapshot.Gauge g ->
          line "# TYPE %s gauge" n;
          line "%s %s" n (num g)
      | Snapshot.Histogram h ->
          line "# TYPE %s histogram" n;
          let cum = ref 0 in
          List.iter
            (fun (i, c) ->
              cum := !cum + c;
              line "%s_bucket{le=\"%s\"} %d" n (num (bucket_bound i)) !cum)
            h.Snapshot.hbuckets;
          line "%s_bucket{le=\"+Inf\"} %d" n h.Snapshot.hcount;
          line "%s_sum %s" n (num h.Snapshot.hsum);
          line "%s_count %d" n h.Snapshot.hcount)
    s.Snapshot.metrics;
  Buffer.contents b

let quantile_of_hist (h : Snapshot.hist) q =
  if h.Snapshot.hcount = 0 then 0.0
  else begin
    let rank = Histogram.ceil_rank q h.Snapshot.hcount in
    let seen = ref 0 and hit = ref None in
    List.iter
      (fun (i, c) ->
        seen := !seen + c;
        if !hit = None && !seen >= rank then hit := Some i)
      h.Snapshot.hbuckets;
    match !hit with
    | Some i -> Float.min (bucket_bound i) h.Snapshot.hmax
    | None -> h.Snapshot.hmax
  end

let pp_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let summary (s : Snapshot.t) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "== metrics (schema %s) ==" s.Snapshot.schema;
  List.iter
    (fun (m : Snapshot.metric) ->
      match m.Snapshot.mvalue with
      | Snapshot.Counter c -> line "  %-48s %d" m.Snapshot.mname c
      | Snapshot.Gauge g -> line "  %-48s %s" m.Snapshot.mname (num g)
      | Snapshot.Histogram h ->
          line "  %-48s n=%d p50=%s p99=%s max=%s" m.Snapshot.mname h.Snapshot.hcount
            (pp_ns (quantile_of_hist h 0.5))
            (pp_ns (quantile_of_hist h 0.99))
            (pp_ns h.Snapshot.hmax))
    s.Snapshot.metrics;
  Buffer.contents b
