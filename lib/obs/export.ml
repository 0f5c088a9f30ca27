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

let prometheus (s : Snapshot.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (m : Snapshot.metric) ->
      let n = sanitize m.mname in
      match m.mvalue with
      | Counter c -> Printf.bprintf b "# TYPE %s counter\n%s %d\n" n n c
      | Gauge g -> Printf.bprintf b "# TYPE %s gauge\n%s %s\n" n n (num g)
      | Histogram h -> Buffer.add_string b (Histogram.prometheus ~name:n h))
    s.metrics;
  Buffer.contents b

let pp_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let summary (s : Snapshot.t) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "== metrics (schema %s) ==" s.schema;
  List.iter
    (fun (m : Snapshot.metric) ->
      match m.mvalue with
      | Counter c -> line "  %-48s %d" m.mname c
      | Gauge g -> line "  %-48s %s" m.mname (num g)
      | Histogram h ->
          (* the 1.0-quantile is the observed max *)
          let ns q = pp_ns (float_of_int (Histogram.quantile h q)) in
          line "  %-48s n=%d p50=%s p99=%s max=%s" m.mname h.count (ns 0.5) (ns 0.99)
            (ns 1.0))
    s.metrics;
  Buffer.contents b
