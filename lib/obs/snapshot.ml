type hist = {
  hcount : int;
  hsum : float;
  hmin : float;
  hmax : float;
  hbuckets : (int * int) list;
}

type value = Counter of int | Gauge of float | Histogram of hist
type metric = { mname : string; mvalue : value }
type point = { at_edges : int; words : int; breakdown : (string * int) list }
type profile = { pname : string; cadence : int; points : point list }

type space = {
  budget_words : int;
  peak_words : int;
  headroom : float;
  overshoots : int;
  samples : int;
}

type track = { tname : string; tcount : int; tmin : int; tmax : int; tlast : int }

type t = {
  schema : string;
  created_ns : int;
  space : space option;
  series : track list;
  metrics : metric list;
  spans : Span.span list;
  profiles : profile list;
}

let schema_version = "mkc-obs/4"

let headroom_of ~budget_words ~peak_words =
  if budget_words <= 0 then 0.0 else float_of_int peak_words /. float_of_int budget_words

let hist_of_metric (h : Metric.Histogram.t) =
  {
    hcount = h.count;
    hsum = float_of_int h.sum;
    hmin = (if h.count = 0 then 0.0 else float_of_int h.vmin);
    hmax = (if h.count = 0 then 0.0 else float_of_int h.vmax);
    hbuckets = Metric.Histogram.nonzero_buckets h;
  }

let tracks_of_series s =
  let n = Series.total s in
  if n = 0 then []
  else
    Array.to_list (Series.tracks s)
    |> List.mapi (fun i tname ->
           {
             tname;
             tcount = n;
             tmin = Series.min_of s i;
             tmax = Series.max_of s i;
             tlast = Series.last s i;
           })

let capture ?spans ?(profiles = []) ?space ?(series = []) ?now_ns registry =
  let spans = match spans with Some s -> s | None -> Span.recent () in
  let now_ns = match now_ns with Some t -> t | None -> Clock.now_ns () in
  let metrics =
    Registry.dump registry
    |> List.map (fun (mname, v) ->
           let mvalue =
             match v with
             | Registry.Counter c -> Counter c
             | Registry.Gauge g -> Gauge g
             | Registry.Histogram h -> Histogram (hist_of_metric h)
           in
           { mname; mvalue })
  in
  let profiles =
    List.map
      (fun (pname, sp) ->
        {
          pname;
          cadence = Space_profile.cadence sp;
          points =
            List.map
              (fun (p : Space_profile.point) ->
                { at_edges = p.at_edges; words = p.words; breakdown = p.breakdown })
              (Space_profile.points sp);
        })
      profiles
  in
  { schema = schema_version; created_ns = now_ns; space; series; metrics; spans; profiles }

(* ---------- emission ---------- *)

let json_of_metric m =
  let base = [ ("name", Json.String m.mname) ] in
  Json.Object
    (match m.mvalue with
    | Counter c -> base @ [ ("kind", Json.String "counter"); ("value", Json.Int c) ]
    | Gauge g -> base @ [ ("kind", Json.String "gauge"); ("value", Json.Float g) ]
    | Histogram h ->
        base
        @ [
            ("kind", Json.String "histogram");
            ("count", Json.Int h.hcount);
            ("sum", Json.Float h.hsum);
            ("min", Json.Float h.hmin);
            ("max", Json.Float h.hmax);
            ( "buckets",
              Json.Array
                (List.map (fun (i, c) -> Json.Array [ Json.Int i; Json.Int c ]) h.hbuckets) );
          ])

let json_of_span (s : Span.span) =
  Json.Object
    [
      ("name", Json.String s.name);
      ("start_ns", Json.Int s.start_ns);
      ("dur_ns", Json.Int s.dur_ns);
      ("domain", Json.Int s.domain);
    ]

let json_of_point p =
  Json.Object
    [
      ("at_edges", Json.Int p.at_edges);
      ("words", Json.Int p.words);
      ( "breakdown",
        Json.Array (List.map (fun (k, w) -> Json.Array [ Json.String k; Json.Int w ]) p.breakdown)
      );
    ]

let json_of_profile p =
  Json.Object
    [
      ("name", Json.String p.pname);
      ("cadence", Json.Int p.cadence);
      ("points", Json.Array (List.map json_of_point p.points));
    ]

let json_of_space s =
  Json.Object
    [
      ("budget_words", Json.Int s.budget_words);
      ("peak_words", Json.Int s.peak_words);
      ("headroom", Json.Float s.headroom);
      ("overshoots", Json.Int s.overshoots);
      ("samples", Json.Int s.samples);
    ]

let json_of_track tr =
  Json.Object
    [
      ("name", Json.String tr.tname);
      ("count", Json.Int tr.tcount);
      ("min", Json.Int tr.tmin);
      ("max", Json.Int tr.tmax);
      ("last", Json.Int tr.tlast);
    ]

let to_json t =
  Json.Object
    (("schema", Json.String t.schema)
     :: ("created_ns", Json.Int t.created_ns)
     :: (match t.space with None -> [] | Some s -> [ ("space", json_of_space s) ])
    @ (match t.series with
      | [] -> []
      | trs -> [ ("series", Json.Array (List.map json_of_track trs)) ])
    @ [
        ("metrics", Json.Array (List.map json_of_metric t.metrics));
        ("spans", Json.Array (List.map json_of_span t.spans));
        ("profiles", Json.Array (List.map json_of_profile t.profiles));
      ])

let to_string t = Json.to_string (to_json t)

(* ---------- validation ---------- *)

let ( let* ) = Result.bind

let field ctx name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or mistyped field %S" ctx name)

let list_field ctx name j =
  match Option.bind (Json.member name j) Json.to_list with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "%s: missing or mistyped array %S" ctx name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let pair_of conv name j =
  match j with
  | Json.Array [ a; b ] -> (
      match (conv a, Json.to_int b) with
      | Some x, Some y -> Ok (x, y)
      | _ -> Error (Printf.sprintf "%s: bad pair element" name))
  | _ -> Error (Printf.sprintf "%s: expected 2-element array" name)

let metric_of_json j =
  let* mname = field "metric" "name" Json.to_string_opt j in
  let ctx = Printf.sprintf "metric %S" mname in
  let* kind = field ctx "kind" Json.to_string_opt j in
  let* mvalue =
    match kind with
    | "counter" ->
        let* v = field ctx "value" Json.to_int j in
        Ok (Counter v)
    | "gauge" ->
        let* v = field ctx "value" Json.to_float j in
        Ok (Gauge v)
    | "histogram" ->
        let* hcount = field ctx "count" Json.to_int j in
        let* hsum = field ctx "sum" Json.to_float j in
        let* hmin = field ctx "min" Json.to_float j in
        let* hmax = field ctx "max" Json.to_float j in
        let* raw = list_field ctx "buckets" j in
        let* hbuckets = map_result (pair_of Json.to_int ctx) raw in
        if
          List.exists
            (fun (i, c) -> i < 0 || i >= Metric.Histogram.num_buckets || c < 0)
            hbuckets
        then Error (ctx ^ ": bucket index or count out of range")
        else if List.fold_left (fun a (_, c) -> a + c) 0 hbuckets <> hcount then
          Error (ctx ^ ": bucket counts do not sum to count")
        else Ok (Histogram { hcount; hsum; hmin; hmax; hbuckets })
    | k -> Error (Printf.sprintf "%s: unknown kind %S" ctx k)
  in
  Ok { mname; mvalue }

let span_of_json j =
  let* name = field "span" "name" Json.to_string_opt j in
  let ctx = Printf.sprintf "span %S" name in
  let* start_ns = field ctx "start_ns" Json.to_int j in
  let* dur_ns = field ctx "dur_ns" Json.to_int j in
  let* domain = field ctx "domain" Json.to_int j in
  if dur_ns < 0 then Error (ctx ^ ": negative duration")
  else Ok { Span.name; start_ns; dur_ns; domain }

let point_of_json ctx j =
  let* at_edges = field ctx "at_edges" Json.to_int j in
  let* words = field ctx "words" Json.to_int j in
  let* raw = list_field ctx "breakdown" j in
  let* breakdown = map_result (pair_of Json.to_string_opt ctx) raw in
  Ok { at_edges; words; breakdown }

let profile_of_json j =
  let* pname = field "profile" "name" Json.to_string_opt j in
  let ctx = Printf.sprintf "profile %S" pname in
  let* cadence = field ctx "cadence" Json.to_int j in
  let* raw = list_field ctx "points" j in
  let* points = map_result (point_of_json ctx) raw in
  (* every point's breakdown must sum to its total — the invariant the
     space experiments rely on *)
  let bad =
    List.find_opt
      (fun p -> List.fold_left (fun a (_, w) -> a + w) 0 p.breakdown <> p.words)
      points
  in
  match bad with
  | Some p -> Error (Printf.sprintf "%s: breakdown does not sum to words at edge %d" ctx p.at_edges)
  | None -> Ok { pname; cadence; points }

let space_of_json j =
  let ctx = "space" in
  let* budget_words = field ctx "budget_words" Json.to_int j in
  let* peak_words = field ctx "peak_words" Json.to_int j in
  let* headroom = field ctx "headroom" Json.to_float j in
  let* overshoots = field ctx "overshoots" Json.to_int j in
  let* samples = field ctx "samples" Json.to_int j in
  if budget_words < 0 || peak_words < 0 then Error (ctx ^ ": negative word count")
  else if overshoots < 0 || overshoots > samples then
    Error (ctx ^ ": overshoots outside [0, samples]")
  else if headroom <> headroom_of ~budget_words ~peak_words then
    Error (ctx ^ ": headroom is not peak_words / budget_words")
  else if budget_words > 0 && samples > 0 && peak_words > budget_words && overshoots = 0 then
    Error (ctx ^ ": peak over budget but no overshoot recorded")
  else Ok { budget_words; peak_words; headroom; overshoots; samples }

let track_of_json j =
  let* tname = field "series track" "name" Json.to_string_opt j in
  let ctx = Printf.sprintf "series track %S" tname in
  let* tcount = field ctx "count" Json.to_int j in
  let* tmin = field ctx "min" Json.to_int j in
  let* tmax = field ctx "max" Json.to_int j in
  let* tlast = field ctx "last" Json.to_int j in
  if tcount < 1 then Error (ctx ^ ": a recorded track needs count >= 1")
  else if tmin > tmax then Error (ctx ^ ": min above max")
  else if tlast < tmin || tlast > tmax then Error (ctx ^ ": last outside [min, max]")
  else Ok { tname; tcount; tmin; tmax; tlast }

let of_json j =
  let* schema = field "snapshot" "schema" Json.to_string_opt j in
  if schema <> schema_version then
    Error (Printf.sprintf "snapshot: schema %S, expected %S" schema schema_version)
  else
    let* created_ns = field "snapshot" "created_ns" Json.to_int j in
    let* space =
      match Json.member "space" j with
      | None -> Ok None
      | Some sj ->
          let* s = space_of_json sj in
          Ok (Some s)
    in
    let* series =
      match Json.member "series" j with
      | None -> Ok []
      | Some sj -> (
          match Json.to_list sj with
          | None -> Error "snapshot: mistyped \"series\" section"
          | Some raw ->
              let* trs = map_result track_of_json raw in
              if trs = [] then Error "snapshot: empty \"series\" section" else Ok trs)
    in
    let* raw_metrics = list_field "snapshot" "metrics" j in
    let* metrics = map_result metric_of_json raw_metrics in
    let* raw_spans = list_field "snapshot" "spans" j in
    let* spans = map_result span_of_json raw_spans in
    let* raw_profiles = list_field "snapshot" "profiles" j in
    let* profiles = map_result profile_of_json raw_profiles in
    Ok { schema; created_ns; space; series; metrics; spans; profiles }

let validate s =
  let* j = Json.parse s in
  of_json j
