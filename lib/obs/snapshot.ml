type value = Registry.value = Counter of int | Gauge of float | Histogram of Histogram.t
type metric = { mname : string; mvalue : value }
type t = { schema : string; created_ns : int; metrics : metric list }

let schema_version = "mkc-obs/6"

let capture ?now_ns registry =
  let now_ns = match now_ns with Some t -> t | None -> Clock.now_ns () in
  let metrics = List.map (fun (mname, mvalue) -> { mname; mvalue }) (Registry.dump registry) in
  { schema = schema_version; created_ns = now_ns; metrics }

(* ---------- emission ---------- *)

(* A histogram metric is its name and kind followed by
   [Histogram.to_json]'s fields. *)
let json_of_metric m =
  let head kind = [ ("name", Json.String m.mname); ("kind", Json.String kind) ] in
  Json.Object
    (match m.mvalue with
    | Counter c -> head "counter" @ [ ("value", Json.Int c) ]
    | Gauge g -> head "gauge" @ [ ("value", Json.Float g) ]
    | Histogram h -> (
        match Histogram.to_json h with
        | Json.Object fields -> head "histogram" @ fields
        | _ -> assert false))

let to_json t =
  Json.Object
    [
      ("schema", Json.String t.schema);
      ("created_ns", Json.Int t.created_ns);
      ("metrics", Json.Array (List.map json_of_metric t.metrics));
    ]

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
        let* h = Result.map_error (fun e -> ctx ^ ": " ^ e) (Histogram.of_json j) in
        Ok (Histogram h)
    | k -> Error (Printf.sprintf "%s: unknown kind %S" ctx k)
  in
  Ok { mname; mvalue }

(* The space watchdog's gauges ([Quality.record_budget]) come as a
   group of five.  A snapshot is outside input, so when any of them is
   present all five must be, with integral non-negative word and sample
   counts, the headroom equal to peak / budget, and an overshoot on
   record whenever the peak exceeds the budget. *)
let space_gauges = [ "budget_words"; "peak_words"; "headroom"; "overshoots"; "samples" ]

let check_space_gauges metrics =
  let find key =
    let name = "space." ^ key in
    match List.find_opt (fun m -> String.equal m.mname name) metrics with
    | None -> Ok None
    | Some { mvalue = Gauge g; _ } -> Ok (Some g)
    | Some _ -> Error (Printf.sprintf "metric %S: expected a gauge" name)
  in
  let* found = map_result find space_gauges in
  match found with
  | [ Some budget; Some peak; Some headroom; Some overshoots; Some samples ] ->
      let count g = Float.is_integer g && g >= 0.0 in
      if not (count budget && count peak) then
        Error "space gauges: word counts must be non-negative integers"
      else if not (count overshoots && count samples && overshoots <= samples) then
        Error "space gauges: overshoots outside [0, samples]"
      else if headroom <> (if budget <= 0.0 then 0.0 else peak /. budget) then
        Error "space gauges: headroom is not peak_words / budget_words"
      else if budget > 0.0 && samples > 0.0 && peak > budget && overshoots = 0.0 then
        Error "space gauges: peak over budget but no overshoot recorded"
      else Ok ()
  | found when List.for_all Option.is_none found -> Ok ()
  | _ ->
      Error
        ("space gauges: need all of "
        ^ String.concat ", " (List.map (fun k -> "space." ^ k) space_gauges)
        ^ " or none")

let top_level = [ "schema"; "created_ns"; "metrics" ]

let of_json j =
  let* schema = field "snapshot" "schema" Json.to_string_opt j in
  let stray =
    match j with
    | Json.Object kvs -> List.find_opt (fun (k, _) -> not (List.mem k top_level)) kvs
    | _ -> None
  in
  if schema <> schema_version then
    Error (Printf.sprintf "snapshot: schema %S, expected %S" schema schema_version)
  else
    match stray with
    | Some (k, _) -> Error (Printf.sprintf "snapshot: unknown field %S" k)
    | None ->
        let* created_ns = field "snapshot" "created_ns" Json.to_int j in
        let* raw_metrics = list_field "snapshot" "metrics" j in
        let* metrics = map_result metric_of_json raw_metrics in
        let* () = check_space_gauges metrics in
        Ok { schema; created_ns; metrics }

let validate s =
  let* j = Json.parse s in
  of_json j
