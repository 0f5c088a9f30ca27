(* Append-only run ledger.  See the .mli for the layout.

   The container is the Telemetry framing (8-byte magic + int64 LE
   version header, length/FNV-1a-64-checksum frames, torn tail
   tolerated, checksum mismatch fatal) with magic "MKCLEDG1" and one
   JSON run record per frame.  JSON payloads keep the ledger
   self-describing: a record written by an older binary stays readable
   field-by-field, and new fields never invalidate old readers. *)

type error = Telemetry.error

let magic = "MKCLEDG1"
let version = 1
let record_schema = "mkc-ledger/1"

(* The telemetry log's wording, naming the run ledger. *)
let error_to_string : error -> string = function
  | Telemetry.Bad_magic s -> Printf.sprintf "not a run ledger (magic %S, expected %S)" s magic
  | Bad_version v ->
      Printf.sprintf "unsupported run ledger version %d (this build reads %d)" v version
  | Truncated msg -> Printf.sprintf "truncated run ledger: %s" msg
  | Malformed msg -> Printf.sprintf "malformed run ledger: %s" msg
  | (Checksum_mismatch _ | Io_error _) as e -> Telemetry.error_to_string e

type mode_stat = {
  ms_mode : string;
  ms_repeats : int;
  ms_best_s : float;
  ms_median_s : float;
  ms_edges_per_sec : float;
}

type entry = {
  e_label : string;
  e_created_ns : int;
  e_host : (string * Json.t) list;
  e_params : (string * Json.t) list;
  e_stats : (string * float) list;
  e_modes : mode_stat list;
  e_digests : (string * Histogram.digest) list;
  e_quality : (string * float) list;
}

type store = { entries : entry list; torn : error option }

let host_fingerprint () =
  let hostname = try Unix.gethostname () with Unix.Unix_error _ -> "unknown" in
  [
    ("domains", Json.Int (Domain.recommended_domain_count ()));
    ("hostname", Json.String hostname);
    ("ocaml", Json.String Sys.ocaml_version);
    ("os", Json.String Sys.os_type);
    ("word_size", Json.Int Sys.word_size);
  ]

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let harvest registry =
  let dump = Registry.dump registry in
  ( List.filter_map
      (fun (name, v) ->
        match v with
        | Registry.Histogram h when h.Histogram.count > 0 -> Some (name, Histogram.digest h)
        | _ -> None)
      dump,
    List.filter_map
      (fun (name, v) ->
        match v with
        | Registry.Gauge g when contains ~sub:".quality." name -> Some (name, g)
        | _ -> None)
      dump )

(* ---------- encoding ---------- *)

let by_key (a, _) (b, _) = String.compare a b

(* Sorted fields everywhere: the encoder is a function of the entry's
   contents alone, so golden tests are byte-stable and identical
   entries hash identically. *)
let sorted_obj fields = Json.Object (List.sort by_key fields)

let mode_stat_to_json m =
  sorted_obj
    [
      ("best_s", Json.Float m.ms_best_s);
      ("edges_per_sec", Json.Float m.ms_edges_per_sec);
      ("median_s", Json.Float m.ms_median_s);
      ("mode", Json.String m.ms_mode);
      ("repeats", Json.Int m.ms_repeats);
    ]

let entry_to_json e =
  sorted_obj
    [
      ("created_ns", Json.Int e.e_created_ns);
      ("digests", sorted_obj (List.map (fun (k, d) -> (k, Histogram.digest_to_json d)) e.e_digests));
      ("host", sorted_obj e.e_host);
      ("label", Json.String e.e_label);
      ("modes", Json.Array (List.map mode_stat_to_json e.e_modes));
      ("params", sorted_obj e.e_params);
      ("quality", sorted_obj (List.map (fun (k, v) -> (k, Json.Float v)) e.e_quality));
      ("schema", Json.String record_schema);
      ("stats", sorted_obj (List.map (fun (k, v) -> (k, Json.Float v)) e.e_stats));
    ]

(* ---------- decoding ---------- *)

let ( let* ) = Result.bind

let field name conv j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong shape" name))

let opt_obj name j =
  match Json.member name j with
  | None -> Ok []
  | Some (Json.Object fields) -> Ok fields
  | Some _ -> Error (Printf.sprintf "field %S is not an object" name)

let float_fields name j =
  let* fields = opt_obj name j in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (k, v) :: rest -> (
        match Json.to_float v with
        | Some f -> go ((k, f) :: acc) rest
        | None -> Error (Printf.sprintf "field %S.%s is not a number" name k))
  in
  go [] fields

let mode_stat_of_json j =
  let* ms_mode = field "mode" Json.to_string_opt j in
  let* ms_repeats = field "repeats" Json.to_int j in
  let* ms_best_s = field "best_s" Json.to_float j in
  let* ms_median_s = field "median_s" Json.to_float j in
  let* ms_edges_per_sec = field "edges_per_sec" Json.to_float j in
  if ms_repeats < 1 then Error (Printf.sprintf "mode %S declares %d repeats" ms_mode ms_repeats)
  else if not (Float.is_finite ms_best_s && ms_best_s >= 0.0) then
    Error (Printf.sprintf "mode %S best_s is not a finite non-negative time" ms_mode)
  else if not (Float.is_finite ms_median_s && ms_median_s >= ms_best_s) then
    Error (Printf.sprintf "mode %S median_s is below best_s" ms_mode)
  else if not (Float.is_finite ms_edges_per_sec && ms_edges_per_sec >= 0.0) then
    Error (Printf.sprintf "mode %S edges_per_sec is not a finite non-negative rate" ms_mode)
  else Ok { ms_mode; ms_repeats; ms_best_s; ms_median_s; ms_edges_per_sec }

let entry_of_json j =
  let* schema = field "schema" Json.to_string_opt j in
  let* () =
    if String.equal schema record_schema then Ok ()
    else Error (Printf.sprintf "record schema %S, this build reads %S" schema record_schema)
  in
  let* e_label = field "label" Json.to_string_opt j in
  let* e_created_ns = field "created_ns" Json.to_int j in
  let* () =
    if e_created_ns >= 0 then Ok ()
    else Error (Printf.sprintf "created_ns %d is negative" e_created_ns)
  in
  let* e_host = opt_obj "host" j in
  let* e_params = opt_obj "params" j in
  let* e_stats = float_fields "stats" j in
  let* e_quality = float_fields "quality" j in
  let* modes_json =
    match Json.member "modes" j with
    | None -> Ok []
    | Some v -> (
        match Json.to_list v with
        | Some l -> Ok l
        | None -> Error "field \"modes\" is not an array")
  in
  let rec parse_modes acc = function
    | [] -> Ok (List.rev acc)
    | m :: rest ->
        let* ms = mode_stat_of_json m in
        parse_modes (ms :: acc) rest
  in
  let* e_modes = parse_modes [] modes_json in
  let* digest_fields = opt_obj "digests" j in
  let rec parse_digests acc = function
    | [] -> Ok (List.rev acc)
    | (k, v) :: rest -> (
        match Histogram.digest_of_json v with
        | Ok d -> parse_digests ((k, d) :: acc) rest
        | Error msg -> Error (Printf.sprintf "digest %S: %s" k msg))
  in
  let* e_digests = parse_digests [] digest_fields in
  Ok { e_label; e_created_ns; e_host; e_params; e_stats; e_modes; e_digests; e_quality }

(* ---------- file I/O ---------- *)

let entry_to_string e = Json.to_string (entry_to_json e)

let header_status path =
  (* [`Fresh] when the file is absent or empty (write a new header),
     [`Ok] when a valid MKCLEDG1 header is already in place. *)
  match open_in_bin path with
  | exception Sys_error _ -> Ok `Fresh
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = min 16 (in_channel_length ic) in
          if len = 0 then Ok `Fresh
          else
            Telemetry.Framed.check_header
              (Bytes.of_string (really_input_string ic len))
              ~magic ~version
            |> Result.map (fun () -> `Ok))

let append path e =
  let* status = header_status path in
  match open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path with
  | exception Sys_error msg -> Error (Telemetry.Io_error msg)
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          (match status with
          | `Fresh -> Telemetry.Framed.write_header oc ~magic ~version
          | `Ok -> ());
          Telemetry.Framed.write_frame oc (Bytes.of_string (entry_to_string e));
          Ok ())

let read path =
  let* payloads, torn = Telemetry.Framed.read_all ~magic ~version path in
  let rec go i acc = function
    | [] -> Ok { entries = List.rev acc; torn }
    | p :: rest -> (
        match Result.bind (Json.parse (Bytes.to_string p)) entry_of_json with
        | Error msg -> Error (Telemetry.Malformed (Printf.sprintf "record %d: %s" i msg))
        | Ok e -> go (i + 1) (e :: acc) rest)
  in
  go 0 [] payloads
