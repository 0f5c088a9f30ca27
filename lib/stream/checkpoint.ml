let magic = "MKCCKPT4"
let schema_prefix = "mkc-ckpt/"
let schema = schema_prefix ^ "4"

(* How an mkc-ckpt/1 (JSON) file opens: its schema field came first. *)
let json_prefix = "{\"schema\":\"" ^ schema_prefix

type error =
  | Bad_magic of string
  | Bad_version of string
  | Truncated of string
  | Malformed of string
  | Checksum_mismatch of { expected : string; got : string }
  | Seed_mismatch of { expected : int; got : int }
  | Kind_mismatch of { expected : string; got : string }
  | Payload_rejected of string
  | Io_error of string

let error_to_string = function
  | Bad_magic s -> Printf.sprintf "bad magic: expected %S, got %S" magic s
  | Bad_version s ->
      Printf.sprintf "unsupported checkpoint version %S (this build reads %S)" s schema
  | Truncated msg -> Printf.sprintf "truncated checkpoint: %s" msg
  | Malformed msg -> Printf.sprintf "malformed envelope: %s" msg
  | Checksum_mismatch { expected; got } ->
      Printf.sprintf "checksum mismatch: envelope says %s, contents hash to %s" got
        expected
  | Seed_mismatch { expected; got } ->
      Printf.sprintf "seed mismatch: this run uses seed %d, checkpoint was taken under %d"
        expected got
  | Kind_mismatch { expected; got } ->
      Printf.sprintf "kind mismatch: expected a %S checkpoint, got %S" expected got
  | Payload_rejected msg -> Printf.sprintf "payload rejected: %s" msg
  | Io_error msg -> Printf.sprintf "i/o error: %s" msg

type t = { kind : string; pos : int; seed : int; payload : string }

(* FNV-1a 64 over everything before the trailer — the checksum the
   edge file and the framed logs carry too. *)
let fnv1a64 s ~len = Mkc_obs.Telemetry.Framed.fnv1a64 (Bytes.unsafe_of_string s) ~pos:0 ~len

(* Fixed fields around the kind and the payload: magic, kind length,
   pos, seed, payload length and the trailer. *)
let fixed_bytes = 48

let to_string t =
  let k = String.length t.kind and p = String.length t.payload in
  let b = Bytes.create (fixed_bytes + k + p) in
  let body = 40 + k in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int k);
  Bytes.blit_string t.kind 0 b 16 k;
  Bytes.set_int64_le b (16 + k) (Int64.of_int t.pos);
  Bytes.set_int64_le b (24 + k) (Int64.of_int t.seed);
  Bytes.set_int64_le b (32 + k) (Int64.of_int p);
  Bytes.blit_string t.payload 0 b body p;
  Bytes.set_int64_le b (body + p) (fnv1a64 (Bytes.unsafe_to_string b) ~len:(body + p));
  Bytes.to_string b

let ( let* ) = Result.bind

(* The version a foreign-looking file claims, if it is a checkpoint at
   all: v1 in its JSON schema field, later versions in the magic's last
   byte. *)
let check_magic s =
  let len = String.length s in
  if String.starts_with ~prefix:magic s then Ok ()
  else if String.starts_with ~prefix:json_prefix s then
    let i = String.length json_prefix in
    match String.index_from_opt s i '"' with
    | Some j -> Error (Bad_version (schema_prefix ^ String.sub s i (j - i)))
    | None -> Error (Truncated "cut inside the schema field")
  else if len >= 8 && String.starts_with ~prefix:(String.sub magic 0 7) s then
    Error (Bad_version (schema_prefix ^ String.make 1 s.[7]))
  else if len < 8 && String.starts_with ~prefix:s magic then
    Error (Truncated (Printf.sprintf "%d bytes, cut inside the magic" len))
  else Error (Bad_magic (String.sub s 0 (min 8 len)))

let of_string ?expect_kind ?expect_seed s =
  let len = String.length s in
  let* () = check_magic s in
  let int_at off =
    let v = String.get_int64_le s off in
    if Int64.equal (Int64.of_int (Int64.to_int v)) v then Ok (Int64.to_int v)
    else Error (Malformed (Printf.sprintf "header field at byte %d does not fit an int" off))
  in
  let* k = if len < 16 then Error (Truncated "cut inside the header") else int_at 8 in
  let* () =
    if k < 0 then Error (Malformed "negative kind length")
    else if k > len - fixed_bytes then
      Error (Truncated (Printf.sprintf "kind length %d in %d bytes" k len))
    else Ok ()
  in
  let body = 40 + k in
  let* pos = int_at (16 + k) in
  let* seed = int_at (24 + k) in
  let* p = int_at (32 + k) in
  let* () =
    let room = len - body - 8 in
    if p < 0 then Error (Malformed "negative payload length")
    else if p > room then
      Error (Truncated (Printf.sprintf "payload length %d, %d bytes present" p room))
    else if p < room then
      Error (Malformed (Printf.sprintf "%d bytes after the trailer" (room - p)))
    else Ok ()
  in
  let expected = fnv1a64 s ~len:(body + p) and got = String.get_int64_le s (body + p) in
  let* () =
    if not (Int64.equal expected got) then
      Error
        (Checksum_mismatch
           { expected = Printf.sprintf "%016Lx" expected; got = Printf.sprintf "%016Lx" got })
    else Ok ()
  in
  let* () = if pos < 0 then Error (Malformed "negative position") else Ok () in
  let kind = String.sub s 16 k in
  let* () =
    match expect_kind with
    | Some e when e <> kind -> Error (Kind_mismatch { expected = e; got = kind })
    | _ -> Ok ()
  in
  let* () =
    match expect_seed with
    | Some sd when sd <> seed -> Error (Seed_mismatch { expected = sd; got = seed })
    | _ -> Ok ()
  in
  Ok { kind; pos; seed; payload = String.sub s body p }

let validate s = of_string s

(* Words the serialized state would occupy if held in memory — the
   figure [Sink.Observed] accounts under the [checkpoint] breakdown
   key. *)
let words_of_bytes bytes = (bytes + 7) / 8

module Obs = struct
  let r = Mkc_obs.Registry.global
  let saves = Mkc_obs.Registry.counter r "checkpoint.saves"
  let bytes = Mkc_obs.Registry.counter r "checkpoint.bytes"
  let loads = Mkc_obs.Registry.counter r "checkpoint.loads"

  (* Per-save latency distributions: framing the already-encoded
     payload (header, copy and checksum) and the full durable save
     (framing + write + rename). *)
  let encode_ns = Mkc_obs.Registry.histogram r "checkpoint.encode_ns"
  let save_ns = Mkc_obs.Registry.histogram r "checkpoint.save_ns"
end

let save ~path t =
  let t0 = Mkc_obs.Clock.now_ns () in
  let s = to_string t in
  Mkc_obs.Registry.record Obs.encode_ns (Mkc_obs.Clock.now_ns () - t0);
  (* Atomic: a crash mid-save must never destroy the previous valid
     checkpoint, so write a sibling temp file and rename over. *)
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc s);
    Sys.rename tmp path
  with
  | () ->
      if Mkc_obs.Registry.enabled () then begin
        Mkc_obs.Registry.incr Obs.saves;
        Mkc_obs.Registry.add Obs.bytes (String.length s);
        Mkc_obs.Registry.record Obs.save_ns (Mkc_obs.Clock.now_ns () - t0)
      end;
      Ok (String.length s)
  | exception Sys_error msg -> Error (Io_error msg)

let load ?expect_kind ?expect_seed ~path () =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Io_error msg)
  | s ->
      if Mkc_obs.Registry.enabled () then Mkc_obs.Registry.incr Obs.loads;
      of_string ?expect_kind ?expect_seed s

type 's codec = {
  kind : string;
  seed : int;
  encode : 's -> string;
  restore : 's -> string -> (unit, string) result;
}
