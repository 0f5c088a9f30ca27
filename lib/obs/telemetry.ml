(* Append-only binary telemetry log.  See the .mli for the layout.

   The framing is [Framed], shared with the run ledger: little-endian
   int64 fields, FNV-1a 64 checksums, and a named error for every
   rejection.  The one twist — a torn final frame (a crash mid-append)
   yields the intact prefix plus a named [torn] error rather than a
   failure — is there because telemetry is most valuable for runs that
   died.  [read] is that walk followed by a fold over the payloads. *)

type error =
  | Bad_magic of string
  | Bad_version of int
  | Truncated of string
  | Checksum_mismatch of { expected : string; got : string }
  | Malformed of string
  | Io_error of string

let magic = "MKCTEL1\n"
let version = 1

let error_to_string = function
  | Bad_magic s -> Printf.sprintf "not a telemetry log (magic %S, expected %S)" s magic
  | Bad_version v ->
      Printf.sprintf "unsupported telemetry log version %d (this build reads %d)" v version
  | Truncated msg -> Printf.sprintf "truncated telemetry log: %s" msg
  | Checksum_mismatch { expected; got } ->
      Printf.sprintf "checksum mismatch: frame says %s, payload hashes to %s" got expected
  | Malformed msg -> Printf.sprintf "malformed telemetry log: %s" msg
  | Io_error msg -> Printf.sprintf "i/o error: %s" msg

let ( let* ) = Result.bind

let checked_to_int name v =
  let i = Int64.to_int v in
  if Int64.of_int i <> v then Error (Malformed (Printf.sprintf "%s %Ld out of range" name v))
  else Ok i

(* ---------- shared framing ---------- *)

(* The magic/version/frame/torn-tail machinery: the telemetry log and
   the run ledger (MKCLEDG1) carry the exact same guarantees from this
   one walk. *)
module Framed = struct
  (* The one FNV-1a 64 of the code base: the framed logs, Edge_file and
     the checkpoint envelope all checksum with it.  Not cryptographic —
     it catches truncation, bit rot and hand edits. *)
  let fnv1a64 b ~pos ~len =
    let h = ref 0xCBF29CE484222325L in
    for i = pos to pos + len - 1 do
      h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)));
      h := Int64.mul !h 0x100000001B3L
    done;
    !h

  let hex64 v = Printf.sprintf "%016Lx" v

  let write_header oc ~magic ~version =
    if String.length magic <> 8 then
      invalid_arg "Telemetry.Framed.write_header: magic must be exactly 8 bytes";
    let head = Bytes.create 16 in
    Bytes.blit_string magic 0 head 0 8;
    Bytes.set_int64_le head 8 (Int64.of_int version);
    output_bytes oc head

  let write_frame oc payload =
    let len = Bytes.length payload in
    let head = Bytes.create 16 in
    Bytes.set_int64_le head 0 (Int64.of_int len);
    Bytes.set_int64_le head 8 (fnv1a64 payload ~pos:0 ~len);
    output_bytes oc head;
    output_bytes oc payload

  let check_header data ~magic ~version =
    let len = Bytes.length data in
    if len < 16 then Error (Truncated (Printf.sprintf "%d bytes, need 16 for the header" len))
    else
      let got_magic = Bytes.sub_string data 0 8 in
      if not (String.equal got_magic magic) then Error (Bad_magic got_magic)
      else
        let* ver = checked_to_int "version" (Bytes.get_int64_le data 8) in
        if ver = version then Ok () else Error (Bad_version ver)

  let read_all ~magic ~version path =
    if String.length magic <> 8 then
      invalid_arg "Telemetry.Framed.read_all: magic must be exactly 8 bytes";
    match open_in_bin path with
    | exception Sys_error msg -> Error (Io_error msg)
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let file_len = in_channel_length ic in
            let data = Bytes.create file_len in
            let* () =
              match really_input ic data 0 file_len with
              | () -> Ok ()
              | exception End_of_file -> Error (Io_error "file shrank during read")
            in
            let* () = check_header data ~magic ~version in
            (* A frame that extends past EOF is a torn tail: keep
               everything before it and name the tear.  Lengths are
               compared against the bytes left, never added to [pos],
               so a forged length cannot overflow past the check. *)
            let rec go pos acc =
              let left = file_len - pos in
              let torn fmt =
                Printf.ksprintf (fun msg -> Ok (List.rev acc, Some (Truncated msg))) fmt
              in
              if left = 0 then Ok (List.rev acc, None)
              else if left < 16 then torn "torn frame header at byte %d (%d of 16 bytes)" pos left
              else
                let* plen = checked_to_int "frame length" (Bytes.get_int64_le data pos) in
                if plen < 1 then
                  Error (Malformed (Printf.sprintf "frame of %d bytes at byte %d" plen pos))
                else if plen > left - 16 then
                  torn "torn frame at byte %d (%d of %d payload bytes)" pos (left - 16) plen
                else
                  let stored_crc = Bytes.get_int64_le data (pos + 8) in
                  let crc = fnv1a64 data ~pos:(pos + 16) ~len:plen in
                  if not (Int64.equal crc stored_crc) then
                    Error (Checksum_mismatch { expected = hex64 crc; got = hex64 stored_crc })
                  else go (pos + 16 + plen) (Bytes.sub data (pos + 16) plen :: acc)
            in
            go 16 [])
end

let kind_directory = 1
let kind_sample = 2
let kind_event = 3

type sample = { s_ns : int; s_edges : int; values : int array }
type event = { e_ns : int; e_edges : int; e_name : string; e_value : int }

type log = {
  tracks : string array;
  samples : sample list;
  events : event list;
  torn : error option;
}

module Writer = struct
  type t = {
    oc : out_channel;
    ntracks : int;
    scratch : Bytes.t; (* one full sample frame: 16-byte header + payload *)
    mutable closed : bool;
  }

  let directory_payload tracks =
    let b = Buffer.create 256 in
    let i64 v =
      let s = Bytes.create 8 in
      Bytes.set_int64_le s 0 (Int64.of_int v);
      Buffer.add_bytes b s
    in
    i64 kind_directory;
    i64 (Array.length tracks);
    Array.iter
      (fun name ->
        i64 (String.length name);
        Buffer.add_string b name)
      tracks;
    Buffer.to_bytes b

  let create path ~tracks =
    let nt = Array.length tracks in
    if nt = 0 then invalid_arg "Telemetry.Writer.create: no tracks";
    match open_out_bin path with
    | exception Sys_error msg -> Error (Io_error msg)
    | oc ->
        Framed.write_header oc ~magic ~version;
        Framed.write_frame oc (directory_payload tracks);
        flush oc;
        let sample_payload = 24 + (8 * nt) in
        let scratch = Bytes.create (16 + sample_payload) in
        Bytes.set_int64_le scratch 0 (Int64.of_int sample_payload);
        Bytes.set_int64_le scratch 16 (Int64.of_int kind_sample);
        Ok { oc; ntracks = nt; scratch; closed = false }

  let sample t ~at_ns ~at_edges values =
    if Array.length values <> t.ntracks then
      invalid_arg "Telemetry.Writer.sample: value count does not match the directory";
    (* Header and kind are pre-filled in [scratch]; only the payload
       checksum and the coordinates/values change per sample. *)
    Bytes.set_int64_le t.scratch 24 (Int64.of_int at_ns);
    Bytes.set_int64_le t.scratch 32 (Int64.of_int at_edges);
    for i = 0 to t.ntracks - 1 do
      Bytes.set_int64_le t.scratch (40 + (8 * i)) (Int64.of_int (Array.unsafe_get values i))
    done;
    let plen = Bytes.length t.scratch - 16 in
    Bytes.set_int64_le t.scratch 8 (Framed.fnv1a64 t.scratch ~pos:16 ~len:plen);
    output_bytes t.oc t.scratch;
    flush t.oc

  let event t ~at_ns ~at_edges ~name ~value =
    let nlen = String.length name in
    let payload = Bytes.create (40 + nlen) in
    Bytes.set_int64_le payload 0 (Int64.of_int kind_event);
    Bytes.set_int64_le payload 8 (Int64.of_int at_ns);
    Bytes.set_int64_le payload 16 (Int64.of_int at_edges);
    Bytes.set_int64_le payload 24 (Int64.of_int value);
    Bytes.set_int64_le payload 32 (Int64.of_int nlen);
    Bytes.blit_string name 0 payload 40 nlen;
    Framed.write_frame t.oc payload;
    flush t.oc

  let close t =
    if not t.closed then begin
      t.closed <- true;
      close_out_noerr t.oc
    end
end

(* ---------- reading ---------- *)

(* Every count and length is checked against the payload bytes left
   before anything is allocated or sliced from it. *)
let parse_directory payload =
  let plen = Bytes.length payload in
  if plen < 16 then Error (Malformed "directory frame too short")
  else
    let* nt = checked_to_int "track count" (Bytes.get_int64_le payload 8) in
    if nt < 1 then Error (Malformed "directory declares no tracks")
    else if nt > (plen - 16) / 8 then
      Error (Malformed (Printf.sprintf "directory declares %d tracks in %d bytes" nt plen))
    else begin
      let tracks = Array.make nt "" in
      let rec go i pos =
        if i = nt then
          if pos = plen then Ok tracks
          else Error (Malformed "trailing bytes after the track directory")
        else if pos + 8 > plen then Error (Malformed "directory track length cut short")
        else
          let* len = checked_to_int "track name length" (Bytes.get_int64_le payload pos) in
          if len < 0 || len > plen - pos - 8 then
            Error (Malformed "directory track name cut short")
          else begin
            tracks.(i) <- Bytes.sub_string payload (pos + 8) len;
            go (i + 1) (pos + 8 + len)
          end
      in
      go 0 16
    end

let parse_sample payload ~ntracks =
  let plen = Bytes.length payload in
  if plen <> 24 + (8 * ntracks) then
    Error
      (Malformed
         (Printf.sprintf "sample frame is %d bytes, directory of %d tracks needs %d" plen
            ntracks
            (24 + (8 * ntracks))))
  else
    let* s_ns = checked_to_int "sample ns" (Bytes.get_int64_le payload 8) in
    let* s_edges = checked_to_int "sample edges" (Bytes.get_int64_le payload 16) in
    let values = Array.make ntracks 0 in
    let rec go i =
      if i = ntracks then Ok { s_ns; s_edges; values }
      else
        let* v = checked_to_int "sample value" (Bytes.get_int64_le payload (24 + (8 * i))) in
        values.(i) <- v;
        go (i + 1)
    in
    go 0

let parse_event payload =
  let plen = Bytes.length payload in
  if plen < 40 then Error (Malformed "event frame too short")
  else
    let* e_ns = checked_to_int "event ns" (Bytes.get_int64_le payload 8) in
    let* e_edges = checked_to_int "event edges" (Bytes.get_int64_le payload 16) in
    let* e_value = checked_to_int "event value" (Bytes.get_int64_le payload 24) in
    let* nlen = checked_to_int "event name length" (Bytes.get_int64_le payload 32) in
    if nlen <> plen - 40 then Error (Malformed "event name length disagrees with frame")
    else Ok { e_ns; e_edges; e_name = Bytes.sub_string payload 40 nlen; e_value }

(* One payload into the (directory, samples, events) accumulator: the
   directory must come first and only once. *)
let parse_payload (tracks, samples, events) payload =
  let plen = Bytes.length payload in
  if plen < 8 then Error (Malformed (Printf.sprintf "frame of %d bytes, need 8 for its kind" plen))
  else
    let* kind = checked_to_int "frame kind" (Bytes.get_int64_le payload 0) in
    match tracks with
    | None when kind = kind_directory ->
        let* tr = parse_directory payload in
        Ok (Some tr, samples, events)
    | Some _ when kind = kind_directory -> Error (Malformed "second track directory")
    | None -> Error (Malformed "first frame is not a track directory")
    | Some tr when kind = kind_sample ->
        let* s = parse_sample payload ~ntracks:(Array.length tr) in
        Ok (tracks, s :: samples, events)
    | Some _ when kind = kind_event ->
        let* e = parse_event payload in
        Ok (tracks, samples, e :: events)
    | Some _ -> Error (Malformed (Printf.sprintf "unknown frame kind %d" kind))

let read path =
  let* payloads, torn = Framed.read_all ~magic ~version path in
  let* tracks, samples, events =
    List.fold_left
      (fun acc p -> Result.bind acc (fun acc -> parse_payload acc p))
      (Ok (None, [], []))
      payloads
  in
  match tracks with
  | None -> Error (Malformed "log carries no track directory")
  | Some tracks -> Ok { tracks; samples = List.rev samples; events = List.rev events; torn }

(* ---------- summaries ---------- *)

type summary = {
  t_name : string;
  t_count : int;
  t_min : int;
  t_max : int;
  t_last : int;
  t_p50 : int;
  t_p99 : int;
}

let summarize log =
  let n = List.length log.samples in
  Array.to_list log.tracks
  |> List.mapi (fun i t_name ->
         if n = 0 then
           { t_name; t_count = 0; t_min = 0; t_max = 0; t_last = 0; t_p50 = 0; t_p99 = 0 }
         else begin
           let vals = Array.make n 0 in
           List.iteri (fun j s -> vals.(j) <- s.values.(i)) log.samples;
           let t_last = vals.(n - 1) in
           Array.sort compare vals;
           {
             t_name;
             t_count = n;
             t_min = vals.(0);
             t_max = vals.(n - 1);
             t_last;
             t_p50 = Histogram.quantile_sorted vals 0.5;
             t_p99 = Histogram.quantile_sorted vals 0.99;
           }
         end)

let replay ?capacity log =
  let n = List.length log.samples in
  let capacity = match capacity with Some c -> c | None -> max 1 n in
  let s = Series.create ~capacity ~tracks:log.tracks in
  List.iter
    (fun smp ->
      Array.iteri (fun i v -> Series.stage s i v) smp.values;
      Series.commit s ~at_ns:smp.s_ns ~at_edges:smp.s_edges)
    log.samples;
  s
