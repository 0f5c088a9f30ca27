(* Binary columnar edge files.

   Layout (all integers little-endian int64):

     offset  0   magic   "MKCEDG1\n" (v1) or "MKCEDG2\n" (v2, signed)
     offset  8   version (1 for v1 magic, 2 for v2 magic)
     offset 16   n       (element universe bound: every elt in [0, n))
     offset 24   m       (set universe bound: every set in [0, m))
     offset 32   count   (number of edges)
     offset 40   checksum — FNV-1a 64 over the column bytes
     offset 48   set column: count × int64
     then        elt column: count × int64
     then (v2)   sign column: count × 1 byte (0 = +1, 1 = −1)

   Column-major fixed-width records: the columns are contiguous runs
   of fixed-width values, so the format is mmap-able by construction
   (no variable-length rows, no string parsing on read), and loading
   is bulk reads plus integer extraction.

   v2 is the turnstile record: it appends a one-byte-per-edge sign
   column and bumps both magic and version, so a v1 reader rejects it
   by name instead of silently dropping deletions.  [write] emits v1
   whenever every sign is +1 — insertion-only streams keep producing
   byte-identical v1 files — and v2 only when a deletion is present.

   Error handling mirrors the checkpoint envelope's matrix: every
   rejection is a named variant — bad magic, version/magic mismatch,
   truncation, checksum mismatch, out-of-range ids or sign bytes —
   never a silent partial load. *)

type error =
  | Bad_magic of string
  | Bad_version of int
  | Truncated of string
  | Checksum_mismatch of { expected : string; got : string }
  | Malformed of string
  | Io_error of string

let magic = "MKCEDG1\n"
let magic_v2 = "MKCEDG2\n"

let error_to_string = function
  | Bad_magic s ->
      Printf.sprintf "not an edge file (magic %S, expected %S or %S)" s magic magic_v2
  | Bad_version v ->
      Printf.sprintf
        "unsupported edge file version %d (v1 magic takes version 1, v2 magic version \
         2)"
        v
  | Truncated msg -> Printf.sprintf "truncated edge file: %s" msg
  | Checksum_mismatch { expected; got } ->
      Printf.sprintf "checksum mismatch: header says %s, columns hash to %s" got expected
  | Malformed msg -> Printf.sprintf "malformed edge file: %s" msg
  | Io_error msg -> Printf.sprintf "i/o error: %s" msg

let version = 1
let version_v2 = 2
let header_bytes = 48

(* The FNV-1a 64 every checksummed format shares. *)
let fnv1a64 = Mkc_obs.Telemetry.Framed.fnv1a64
let hex64 = Mkc_obs.Telemetry.Framed.hex64

let write path edges ~n ~m =
  if n < 0 || m < 0 then invalid_arg "Edge_file.write: negative universe bound";
  let count = Array.length edges in
  let signed = Array.exists (fun (e : Edge.t) -> e.sign < 0) edges in
  let body_len = if signed then 17 * count else 16 * count in
  let body = Bytes.create body_len in
  for i = 0 to count - 1 do
    let (e : Edge.t) = Array.unsafe_get edges i in
    if e.set >= m then
      invalid_arg
        (Printf.sprintf "Edge_file.write: set id %d out of range [0, %d)" e.set m);
    if e.elt >= n then
      invalid_arg
        (Printf.sprintf "Edge_file.write: element id %d out of range [0, %d)" e.elt n);
    Bytes.set_int64_le body (8 * i) (Int64.of_int e.set);
    Bytes.set_int64_le body (8 * (count + i)) (Int64.of_int e.elt);
    if signed then
      Bytes.set body ((16 * count) + i) (if e.sign >= 0 then '\000' else '\001')
  done;
  let header = Bytes.create header_bytes in
  Bytes.blit_string (if signed then magic_v2 else magic) 0 header 0 8;
  Bytes.set_int64_le header 8 (Int64.of_int (if signed then version_v2 else version));
  Bytes.set_int64_le header 16 (Int64.of_int n);
  Bytes.set_int64_le header 24 (Int64.of_int m);
  Bytes.set_int64_le header 32 (Int64.of_int count);
  Bytes.set_int64_le header 40 (fnv1a64 body ~pos:0 ~len:body_len);
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_bytes oc header;
        output_bytes oc body)
  with
  | () -> Ok (header_bytes + body_len)
  | exception Sys_error msg -> Error (Io_error msg)

(* Magic sniff for format dispatch: a short or unreadable file is
   simply "not binary" here — the text loader will report it. *)
let is_binary path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic 8 with
          | s -> String.equal s magic || String.equal s magic_v2
          | exception End_of_file -> false)

let ( let* ) = Result.bind

(* A stored field as a non-negative int, or -1 when it does not fit. *)
let[@inline] field_int v =
  let i = Int64.to_int v in
  if Int64.equal (Int64.of_int i) v && i >= 0 then i else -1

let out_of_range name v = Printf.sprintf "%s %Ld out of range" name v

let checked_to_int name v =
  let i = field_int v in
  if i < 0 then Error (Malformed (out_of_range name v)) else Ok i

let read path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io_error msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let file_len = in_channel_length ic in
          let* header =
            if file_len < header_bytes then
              Error
                (Truncated
                   (Printf.sprintf "%d bytes, need %d for the header" file_len
                      header_bytes))
            else
              match really_input_string ic header_bytes with
              | s -> Ok (Bytes.of_string s)
              | exception End_of_file -> Error (Truncated "header read failed")
          in
          let got_magic = Bytes.sub_string header 0 8 in
          let* signed =
            if String.equal got_magic magic then Ok false
            else if String.equal got_magic magic_v2 then Ok true
            else Error (Bad_magic got_magic)
          in
          let* ver = checked_to_int "version" (Bytes.get_int64_le header 8) in
          (* The version must match the magic: a v1 magic carrying v2
             fields (or vice versa) is rejected by name, not read with
             the wrong column layout. *)
          let* () =
            if ver = if signed then version_v2 else version then Ok ()
            else Error (Bad_version ver)
          in
          let* n = checked_to_int "n" (Bytes.get_int64_le header 16) in
          let* m = checked_to_int "m" (Bytes.get_int64_le header 24) in
          let* count = checked_to_int "count" (Bytes.get_int64_le header 32) in
          let stored_crc = Bytes.get_int64_le header 40 in
          let width = if signed then 17 else 16 in
          (* The count is bounded by the bytes present before it is
             multiplied: a forged count must not wrap [width * count]
             back into range. *)
          let* () =
            if
              count > (file_len - header_bytes) / width
              || file_len <> header_bytes + (width * count)
            then
              Error
                (Truncated
                   (Printf.sprintf "%d bytes, header promises %d edges of %d bytes"
                      file_len count width))
            else Ok ()
          in
          let body_len = width * count in
          let body = Bytes.create body_len in
          let* () =
            match really_input ic body 0 body_len with
            | () -> Ok ()
            | exception End_of_file -> Error (Truncated "column read failed")
          in
          let crc = fnv1a64 body ~pos:0 ~len:body_len in
          let* () =
            if Int64.equal crc stored_crc then Ok ()
            else
              Error (Checksum_mismatch { expected = hex64 crc; got = hex64 stored_crc })
          in
          (* One plain loop, last edge first, so a file with several
             faults names the same edge it always did; the first fault
             leaves by [Bad] and becomes its named [Malformed]. *)
          let exception Bad of string in
          match
            let edges = Array.make count (Edge.make ~set:0 ~elt:0) in
            for i = count - 1 downto 0 do
              let sv = Bytes.get_int64_le body (8 * i) in
              let s = field_int sv in
              if s < 0 then raise (Bad (out_of_range "set id" sv));
              let ev = Bytes.get_int64_le body (8 * (count + i)) in
              let e = field_int ev in
              if e < 0 then raise (Bad (out_of_range "element id" ev));
              if s >= m then raise (Bad (Printf.sprintf "set id %d out of range [0, %d)" s m));
              if e >= n then
                raise (Bad (Printf.sprintf "element id %d out of range [0, %d)" e n));
              let sign =
                if not signed then 1
                else
                  match Bytes.get body ((16 * count) + i) with
                  | '\000' -> 1
                  | '\001' -> -1
                  | c ->
                      raise
                        (Bad
                           (Printf.sprintf "sign byte %d out of range at edge %d" (Char.code c)
                              i))
              in
              edges.(i) <- Edge.signed ~sign ~set:s ~elt:e
            done;
            edges
          with
          | edges -> Ok (edges, n, m)
          | exception Bad msg -> Error (Malformed msg))
