(* Seeded byte mutations for the hostile-input fuzzes.  Every decoder of
   untrusted bytes (checkpoint envelope and payload, telemetry log, run
   ledger, edge file, text stream, snapshot and trace JSON) must end in
   [Ok] or a named error on any of them: never raise, hang, or allocate
   a size read from an unchecked field. *)

(* What a forged count, length or other integer field is set to. *)
let lying_values = [| max_int; min_int; -1; -(1 lsl 40); 1 lsl 40; 1 lsl 20; 4096; 0 |]

let flip_bits s bits =
  let b = Bytes.of_string s in
  List.iter
    (fun bit ->
      let i = bit / 8 mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8)))))
    bits;
  Bytes.to_string b

(* The first [spot mod length] bytes. *)
let cut s spot = String.sub s 0 (spot mod String.length s)

(* The int64 LE field at byte [at] set to [v]; unchanged when it does
   not fit. *)
let set_int64 s ~at v =
  if at < 0 || at + 8 > String.length s then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set_int64_le b at (Int64.of_int v);
    Bytes.to_string b
  end

(* A mutation: [kind] 0 flips the bits at [spots], 1 cuts at the first
   spot, 2 makes a field lie with [value]. *)
type t = { kind : int; spots : int list; value : int }

let gen =
  QCheck.Gen.(
    map
      (fun (kind, spots, value) -> { kind; spots; value })
      (triple (int_bound 2)
         (list_size (int_range 1 8) (int_bound 1_000_000_000))
         (map (Array.get lying_values) (int_bound (Array.length lying_values - 1)))))

let to_string m =
  Printf.sprintf "mutation %d at [%s], value %d" m.kind
    (String.concat "; " (List.map string_of_int m.spots))
    m.value

(* Kinds 0 and 1 are format-blind; kind 2 calls [lie s ~spot value], so
   the caller decides which of its fields the first spot makes lie. *)
let apply m s ~lie =
  if String.length s = 0 then s
  else
    match m.kind with
    | 0 -> flip_bits s m.spots
    | 1 -> cut s (List.hd m.spots)
    | _ -> lie s ~spot:(List.hd m.spots) m.value

(* Words allocated while [f] runs: a decoder fed a lying count must not
   allocate more than the input's size allows.  The minor heap is
   emptied first, so whatever a minor collection promotes during [f] is
   [f]'s own, already counted when allocated, and not counted again. *)
let allocated f =
  let words () =
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  Gc.minor ();
  let before = words () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (words () -. before)

(* ---------- text formats ---------- *)

(* The [spot mod count]-th integer token of a text (a maximal run of
   digits and '-') set to [v]; unchanged when the text has none. *)
let lie_token s ~spot v =
  let n = String.length s in
  let is_num c = (c >= '0' && c <= '9') || c = '-' in
  let rec spans i acc =
    if i >= n then List.rev acc
    else if not (is_num s.[i]) then spans (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && is_num s.[!j] do
        incr j
      done;
      spans !j ((i, !j) :: acc)
    end
  in
  match spans 0 [] with
  | [] -> s
  | l ->
      let i, j = List.nth l (spot mod List.length l) in
      String.sub s 0 i ^ string_of_int v ^ String.sub s j (n - j)

(* A seeded 1,000-case fuzz of a text decoder.  [decode s] does any
   set-up (writing a file) and returns the decode itself, which must
   end in [Ok] or an [Error] that [named] accepts — never another
   exception — and allocate no more than the valid input's decode
   allows for the mutated input's size. *)
let text_fuzz ~name ~seed ~valid ~decode ~named =
  let property m =
    let s = apply m valid ~lie:lie_token in
    let measure d =
      let r = ref (Ok ()) in
      let words = allocated (fun () -> r := d ()) in
      (words, !r)
    in
    let valid_words, valid_result = measure (decode valid) in
    if Result.is_error valid_result then QCheck.Test.fail_report "the valid input is rejected";
    match measure (decode s) with
    | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
    | words, decoded ->
        if words > (4 * valid_words) + (64 * String.length s) then
          QCheck.Test.fail_reportf "allocated %d words from %d bytes" words (String.length s);
        (match decoded with
        | Error msg when not (named msg) -> QCheck.Test.fail_reportf "unnamed error %S" msg
        | _ -> ());
        true
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~name ~count:1000 (QCheck.make ~print:to_string gen) property)

(* ---------- forgeries that keep the checksums valid ---------- *)

(* Re-seal the checksum of the frame at byte [frame] of a framed log
   (MKCTEL1, MKCLEDG1), so a forged payload field reaches the payload
   parser instead of stopping at Checksum_mismatch. *)
let reseal_frame b ~frame =
  let plen = Int64.to_int (Bytes.get_int64_le b frame) in
  Bytes.set_int64_le b (frame + 8) (Mkc_obs.Telemetry.Framed.fnv1a64 b ~pos:(frame + 16) ~len:plen)

(* The start of every frame the declared lengths still walk. *)
let frame_starts b =
  let len = Bytes.length b in
  let rec go pos acc =
    if len - pos < 16 then List.rev acc
    else
      let plen = Int64.to_int (Bytes.get_int64_le b pos) in
      if plen < 0 || plen > len - pos - 16 then List.rev acc else go (pos + 16 + plen) (pos :: acc)
  in
  go 16 []

let reseal_frames s =
  let b = Bytes.of_string s in
  List.iter (fun frame -> reseal_frame b ~frame) (frame_starts b);
  Bytes.to_string b

(* A telemetry log at [path] whose directory names track "a" twice,
   under valid checksums: one sample over tracks "a", "b", then the
   second name (byte 65: directory payload at 32, kind, count, length,
   "a", length) patched to "a" and the directory resealed.  The writer
   itself refuses a repeated name. *)
let repeated_track_log path =
  let module W = Mkc_obs.Telemetry.Writer in
  (match W.create path ~tracks:[| "a"; "b" |] with
  | Ok w ->
      W.sample w ~at_ns:1 ~at_edges:1 [| 1; 2 |];
      W.close w
  | Error e -> failwith (Mkc_obs.Telemetry.error_to_string e));
  let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  Bytes.set b 65 'a';
  reseal_frame b ~frame:16;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

(* Re-seal an edge file's header checksum over whatever column bytes
   follow it. *)
let reseal_edge_file s =
  if String.length s < 48 then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set_int64_le b 40
      (Mkc_obs.Telemetry.Framed.fnv1a64 b ~pos:48 ~len:(Bytes.length b - 48));
    Bytes.to_string b
  end

(* A bare 48-byte MKCEDG1 header promising [count] edges, sealed with
   the checksum of its (empty) columns: the FNV-1a basis. *)
let edge_header ~count =
  let b = Bytes.make 48 '\000' in
  Bytes.blit_string Mkc_stream.Edge_file.magic 0 b 0 8;
  Bytes.set_int64_le b 8 1L;
  Bytes.set_int64_le b 16 16L;
  Bytes.set_int64_le b 24 16L;
  Bytes.set_int64_le b 32 (Int64.of_int count);
  reseal_edge_file (Bytes.to_string b)

(* A sealed estimate checkpoint whose 17-byte payload is nothing but
   params in [Params.put]'s layout, describing an instance far too large
   to build: m = 2^24, n = u = 4096, k = 2, alpha = 4, seed 0.  The
   envelope is valid, so the payload reaches the estimator's decoder. *)
let forged_params_payload =
  let module Pk = Mkc_sketch.Packed in
  let w = Pk.writer () in
  List.iter (Pk.put w) [ 1 lsl 24; 4096; 4096; 2 ];
  Pk.put_int64 w (Int64.bits_of_float 4.0);
  Pk.put w 0;
  Pk.put w 0;
  Pk.contents w

let forged_params_checkpoint =
  Mkc_stream.Checkpoint.to_string
    { Mkc_stream.Checkpoint.kind = "estimate"; pos = 0; seed = 0; payload = forged_params_payload }
