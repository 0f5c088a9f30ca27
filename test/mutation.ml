(* Seeded byte mutations for the hostile-input fuzzes.  Every decoder of
   untrusted bytes (checkpoint envelope and payload, telemetry log, run
   ledger, edge file) must end in [Ok] or a named error on any of them:
   never raise, hang, or allocate a size read from an unchecked field. *)

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
   allocate more than the input's size allows. *)
let allocated f =
  let before = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words -. before)

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
