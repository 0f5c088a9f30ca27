(* Cross-era checkpoint compatibility.

   [golden_estimate_ckpt_v4.ckpt] is an mkc-ckpt/4 checkpoint of the
   full 120-edge stream of a fixed small instance, as the pipeline
   drive leaves it.  Every earlier era's code answered this instance the
   same way: the hashtable-backed sketches that wrote
   [golden_estimate_ckpt_v1.json] (mkc-ckpt/1, JSON), the flat sketches
   that wrote [golden_estimate_ckpt_v2.ckpt] (mkc-ckpt/2, one SmallSet
   store per guess), the one-store SmallSet that wrote
   [golden_estimate_ckpt_v3.ckpt] (mkc-ckpt/3, tabulation-hashed L0
   fingerprints), and the per-sketch polynomial-hashed L0 that wrote
   the v4 bytes.  Restoring the v4 bytes must finalize to exactly that
   old-era result.  The v1, v2 and v3 files are kept only to pin that
   this build rejects them by name.

   Instance (fixed forever — the golden bytes encode it):
     params   m=16 n=64 k=2 alpha=2.0 seed=5
     system   Random_inst.uniform ~set_size:8 ~seed:5
     stream   of_system ~seed:6            (120 edges)
   Old-era finalize: estimate 16.0, z_guess 64, witness [3; 6]. *)

module Src = Mkc_stream.Stream_source
module Ck = Mkc_stream.Checkpoint
module P = Mkc_core.Params
module E = Mkc_core.Estimate

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let golden_path = "golden_estimate_ckpt_v4.ckpt"
let golden_v3_path = "golden_estimate_ckpt_v3.ckpt"
let golden_v2_path = "golden_estimate_ckpt_v2.ckpt"
let golden_v1_path = "golden_estimate_ckpt_v1.json"
let golden_edges = 120
let golden_estimate = 16.0
let golden_z_guess = 64
let golden_witness = [ 3; 6 ]

let params () = P.make ~m:16 ~n:64 ~k:2 ~alpha:2.0 ~seed:5 ()

let stream () =
  Src.of_system ~seed:6 (Mkc_workload.Random_inst.uniform ~n:64 ~m:16 ~set_size:8 ~seed:5)

let read path = In_channel.with_open_bin path In_channel.input_all

let read_golden () =
  match Ck.of_string ~expect_kind:E.ckpt_kind (read golden_path) with
  | Ok ck -> ck
  | Error e -> Alcotest.failf "golden rejected: %s" (Ck.error_to_string e)

let restored () =
  let ck = read_golden () in
  match E.decode ck.Ck.payload with
  | Ok est -> (ck, est)
  | Error msg -> Alcotest.failf "golden payload rejected: %s" msg

let witness_of (r : E.result) =
  match r.E.outcome with
  | None -> []
  | Some o -> List.sort compare (o.Mkc_core.Solution.witness ())

let checkpoint_of est ~pos =
  let codec = E.codec (E.params est) in
  Ck.to_string
    { Ck.kind = codec.Ck.kind; pos; seed = codec.Ck.seed; payload = codec.Ck.encode est }

let test_golden_restores () =
  let ck, est = restored () in
  checki "covers the whole golden stream" golden_edges ck.Ck.pos;
  let r = E.finalize est in
  checkb "estimate matches old era" true (r.E.estimate = golden_estimate);
  checki "z_guess matches old era" golden_z_guess r.E.z_guess;
  checkb "witness matches old era" true (witness_of r = golden_witness)

let test_golden_equals_fresh_run () =
  let _, restored = restored () in
  let fresh = E.create (params ()) in
  let src = stream () in
  checki "instance reconstruction" golden_edges (Src.length src);
  let rf = Mkc_stream.Pipeline.run E.sink fresh src in
  (* the golden is the fresh drive's state, byte for byte *)
  checkb "fresh run checkpoints to the golden bytes" true
    (String.equal (checkpoint_of fresh ~pos:golden_edges) (read golden_path));
  let rr = E.finalize restored in
  checkb "estimate ≡ fresh run" true (rr.E.estimate = rf.E.estimate);
  checki "z_guess ≡ fresh run" rf.E.z_guess rr.E.z_guess;
  checkb "witness ≡ fresh run" true (witness_of rr = witness_of rf)

(* Round-trip through the current encoder: re-serializing the restored
   state must reproduce the golden bytes exactly. *)
let test_golden_reencodes_byte_stable () =
  let ck, est = restored () in
  checkb "re-encoded envelope is byte-identical" true
    (String.equal (checkpoint_of est ~pos:ck.Ck.pos) (read golden_path))

let rejected_as version path () =
  match Ck.of_string (read path) with
  | Error (Ck.Bad_version v) when v = version -> ()
  | Error e -> Alcotest.failf "%s golden: wrong error %s" version (Ck.error_to_string e)
  | Ok _ -> Alcotest.failf "%s golden accepted" version

let suite =
  [
    Alcotest.test_case "old-era golden restores into flat sketches" `Quick
      test_golden_restores;
    Alcotest.test_case "restored golden ≡ fresh flat run" `Quick
      test_golden_equals_fresh_run;
    Alcotest.test_case "restored golden re-encodes byte-stable" `Quick
      test_golden_reencodes_byte_stable;
    Alcotest.test_case "v1 JSON golden rejected as Bad_version" `Quick
      (rejected_as "mkc-ckpt/1" golden_v1_path);
    Alcotest.test_case "v2 golden rejected as Bad_version" `Quick
      (rejected_as "mkc-ckpt/2" golden_v2_path);
    Alcotest.test_case "v3 golden rejected as Bad_version" `Quick
      (rejected_as "mkc-ckpt/3" golden_v3_path);
  ]
