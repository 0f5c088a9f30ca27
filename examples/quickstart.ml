(* Quickstart: estimate and report a maximum k-cover over an
   edge-arrival stream, and compare with the offline greedy baseline.

   Run with:  dune exec examples/quickstart.exe *)

module Ss = Mkc_stream.Set_system
module P = Mkc_core.Params

let () =
  (* A synthetic instance: 4096 elements, 1024 sets, a planted optimal
     8-cover covering half the universe. *)
  let pl = Mkc_workload.Planted.few_large ~n:4096 ~m:1024 ~k:8 ~seed:1 in
  let sys = pl.Mkc_workload.Planted.system in
  let k = 8 and alpha = 4.0 in

  Format.printf "instance: %a@." Ss.pp_summary sys;
  Format.printf "planted OPT coverage: %d@.@." pl.Mkc_workload.Planted.planted_coverage;

  (* The stream arrives as (set, element) pairs in adversarial order —
     here a pseudorandom shuffle. *)
  let stream = Ss.edge_stream ~seed:42 sys in
  let src = Mkc_stream.Stream_source.of_array stream in
  Format.printf "streaming %d (set, element) pairs, single pass...@." (Array.length stream);

  (* 1. Estimation (Theorem 3.1): α-approximate optimal coverage size in
     Õ(m/α²) space.  Create a sink, run the pipeline over the stream in
     cache-friendly chunks, read the finalized result. *)
  let params = P.make ~m:(Ss.m sys) ~n:(Ss.n sys) ~k ~alpha ~seed:7 () in
  let est = Mkc_core.Estimate.create params in
  let r = Mkc_stream.Pipeline.run Mkc_core.Estimate.sink est src in
  Format.printf "estimated optimal coverage: %.0f  (space: %d words)@." r.Mkc_core.Estimate.estimate
    (Mkc_core.Estimate.words est);
  (match r.Mkc_core.Estimate.outcome with
  | Some o -> Format.printf "winning subroutine: %a@." Mkc_core.Solution.pp_provenance o.provenance
  | None -> ());

  (* 2. Reporting (Theorem 3.2): an actual k-cover in Õ(m/α² + k) space.
     Same pipeline, different sink — here sharded across two domains
     (the result is identical to a sequential run by construction). *)
  let rep = Mkc_core.Report.create params in
  Mkc_stream.Pipeline.feed_all_parallel ~domains:2 (Mkc_core.Report.shards rep) src;
  let sol = Mkc_core.Report.finalize rep in
  let cov = Ss.coverage sys sol.Mkc_core.Report.sets in
  Format.printf "@.reported %d sets with true coverage %d@."
    (List.length sol.Mkc_core.Report.sets)
    cov;

  (* 3. Offline baseline: full-memory lazy greedy (1 - 1/e guarantee). *)
  let greedy = Mkc_coverage.Greedy.run sys ~k in
  Format.printf "@.offline greedy coverage: %d (stores the whole input)@."
    greedy.Mkc_coverage.Greedy.coverage;
  Format.printf "streaming/offline coverage ratio: %.2fx (guarantee: Õ(α), α = %.0f)@."
    (float_of_int greedy.Mkc_coverage.Greedy.coverage /. float_of_int (max 1 cov))
    alpha
