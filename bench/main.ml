(* Benchmark / experiment driver.

   Usage:
     dune exec bench/main.exe            # all experiments + micro-benchmarks
     dune exec bench/main.exe -- e1 e5   # selected experiments
     dune exec bench/main.exe -- micro   # bechamel micro-benchmarks only

   Experiment ids follow DESIGN.md §4 (one per paper table/figure). *)

let registry ~budget_strict =
  [
    ("e1", Experiments.e1);
    ("e2", Experiments.e2);
    ("e3", Experiments.e3);
    ("e4", Experiments.e4);
    ("e5", Experiments.e5);
    ("e6", Experiments.e6);
    ("e7", Experiments.e7);
    ("e8", Experiments.e8);
    ("e9", Experiments.e9);
    ("e10", Experiments.e10);
    ("micro", Micro.run);
    ("pipeline", Pipeline_bench.run ~budget_strict);
    ("pipeline-smoke", Pipeline_bench.run_smoke ~budget_strict);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --budget-strict makes the pipeline bench's space budget fatal. *)
  let budget_strict = List.mem "--budget-strict" args in
  let args = List.filter (fun a -> a <> "--budget-strict") args in
  let registry = registry ~budget_strict in
  let t0 = Unix.gettimeofday () in
  (match args with
  | [] -> List.iter (fun (_, f) -> f ()) registry
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt (String.lowercase_ascii name) registry with
          | Some f -> f ()
          | None ->
              Format.printf "unknown experiment %S; available: %s@." name
                (String.concat ", " (List.map fst registry)))
        names);
  Format.printf "@.total bench time: %.1fs@." (Unix.gettimeofday () -. t0)
