(* Multi-topic blog watch — the application that motivated the first
   streaming Max k-Cover paper (Saha–Getoor [37], cited in §1).

   Blogs (sets) mention topics (elements); an aggregator wants to follow
   k blogs that jointly cover as many topics as possible.  Mentions
   arrive as a feed of (blog, topic) pairs in publication order —
   i.e. a genuine edge-arrival stream with Zipf-skewed topic popularity.

   Run with:  dune exec examples/blog_watch.exe *)

module Ss = Mkc_stream.Set_system

let () =
  let topics = 8192 and blogs = 2048 in
  let k = 32 and alpha = 4.0 in

  (* skewed blog sizes and topic popularity *)
  let corpus =
    Mkc_workload.Random_inst.zipf_sizes ~n:topics ~m:blogs ~max_size:400 ~skew:1.1 ~seed:11
  in
  Format.printf "corpus: %d blogs, %d topics, %d mentions@." blogs topics
    (Ss.total_size corpus);

  let stream = Ss.edge_stream ~seed:12 corpus in
  let params = Mkc_core.Params.make ~m:blogs ~n:topics ~k ~alpha ~seed:13 () in

  (* run estimation and reporting side by side in the same pass *)
  let est = Mkc_core.Estimate.create params in
  let rep = Mkc_core.Report.create params in
  Array.iter
    (fun e ->
      Mkc_core.Estimate.feed est e;
      Mkc_core.Report.feed rep e)
    stream;

  let r = Mkc_core.Estimate.finalize est in
  Format.printf "@.estimated best %d-blog topic coverage: %.0f topics@." k
    r.Mkc_core.Estimate.estimate;

  let sol = Mkc_core.Report.finalize rep in
  let chosen = sol.Mkc_core.Report.sets in
  let covered = Ss.coverage corpus chosen in
  Format.printf "recommended following %d blogs covering %d topics@."
    (List.length chosen) covered;

  (* context: what full-memory baselines achieve *)
  let greedy = Mkc_coverage.Greedy.run corpus ~k in
  let sieve = Mkc_baselines.Sieve.create ~n:topics ~k () in
  for b = 0 to blogs - 1 do
    Mkc_baselines.Sieve.feed sieve b (Ss.set corpus b)
  done;
  let sv = Mkc_baselines.Sieve.result sieve in
  Format.printf "@.baselines: offline greedy %d topics | set-arrival sieve %d topics@."
    greedy.Mkc_coverage.Greedy.coverage sv.Mkc_coverage.Greedy.coverage;
  Format.printf
    "space: streaming %d words | sieve %d words (Õ(n) bitmaps) | greedy stores all %d mentions@."
    (Mkc_core.Report.words rep)
    (Mkc_baselines.Sieve.words sieve)
    (Ss.total_size corpus)
