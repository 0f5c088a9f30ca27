(* The standard telemetry track set.  Each probe reads the one sample
   [Run] hands it — the breakdown walk and the stats totals it already
   paid for — so a sample costs one of each, whatever the track
   count. *)

let ppm ~num ~den = if den <= 0 then 0 else num * 1_000_000 / den
let assoc key kvs = Option.value ~default:0 (List.assoc_opt key kvs)

let common ~read_totals ~extra : Run.probes =
  let tracks ~breakdown : Run.probe array =
    let throughput =
      (* Instantaneous rate between consecutive samples, anchored when
         the tracks are built so the first sample is meaningful too. *)
      let last_ns = ref (Mkc_obs.Clock.now_ns ()) and last_edges = ref 0 and last_rate = ref 0 in
      fun (s : Run.sample) ->
        let dns = s.at_ns - !last_ns and de = s.at_edges - !last_edges in
        if dns > 0 then begin
          last_rate := int_of_float (float_of_int de *. 1e9 /. float_of_int dns);
          last_ns := s.at_ns;
          last_edges := s.at_edges
        end;
        !last_rate
    in
    let tot key (s : Run.sample) = assoc key s.totals in
    Array.of_list
      ([
         ("pipeline.edges", fun (s : Run.sample) -> s.at_edges);
         ("pipeline.edges_per_sec", throughput);
         ("space.words", fun (s : Run.sample) -> s.words);
       ]
      @ List.map
          (fun (key, _) -> ("space." ^ key, fun (s : Run.sample) -> assoc key s.breakdown))
          breakdown
      @ [
          ("gc.minor_words", fun _ -> int_of_float (Gc.quick_stat ()).Gc.minor_words);
          ("gc.major_words", fun _ -> int_of_float (Gc.quick_stat ()).Gc.major_words);
          ("gc.heap_words", fun _ -> (Gc.quick_stat ()).Gc.heap_words);
          ("sketch.l0_occupancy", tot "large_common.l0_occupancy");
          ("sketch.l0_prunes", tot "large_common.l0_prunes");
          ("sketch.f2_tracked", tot "large_set.f2_tracked");
          ("sketch.f2_prunes", tot "large_set.f2_prunes");
          ( "sketch.hh_recovery_ppm",
            fun s ->
              ppm ~num:(tot "large_set.hh_recoveries" s) ~den:(tot "large_set.hh_candidates" s)
          );
          ( "sketch.memo_hit_ppm",
            fun s ->
              let hits = tot "large_common.memo_hits" s in
              ppm ~num:hits ~den:(hits + tot "large_common.sampler_evals" s) );
        ]
      @ extra)
  in
  { Run.read_totals; tracks }

let build est = common ~read_totals:(fun () -> Estimate.stats_totals est) ~extra:[]

(* Windowed runs reset the in-flight estimator on every epoch roll, so
   the totals are the in-flight epoch's, read per sample; the window.*
   tracks read the ring's own counts, so they need no registry. *)
let build_windowed w =
  common
    ~read_totals:(fun () -> Windowed.stats_totals w)
    ~extra:
      [
        ("window.epochs", fun _ -> Windowed.live_epochs w);
        ("window.rolled", fun _ -> Windowed.rolled w);
      ]
