(* Probe closures for the standard telemetry track set.  Each probe is
   [name, fun ~at_ns ~at_edges -> int]; the recorder evaluates all of
   them per cadence sample, so anything list-shaped (words_breakdown,
   stats_totals) is fetched once per distinct [at_edges] and shared
   across the tracks that read it. *)

type probe = Mkc_obs.Telemetry.Recorder.probe

let ppm ~num ~den = if den <= 0 then 0 else num * 1_000_000 / den

(* Memoize an expensive (string * int) list fetch on the sample
   timestamp, so one slot suffices.  The key must be [at_ns], not
   [at_edges]: the finalize-time sample repeats the last crossing's
   edge count but must observe finalize-only counters (heavy-hitter
   recoveries) fresh. *)
let cached fetch =
  let at = ref min_int and value = ref [] in
  let get ~at_ns =
    if !at <> at_ns then begin
      value := fetch ();
      at := at_ns
    end;
    !value
  in
  let assoc ~at_ns key = Option.value ~default:0 (List.assoc_opt key (get ~at_ns)) in
  (get, assoc)

let common ~breakdown ~totals_of ~extra : probe array =
  let bd_all, bd = cached breakdown in
  let _, totals = cached totals_of in
  let throughput =
    (* Instantaneous rate between consecutive samples, anchored at
       build time so the first sample is meaningful too. *)
    let last_ns = ref (Mkc_obs.Clock.now_ns ()) and last_edges = ref 0 and last_rate = ref 0 in
    fun ~at_ns ~at_edges ->
      let dns = at_ns - !last_ns and de = at_edges - !last_edges in
      if dns > 0 then begin
        last_rate := int_of_float (float_of_int de *. 1e9 /. float_of_int dns);
        last_ns := at_ns;
        last_edges := at_edges
      end;
      !last_rate
  in
  let space_components =
    List.map
      (fun (key, _) ->
        ( "space." ^ key,
          fun ~at_ns ~at_edges:(_ : int) -> bd ~at_ns key ))
      (breakdown ())
  in
  let tot key ~at_ns = totals ~at_ns key in
  Array.of_list
    ([
       ("pipeline.edges", fun ~at_ns:(_ : int) ~at_edges -> at_edges);
       ("pipeline.edges_per_sec", throughput);
       (* Total words = sum of the (memoized) breakdown — the S
          contract makes these identical, and summing spares a second
          full-sketch walk per sample. *)
       ( "space.words",
         fun ~at_ns ~at_edges:(_ : int) ->
           List.fold_left (fun acc (_, w) -> acc + w) 0 (bd_all ~at_ns) );
     ]
    @ space_components
    @ [
        ( "gc.minor_words",
          fun ~at_ns:(_ : int) ~at_edges:(_ : int) ->
            int_of_float (Gc.quick_stat ()).Gc.minor_words );
        ( "gc.major_words",
          fun ~at_ns:(_ : int) ~at_edges:(_ : int) ->
            int_of_float (Gc.quick_stat ()).Gc.major_words );
        ( "gc.heap_words",
          fun ~at_ns:(_ : int) ~at_edges:(_ : int) -> (Gc.quick_stat ()).Gc.heap_words );
        ( "sketch.l0_occupancy",
          fun ~at_ns ~at_edges:(_ : int) -> tot "large_common.l0_occupancy" ~at_ns );
        ( "sketch.l0_prunes",
          fun ~at_ns ~at_edges:(_ : int) -> tot "large_common.l0_prunes" ~at_ns );
        ( "sketch.f2_tracked",
          fun ~at_ns ~at_edges:(_ : int) -> tot "large_set.f2_tracked" ~at_ns );
        ( "sketch.f2_prunes",
          fun ~at_ns ~at_edges:(_ : int) -> tot "large_set.f2_prunes" ~at_ns );
        ( "sketch.hh_recovery_ppm",
          fun ~at_ns ~at_edges:(_ : int) ->
            ppm
              ~num:(tot "large_set.hh_recoveries" ~at_ns)
              ~den:(tot "large_set.hh_candidates" ~at_ns) );
        ( "sketch.memo_hit_ppm",
          fun ~at_ns ~at_edges:(_ : int) ->
            let hits = tot "large_common.memo_hits" ~at_ns in
            ppm ~num:hits ~den:(hits + tot "large_common.sampler_evals" ~at_ns) );
      ]
    @ extra)

let build ~breakdown est : probe array =
  common ~breakdown ~totals_of:(fun () -> Estimate.stats_totals est) ~extra:[]

(* Windowed runs reset the in-flight estimator on every epoch roll, so
   the totals are the in-flight epoch's, fetched per sample; the
   window.* tracks read the ring's own counts, so they need no
   registry. *)
let build_windowed ~breakdown w : probe array =
  let read f ~at_ns:(_ : int) ~at_edges:(_ : int) = f w in
  common ~breakdown
    ~totals_of:(fun () -> Windowed.stats_totals w)
    ~extra:
      [
        ("window.epochs", read Windowed.live_epochs);
        ("window.rolled", read Windowed.rolled);
      ]
