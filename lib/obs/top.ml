(* Pure rendering for the live telemetry view.  The layout keys off
   the canonical track families — pipeline, space, gc, sketch — but
   degrades gracefully: unknown tracks get a generic line, absent
   families are skipped. *)

let pp_count v =
  let f = float_of_int (abs v) and sign = if v < 0 then "-" else "" in
  if f >= 1e9 then Printf.sprintf "%s%.2fG" sign (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%s%.2fM" sign (f /. 1e6)
  else if f >= 10_000. then Printf.sprintf "%s%.1fk" sign (f /. 1e3)
  else begin
    (* thousands separator for the small range, where digits matter *)
    let s = string_of_int (abs v) in
    let n = String.length s in
    let b = Buffer.create (n + 4) in
    String.iteri
      (fun i c ->
        if i > 0 && (n - i) mod 3 = 0 then Buffer.add_char b ',';
        Buffer.add_char b c)
      s;
    sign ^ Buffer.contents b
  end

let spark_levels = [| "\u{2581}"; "\u{2582}"; "\u{2583}"; "\u{2584}"; "\u{2585}"; "\u{2586}"; "\u{2587}"; "\u{2588}" |]

let sparkline ?(width = 32) (log : Telemetry.log) track =
  let skip = List.length log.samples - width in
  let vs =
    List.filteri (fun j _ -> j >= skip) log.samples
    |> List.map (fun (smp : Telemetry.sample) -> smp.values.(track))
  in
  let lo = List.fold_left min max_int vs and hi = List.fold_left max min_int vs in
  let span = hi - lo in
  String.concat ""
    (List.map (fun v -> spark_levels.(if span = 0 then 0 else (v - lo) * 7 / span)) vs)

let has_prefix ~prefix s = String.starts_with ~prefix s

let render ?(violations = []) (log : Telemetry.log) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt in
  let samples = Array.of_list log.samples in
  let n = Array.length samples in
  if n = 0 then begin
    line "mkc top — waiting for the first sample";
    Buffer.contents b
  end
  else begin
    let names = log.tracks in
    let summary = Array.of_list (Telemetry.summarize log) in
    let idx name = Array.find_index (String.equal name) names in
    let last_of name = Option.map (fun t -> summary.(t).t_last) (idx name) in
    let first = samples.(0) and last = samples.(n - 1) in
    line "mkc top — %s edges · %.1fs · %d samples (%d retained)" (pp_count last.s_edges)
      (float_of_int (last.s_ns - first.s_ns) /. 1e9)
      n n;
    (match idx "pipeline.edges_per_sec" with
    | Some t ->
        line "  throughput  %9s edges/s  %s  (min %s, max %s)"
          (pp_count summary.(t).t_last)
          (sparkline log t)
          (pp_count summary.(t).t_min)
          (pp_count summary.(t).t_max)
    | None -> ());
    (match last_of "space.words" with
    | Some words -> line "  space       %9s words" (pp_count words)
    | None -> ());
    Array.iteri
      (fun t name ->
        if has_prefix ~prefix:"space." name && name <> "space.words" then
          line "    %-32s %9s" (String.sub name 6 (String.length name - 6))
            (pp_count summary.(t).t_last))
      names;
    (match (last_of "gc.minor_words", last_of "gc.major_words", last_of "gc.heap_words") with
    | Some mi, Some ma, Some he ->
        line "  gc          minor %s  major %s  heap %s words" (pp_count mi) (pp_count ma)
          (pp_count he)
    | _ -> ());
    let sketchy =
      [
        ("sketch.l0_occupancy", "l0 occ");
        ("sketch.l0_prunes", "l0 prunes");
        ("sketch.f2_tracked", "f2 tracked");
        ("sketch.f2_prunes", "f2 prunes");
      ]
      |> List.filter_map (fun (name, lbl) ->
             Option.map (fun v -> Printf.sprintf "%s %s" lbl (pp_count v)) (last_of name))
    in
    if sketchy <> [] then line "  sketches    %s" (String.concat "  " sketchy);
    let quality =
      [ ("sketch.hh_recovery_ppm", "hh recovery"); ("sketch.memo_hit_ppm", "memo hit") ]
      |> List.filter_map (fun (name, lbl) ->
             Option.map
               (fun v -> Printf.sprintf "%s %.1f%%" lbl (float_of_int v /. 10_000.))
               (last_of name))
    in
    if quality <> [] then line "  quality     %s" (String.concat "  " quality);
    (* Anything outside the families above still shows up. *)
    Array.iteri
      (fun t name ->
        if
          not
            (has_prefix ~prefix:"space." name
            || has_prefix ~prefix:"gc." name
            || has_prefix ~prefix:"sketch." name
            || has_prefix ~prefix:"pipeline." name)
        then
          line "  %-32s last %9s  min %9s  max %9s" name
            (pp_count summary.(t).t_last)
            (pp_count summary.(t).t_min)
            (pp_count summary.(t).t_max))
      names;
    (match violations with
    | [] -> line "  health      OK"
    | vs ->
        let total = List.fold_left (fun a (_, c) -> a + c) 0 vs in
        if total = 0 then
          line "  health      OK (%s armed)"
            (String.concat ", " (List.map fst vs))
        else
          line "  health      %s"
            (String.concat "  "
               (List.filter_map
                  (fun (name, c) -> if c = 0 then None else Some (Printf.sprintf "%s ×%d" name c))
                  vs)));
    Buffer.contents b
  end
