(* Mkc_obs.Health — the declarative rule engine behind [--health],
   generalizing the space watchdog.

   Claims checked here:
   1. parse accepts the three rule syntaxes (threshold, ratio-drift,
      stall), a trailing '!' for escalation, and rule_to_string
      round-trips every accepted rule; malformed specs get named
      errors.
   2. Threshold rules fire on each violating row.
   3. Ratio rules compare num·1e6/den against the ppm limit and skip
      samples whose denominator is not positive.
   4. Stall rules baseline on their first observed sample, then fire
      once a track has been unchanged for [window] consecutive
      samples while rows keep landing.
   5. An escalating rule raises Violation after its event is emitted,
      matching --budget-strict; each firing is one
      health.<rule>.violations event, whatever the registry switch.
   6. Unknown tracks are rejected at engine build time, naming the
      track. *)

module Health = Mkc_obs.Health

let parse_ok spec =
  match Health.parse spec with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S: %s" spec e

let parse_err spec =
  match Health.parse spec with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" spec
  | Error e -> e

let test_parse_round_trip () =
  List.iter
    (fun spec -> Alcotest.(check string) spec spec (Health.rule_to_string (parse_ok spec)))
    [
      "cap=space.words>100000";
      "floor=pipeline.edges_per_sec<500";
      "cap=space.words>100000!";
      "drift=gc.minor_words/pipeline.edges>2000000";
      "drift=gc.minor_words/pipeline.edges>2000000!";
      "wedge=stall:pipeline.edges:5";
      "wedge=stall:pipeline.edges:5!";
    ];
  let r = parse_ok "cap=space.words>100000!" in
  Alcotest.(check bool) "escalate parsed" true r.Health.escalate;
  Alcotest.(check string) "name parsed" "cap" r.Health.name;
  (match r.Health.kind with
  | Health.Threshold { track; cmp = Health.Gt; limit } ->
      Alcotest.(check string) "track" "space.words" track;
      Alcotest.(check int) "limit" 100000 limit
  | _ -> Alcotest.fail "wanted Threshold Gt");
  (match (parse_ok "drift=a/b>250000").Health.kind with
  | Health.Ratio_drift { num = "a"; den = "b"; max_ppm = 250000 } -> ()
  | _ -> Alcotest.fail "wanted Ratio_drift");
  match (parse_ok "wedge=stall:t:3").Health.kind with
  | Health.Stall { track = "t"; window = 3 } -> ()
  | _ -> Alcotest.fail "wanted Stall"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_parse_errors () =
  let expect spec fragment =
    let e = parse_err spec in
    if not (contains ~needle:fragment e) then
      Alcotest.failf "parse %S: error %S lacks %S" spec e fragment
  in
  expect "space.words>10" "expected name=spec";
  expect "bad name=x>1" "bad rule name";
  expect "a=track>" "not an integer";
  expect "a=track>ten" "not an integer";
  expect "a=stall:track:0" "stall window must be >= 1";
  expect "a=stall:track:x" "not an integer";
  expect "a=n/d<5" "ratio rules only support '>'"

(* An engine over a 1-track (or 2-track) directory, with its events
   captured.  The metrics registry stays untouched: the events are
   claim-5 independent of the switch. *)
let rig tracks rules =
  let events = ref [] in
  let eng =
    Health.create
      ~on_event:(fun ~name ~value -> events := (name, value) :: !events)
      ~tracks (List.map parse_ok rules)
  in
  (eng, events)

(* Firings per rule, in the given order, counted from the events. *)
let fired events rules =
  List.map
    (fun rule ->
      let name = "health." ^ rule ^ ".violations" in
      (rule, List.length (List.filter (fun (n, _) -> n = name) !events)))
    rules

let feed eng vals = Health.check eng (Array.of_list vals)

let test_threshold () =
  let eng, events = rig [| "v" |] [ "cap=v>10"; "floor=v<3" ] in
  List.iter (fun v -> feed eng [ v ]) [ 5; 11; 2; 50; 7 ];
  Alcotest.(check (list (pair string int)))
    "per-rule totals in rule order"
    [ ("cap", 2); ("floor", 1) ]
    (fired events [ "cap"; "floor" ]);
  Alcotest.(check (list (pair string int)))
    "floor event payload"
    [ ("health.floor.violations", 1) ]
    (List.filter (fun (n, _) -> n = "health.floor.violations") !events)

let test_ratio () =
  let eng, events = rig [| "n"; "d" |] [ "drift=n/d>500000" ] in
  (* 1/4 = 250000 ppm: quiet.  3/4 = 750000 ppm: fires.  5/0: the
     denominator guard skips the sample entirely. *)
  List.iter (fun (n, d) -> feed eng [ n; d ]) [ (1, 4); (3, 4); (5, 0); (2, 4) ];
  Alcotest.(check (list (pair string int))) "ratio firings" [ ("drift", 1) ]
    (fired events [ "drift" ])

let test_stall () =
  let eng, events = rig [| "v" |] [ "wedge=stall:v:2" ] in
  let step v =
    feed eng [ v ];
    List.assoc "wedge" (fired events [ "wedge" ])
  in
  (* First sample is the baseline, never a firing. *)
  Alcotest.(check int) "baseline" 0 (step 5);
  Alcotest.(check int) "1 unchanged < window" 0 (step 5);
  Alcotest.(check int) "2 unchanged = window fires" 1 (step 5);
  Alcotest.(check int) "still wedged keeps firing" 2 (step 5);
  Alcotest.(check int) "progress resets the run" 2 (step 6);
  Alcotest.(check int) "one stale again" 2 (step 6);
  Alcotest.(check int) "re-wedged fires" 3 (step 6)

let test_escalation () =
  let eng, events = rig [| "v" |] [ "cap=v>10!" ] in
  feed eng [ 5 ];
  (match feed eng [ 42 ] with
  | () -> Alcotest.fail "escalating rule did not raise"
  | exception Health.Violation msg ->
      if not (contains ~needle:"cap" msg && contains ~needle:"42" msg) then
        Alcotest.failf "violation message %S lacks rule name/value" msg);
  (* The event was emitted before the raise. *)
  Alcotest.(check (list (pair string int)))
    "event emitted" [ ("health.cap.violations", 1) ] !events

let test_unknown_track () =
  let expect_unknown rule =
    match Health.create ~tracks:[| "v" |] [ parse_ok rule ] with
    | _ -> Alcotest.failf "engine accepted unknown track in %S" rule
    | exception Invalid_argument msg ->
        if not (contains ~needle:"ghost" msg) then
          Alcotest.failf "error %S does not name the track" msg
  in
  expect_unknown "a=ghost>5";
  expect_unknown "a=v/ghost>5";
  expect_unknown "a=stall:ghost:2"

let suite =
  [
    Alcotest.test_case "parse round trip" `Quick test_parse_round_trip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "threshold rules" `Quick test_threshold;
    Alcotest.test_case "ratio drift" `Quick test_ratio;
    Alcotest.test_case "stall detection" `Quick test_stall;
    Alcotest.test_case "escalation raises after counting" `Quick test_escalation;
    Alcotest.test_case "unknown track rejected" `Quick test_unknown_track;
  ]
