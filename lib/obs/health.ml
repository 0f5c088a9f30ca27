type cmp = Gt | Lt

type kind =
  | Threshold of { track : string; cmp : cmp; limit : int }
  | Ratio_drift of { num : string; den : string; max_ppm : int }
  | Stall of { track : string; window : int }

type rule = { name : string; kind : kind; escalate : bool }

exception Violation of string

(* ---------- CLI syntax ---------- *)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true | _ -> false)
       s

let split_once ~on s =
  match String.index_opt s on with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let int_field what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "health rule: %s %S is not an integer" what s)

let ( let* ) = Result.bind

let parse spec =
  let spec, escalate =
    let n = String.length spec in
    if n > 0 && spec.[n - 1] = '!' then (String.sub spec 0 (n - 1), true) else (spec, false)
  in
  let* name, body =
    match split_once ~on:'=' spec with
    | Some (n, b) when valid_name n -> Ok (n, b)
    | Some (n, _) -> Error (Printf.sprintf "health rule: bad rule name %S" n)
    | None -> Error (Printf.sprintf "health rule %S: expected name=spec" spec)
  in
  let* kind =
    match split_once ~on:':' body with
    | Some ("stall", rest) -> (
        match split_once ~on:':' rest with
        | Some (track, w) ->
            let* window = int_field "stall window" w in
            if window < 1 then Error "health rule: stall window must be >= 1"
            else Ok (Stall { track; window })
        | None -> Error (Printf.sprintf "health rule %S: expected stall:track:window" name))
    | _ -> (
        let op_gt = split_once ~on:'>' body and op_lt = split_once ~on:'<' body in
        match (op_gt, op_lt) with
        | Some (lhs, rhs), None -> (
            let* limit = int_field "limit" rhs in
            match split_once ~on:'/' lhs with
            | Some (num, den) -> Ok (Ratio_drift { num; den; max_ppm = limit })
            | None -> Ok (Threshold { track = lhs; cmp = Gt; limit }))
        | None, Some (lhs, rhs) ->
            let* limit = int_field "limit" rhs in
            if String.contains lhs '/' then
              Error "health rule: ratio rules only support '>'"
            else Ok (Threshold { track = lhs; cmp = Lt; limit })
        | _ ->
            Error
              (Printf.sprintf "health rule %S: expected track>limit, track<limit, num/den>ppm, or stall:track:window"
                 name))
  in
  Ok { name; kind; escalate }

let rule_to_string r =
  let body =
    match r.kind with
    | Threshold { track; cmp = Gt; limit } -> Printf.sprintf "%s>%d" track limit
    | Threshold { track; cmp = Lt; limit } -> Printf.sprintf "%s<%d" track limit
    | Ratio_drift { num; den; max_ppm } -> Printf.sprintf "%s/%s>%d" num den max_ppm
    | Stall { track; window } -> Printf.sprintf "stall:%s:%d" track window
  in
  Printf.sprintf "%s=%s%s" r.name body (if r.escalate then "!" else "")

(* ---------- evaluation ---------- *)

(* Track names resolved to row indices once at engine creation. *)
type compiled =
  | C_threshold of { track : int; cmp : cmp; limit : int }
  | C_ratio of { num : int; den : int; max_ppm : int }
  | C_stall of { track : int; window : int; mutable prev : int; mutable run : int }

type entry = { rule : rule; compiled : compiled; counter : Registry.counter }

type engine = {
  tracks : string array;
  entries : entry array;
  on_event : name:string -> value:int -> unit;
  mutable first : bool;
}

let create ?registry ?(on_event = fun ~name:_ ~value:_ -> ()) ~tracks rules =
  let registry = match registry with Some r -> r | None -> Registry.global in
  let resolve track =
    match Array.find_index (String.equal track) tracks with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "unknown track %S" track)
  in
  let entries =
    List.map
      (fun rule ->
        let compiled =
          match rule.kind with
          | Threshold { track; cmp; limit } -> C_threshold { track = resolve track; cmp; limit }
          | Ratio_drift { num; den; max_ppm } ->
              C_ratio { num = resolve num; den = resolve den; max_ppm }
          | Stall { track; window } ->
              C_stall { track = resolve track; window; prev = 0; run = 0 }
        in
        let counter = Registry.counter registry ("health." ^ rule.name ^ ".violations") in
        { rule; compiled; counter })
      rules
    |> Array.of_list
  in
  { tracks; entries; on_event; first = true }

(* Evaluate one entry against a sample's row; [Some msg] describes a
   violation. *)
let evaluate t e row =
  match e.compiled with
  | C_threshold { track; cmp; limit } ->
      let v = row.(track) in
      let bad = match cmp with Gt -> v > limit | Lt -> v < limit in
      if bad then
        Some
          (Printf.sprintf "%s: %s = %d is %s %d" e.rule.name t.tracks.(track) v
             (match cmp with Gt -> "over" | Lt -> "under")
             limit)
      else None
  | C_ratio { num; den; max_ppm } ->
      let n = row.(num) and d = row.(den) in
      if d <= 0 then None
      else
        let ppm = n * 1_000_000 / d in
        if ppm > max_ppm then
          Some
            (Printf.sprintf "%s: %s/%s = %d ppm is over %d ppm" e.rule.name t.tracks.(num)
               t.tracks.(den) ppm max_ppm)
        else None
  | C_stall c ->
      let v = row.(c.track) in
      if t.first then begin
        c.prev <- v;
        c.run <- 0;
        None
      end
      else begin
        if v = c.prev then c.run <- c.run + 1 else c.run <- 0;
        c.prev <- v;
        if c.run >= c.window then
          Some
            (Printf.sprintf "%s: %s stuck at %d for %d samples" e.rule.name
               t.tracks.(c.track) v c.run)
        else None
      end

let check t row =
  let escalated = ref None in
  Array.iter
    (fun e ->
      match evaluate t e row with
      | None -> ()
      | Some msg ->
          Registry.incr e.counter;
          t.on_event ~name:("health." ^ e.rule.name ^ ".violations") ~value:1;
          if e.rule.escalate && !escalated = None then escalated := Some msg)
    t.entries;
  t.first <- false;
  match !escalated with None -> () | Some msg -> raise (Violation msg)
