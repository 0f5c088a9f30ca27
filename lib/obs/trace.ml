(* Chrome trace_event / Perfetto JSON timeline exporter.

   Recording is append-only into bounded per-domain rings of packed int
   triples (tag, time, payload), with span names interned to small ids:
   the owning domain is the only writer of its ring, so the hot path
   takes no lock and allocates nothing (a name already seen by the
   domain is resolved through a domain-local cache; only a first
   encounter touches the global intern table, under its mutex).  Rings
   are registered globally and read at quiescence (after the run). *)

let switch = ref false
let set_enabled b = switch := b
let enabled () = !switch

let ring_capacity = 4096

(* ---------- name interning ---------- *)

let names_lock = Mutex.create ()
let names = ref (Array.make 64 "")
let names_len = ref 0
let name_ids : (string, int) Hashtbl.t = Hashtbl.create 64

let intern_global name =
  Mutex.lock names_lock;
  let id =
    match Hashtbl.find_opt name_ids name with
    | Some id -> id
    | None ->
        let id = !names_len in
        if id = Array.length !names then begin
          let bigger = Array.make (2 * id) "" in
          Array.blit !names 0 bigger 0 id;
          names := bigger
        end;
        !names.(id) <- name;
        names_len := id + 1;
        Hashtbl.add name_ids name id;
        id
  in
  Mutex.unlock names_lock;
  id

let name_of_id id =
  Mutex.lock names_lock;
  let n = !names.(id) in
  Mutex.unlock names_lock;
  n

(* ---------- per-domain event rings ---------- *)

(* 3 ints per event: tag = (name_id lsl 1) lor kind, then two payload
   words — (start_ns, dur_ns) for a complete span (kind 0), (at_ns,
   value) for a counter sample (kind 1). *)
type ring = {
  tid : int;
  ids : (string, int) Hashtbl.t; (* domain-local intern cache *)
  buf : int array;
  mutable next : int; (* total events ever pushed *)
}

let rings_lock = Mutex.create ()
let rings : ring list ref = ref []

let ring_key : ring option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let my_ring () =
  match Domain.DLS.get ring_key with
  | Some r -> r
  | None ->
      let r =
        {
          tid = (Domain.self () :> int);
          ids = Hashtbl.create 32;
          buf = Array.make (3 * ring_capacity) 0;
          next = 0;
        }
      in
      Mutex.lock rings_lock;
      rings := r :: !rings;
      Mutex.unlock rings_lock;
      Domain.DLS.set ring_key (Some r);
      r

let intern r name =
  match Hashtbl.find_opt r.ids name with
  | Some id -> id
  | None ->
      let id = intern_global name in
      Hashtbl.replace r.ids name id;
      id

let push kind name a b =
  let r = my_ring () in
  let id = intern r name in
  let slot = 3 * (r.next mod ring_capacity) in
  Array.unsafe_set r.buf slot ((id lsl 1) lor kind);
  Array.unsafe_set r.buf (slot + 1) a;
  Array.unsafe_set r.buf (slot + 2) b;
  r.next <- r.next + 1

let complete name ~start_ns ~dur_ns = if !switch then push 0 name start_ns dur_ns
let counter name ~at_ns value = if !switch then push 1 name at_ns value

(* ---------- reading (quiescent) ---------- *)

type event =
  | Complete of { name : string; start_ns : int; dur_ns : int; tid : int }
  | Counter of { name : string; at_ns : int; value : int; tid : int }

let event_time = function
  | Complete { start_ns; _ } -> start_ns
  | Counter { at_ns; _ } -> at_ns

let event_name = function Complete { name; _ } -> name | Counter { name; _ } -> name
let event_tid = function Complete { tid; _ } -> tid | Counter { tid; _ } -> tid

let events () =
  Mutex.lock rings_lock;
  let rs = !rings in
  Mutex.unlock rings_lock;
  let out = ref [] in
  List.iter
    (fun r ->
      let first = max 0 (r.next - ring_capacity) in
      for i = first to r.next - 1 do
        let slot = 3 * (i mod ring_capacity) in
        let tag = r.buf.(slot) and a = r.buf.(slot + 1) and b = r.buf.(slot + 2) in
        let name = name_of_id (tag lsr 1) in
        let e =
          if tag land 1 = 0 then Complete { name; start_ns = a; dur_ns = b; tid = r.tid }
          else Counter { name; at_ns = a; value = b; tid = r.tid }
        in
        out := e :: !out
      done)
    rs;
  List.sort
    (fun x y -> compare (event_time x, event_name x, event_tid x) (event_time y, event_name y, event_tid y))
    !out

let clear () =
  Mutex.lock rings_lock;
  let rs = !rings in
  Mutex.unlock rings_lock;
  List.iter (fun r -> r.next <- 0) rs

(* ---------- Chrome trace_event JSON emission ---------- *)

(* One fake process; tids are renumbered to a dense 0.. range in order
   of first (sorted) appearance, so the emitted JSON is stable across
   runs that spawn different OS-level domain ids.  Timestamps are
   microseconds relative to the earliest event, as the trace_event
   format prescribes. *)
let pid = 1

let ts_us ~origin t = Json.Float (float_of_int (t - origin) /. 1000.0)

let to_json ?events:evs () =
  let evs = match evs with Some e -> e | None -> events () in
  let origin = List.fold_left (fun acc e -> min acc (event_time e)) max_int evs in
  let origin = if origin = max_int then 0 else origin in
  let tid_map = Hashtbl.create 8 in
  let tids = ref [] in
  List.iter
    (fun e ->
      let t = event_tid e in
      if not (Hashtbl.mem tid_map t) then begin
        Hashtbl.add tid_map t (Hashtbl.length tid_map);
        tids := Hashtbl.find tid_map t :: !tids
      end)
    evs;
  let meta =
    Json.Object
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int 0);
        ("args", Json.Object [ ("name", Json.String "mkc") ]);
      ]
    :: List.map
         (fun t ->
           Json.Object
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int pid);
               ("tid", Json.Int t);
               ("args", Json.Object [ ("name", Json.String (Printf.sprintf "domain %d" t)) ]);
             ])
         (List.sort compare !tids)
  in
  let body =
    List.map
      (fun e ->
        let tid = Hashtbl.find tid_map (event_tid e) in
        match e with
        | Complete { name; start_ns; dur_ns; _ } ->
            Json.Object
              [
                ("name", Json.String name);
                ("ph", Json.String "X");
                ("pid", Json.Int pid);
                ("tid", Json.Int tid);
                ("ts", ts_us ~origin start_ns);
                ("dur", Json.Float (float_of_int dur_ns /. 1000.0));
              ]
        | Counter { name; at_ns; value; _ } ->
            Json.Object
              [
                ("name", Json.String name);
                ("ph", Json.String "C");
                ("pid", Json.Int pid);
                ("tid", Json.Int tid);
                ("ts", ts_us ~origin at_ns);
                ("args", Json.Object [ ("value", Json.Int value) ]);
              ])
      evs
  in
  Json.Array (meta @ body)

let to_string ?events () = Json.to_string (to_json ?events ())

(* ---------- validation ---------- *)

let ( let* ) = Result.bind

let field ctx name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or mistyped field %S" ctx name)

let validate_event i j =
  let ctx = Printf.sprintf "trace event %d" i in
  let* name = field ctx "name" Json.to_string_opt j in
  let ctx = Printf.sprintf "trace event %d (%s)" i name in
  let* ph = field ctx "ph" Json.to_string_opt j in
  let* _pid = field ctx "pid" Json.to_int j in
  let* _tid = field ctx "tid" Json.to_int j in
  match ph with
  | "M" ->
      let* args = field ctx "args" Option.some j in
      let* _ = field ctx "name" Json.to_string_opt args in
      Ok ()
  | "X" ->
      let* ts = field ctx "ts" Json.to_float j in
      let* dur = field ctx "dur" Json.to_float j in
      if ts < 0.0 then Error (ctx ^ ": negative ts")
      else if dur < 0.0 then Error (ctx ^ ": negative dur")
      else Ok ()
  | "C" ->
      let* ts = field ctx "ts" Json.to_float j in
      let* args = field ctx "args" Option.some j in
      let* _ = field ctx "value" Json.to_float args in
      if ts < 0.0 then Error (ctx ^ ": negative ts") else Ok ()
  | ph -> Error (Printf.sprintf "%s: unsupported phase %S" ctx ph)

let validate s =
  let* j = Json.parse s in
  match j with
  | Json.Array items ->
      let rec go i = function
        | [] -> Ok i
        | x :: rest ->
            let* () = validate_event i x in
            go (i + 1) rest
      in
      go 0 items
  | _ -> Error "trace: expected a top-level JSON array of trace events"
