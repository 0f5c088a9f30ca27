let switch = ref false
let set_enabled b = switch := b
let enabled () = !switch

type kind = Kcounter | Kgauge of [ `Sum | `Max ] | Khistogram

type cell =
  | Ccell of { mutable v : int }
  | Gcell of { mutable v : float }
  | Hcell of Histogram.t

(* One shard per (registry, domain).  Cell values are written lock-free
   by the owning domain; the shard lock only guards the cells table's
   structure (creation/iteration), which is rare. *)
type shard = { cells : (string, cell) Hashtbl.t; lock : Mutex.t }

type t = {
  lock : Mutex.t; (* guards [meta] and [shards] *)
  meta : (string, kind) Hashtbl.t;
  mutable shards : shard list;
  key : shard option Domain.DLS.key;
}

let create () =
  {
    lock = Mutex.create ();
    meta = Hashtbl.create 32;
    shards = [];
    key = Domain.DLS.new_key (fun () -> None);
  }

let global = create ()

let my_shard t =
  match Domain.DLS.get t.key with
  | Some s -> s
  | None ->
      let s = { cells = Hashtbl.create 64; lock = Mutex.create () } in
      Mutex.lock t.lock;
      t.shards <- s :: t.shards;
      Mutex.unlock t.lock;
      Domain.DLS.set t.key (Some s);
      s

let fresh_cell = function
  | Kcounter -> Ccell { v = 0 }
  | Kgauge _ -> Gcell { v = 0.0 }
  | Khistogram -> Hcell (Histogram.create ())

let register t name kind =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.meta name with
  | None -> Hashtbl.replace t.meta name kind
  | Some k when k = kind -> ()
  | Some _ ->
      Mutex.unlock t.lock;
      invalid_arg (Printf.sprintf "Registry: %S re-registered as a different kind" name));
  Mutex.unlock t.lock

let cell t name kind =
  let s = my_shard t in
  match Hashtbl.find_opt s.cells name with
  | Some c -> c
  | None ->
      let c = fresh_cell kind in
      Mutex.lock s.lock;
      Hashtbl.replace s.cells name c;
      Mutex.unlock s.lock;
      c

type counter = { cr : t; cname : string }
type gauge = { gr : t; gname : string; gmode : [ `Sum | `Max ] }
type histogram = { hr : t; hname : string }

let counter t name =
  register t name Kcounter;
  { cr = t; cname = name }

let gauge ?(mode = `Sum) t name =
  register t name (Kgauge mode);
  { gr = t; gname = name; gmode = mode }

let histogram t name =
  register t name Khistogram;
  { hr = t; hname = name }

let add c n =
  if !switch then
    match cell c.cr c.cname Kcounter with
    | Ccell r -> r.v <- r.v + n
    | _ -> assert false

let incr c = add c 1

let set g v =
  if !switch then
    match cell g.gr g.gname (Kgauge g.gmode) with
    | Gcell r -> r.v <- v
    | _ -> assert false

let record h n =
  if !switch then
    match cell h.hr h.hname Khistogram with
    | Hcell hist -> Histogram.record hist n
    | _ -> assert false

let observe h v = record h (int_of_float v)
let observe_ns h ns = record h ns

type value =
  | Counter of int
  | Gauge of float
  | Histogram of Histogram.t

(* Merged read of one metric across a stable shard-list snapshot
   (shards themselves are locked one by one while their table is
   consulted). *)
let merged name kind shards =
  let acc = ref None in
  List.iter
    (fun (s : shard) ->
      Mutex.lock s.lock;
      let c = Hashtbl.find_opt s.cells name in
      Mutex.unlock s.lock;
      match c with
      | None -> ()
      | Some c ->
          let v =
            match c with
            | Ccell r -> Counter r.v
            | Gcell r -> Gauge r.v
            | Hcell h ->
                let copy = Histogram.create () in
                Histogram.merge_into ~dst:copy h;
                Histogram copy
          in
          acc :=
            Some
              (match (!acc, v) with
              | None, v -> v
              | Some (Counter a), Counter b -> Counter (a + b)
              | Some (Gauge a), Gauge b ->
                  Gauge (match kind with Kgauge `Max -> Float.max a b | _ -> a +. b)
              | Some (Histogram a), Histogram b -> Histogram (Histogram.merge a b)
              | Some _, v -> v))
    shards;
  match !acc with
  | Some v -> v
  | None -> (
      (* registered but never written: the kind's zero *)
      match kind with
      | Kcounter -> Counter 0
      | Kgauge _ -> Gauge 0.0
      | Khistogram -> Histogram (Histogram.create ()))

let read t name =
  Mutex.lock t.lock;
  let kind = Hashtbl.find_opt t.meta name and shards = t.shards in
  Mutex.unlock t.lock;
  Option.map (fun k -> merged name k shards) kind

let dump t =
  Mutex.lock t.lock;
  let names = Hashtbl.fold (fun name kind acc -> (name, kind) :: acc) t.meta [] in
  let shards = t.shards in
  Mutex.unlock t.lock;
  names
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (name, kind) -> (name, merged name kind shards))

let reset t =
  Mutex.lock t.lock;
  let shards = t.shards in
  Mutex.unlock t.lock;
  List.iter
    (fun (s : shard) ->
      Mutex.lock s.lock;
      Hashtbl.iter
        (fun _ c ->
          match c with
          | Ccell r -> r.v <- 0
          | Gcell r -> r.v <- 0.0
          | Hcell h -> Histogram.clear h)
        s.cells;
      Mutex.unlock s.lock)
    shards
