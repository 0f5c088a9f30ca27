type t = Edge.t array

let of_array a = Array.copy a
let of_system ?seed sys = Set_system.edge_stream ?seed sys
let length = Array.length
let iter = Array.iter
let fold f init t = Array.fold_left f init t
let to_array = Array.copy

let windows ?(chunk = 8192) ?epoch ?(start = 0) t =
  if chunk < 1 then invalid_arg "Stream_source.windows: chunk must be >= 1";
  let n = Array.length t in
  if start < 0 || start > n then
    invalid_arg "Stream_source.windows: start out of range";
  let nwin = (n - start + chunk - 1) / chunk in
  let grid =
    Array.init nwin (fun w ->
        let pos = start + (w * chunk) in
        (pos, min chunk (n - pos)))
  in
  match epoch with
  | None -> grid
  | Some e ->
      if e < 1 then invalid_arg "Stream_source.windows: epoch must be >= 1";
      (* Each chunk window is cut again at every multiple of [e]. *)
      let rec cut pos stop acc =
        if pos >= stop then acc
        else
          let next = min stop (((pos / e) + 1) * e) in
          cut next stop ((pos, next - pos) :: acc)
      in
      Array.of_list
        (List.rev (Array.fold_left (fun acc (pos, len) -> cut pos (pos + len) acc) [] grid))

let backing t = t

let partition ~shards t =
  if shards < 1 then invalid_arg "Stream_source.partition: shards must be >= 1";
  let n = Array.length t in
  Array.init shards (fun s ->
      let lo = n * s / shards and hi = n * (s + 1) / shards in
      Array.sub t lo (hi - lo))

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iter
        (fun (e : Edge.t) ->
          if e.sign >= 0 then Printf.fprintf oc "%d %d\n" e.set e.elt
          else Printf.fprintf oc "%d %d -1\n" e.set e.elt)
        t)

let is_ws = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false

let rec skip_ws line i n = if i < n && is_ws line.[i] then skip_ws line (i + 1) n else i

let rec skip_tok line i n =
  if i < n && not (is_ws line.[i]) then skip_tok line (i + 1) n else i

(* Parse the token [line[i..j)] as an int.  Fast path: a plain decimal
   run (at most 18 digits, so no overflow) parsed in place with no
   substring.  Anything else — signs, 0x/0o prefixes, underscores —
   falls back to [int_of_string_opt] on a substring, preserving the
   historical acceptance exactly. *)
let parse_int line i j =
  let rec digits k acc =
    if k >= j then acc
    else
      let d = Char.code (String.unsafe_get line k) - 48 in
      if d < 0 || d > 9 then min_int else digits (k + 1) ((acc * 10) + d)
  in
  if j - i > 0 && j - i <= 18 then
    let v = digits i 0 in
    if v >= 0 then Some v else int_of_string_opt (String.sub line i (j - i))
  else int_of_string_opt (String.sub line i (j - i))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (* Single pass into a growable edge buffer: no intermediate list,
         no reversal — the only per-line allocation is [input_line]'s
         string (and substrings on the error path). *)
      let buf = ref (Array.make 1024 (Edge.make ~set:0 ~elt:0)) in
      let count = ref 0 in
      let lineno = ref 0 in
      let malformed line why =
        failwith
          (Printf.sprintf "Stream_source.load: %s: malformed line %d (%s): %S" path
             !lineno why line)
      in
      (* Point at the offending token, not just the line: a million-edge
         file with one stray field is otherwise a needle hunt. *)
      let bad_token tok = Printf.sprintf "token %S is not an integer" tok in
      (* Dimensions are max id + 1, so a negative id, or [max_int] whose
         successor wraps, cannot index an instance. *)
      let id line what v =
        if v < 0 then malformed line (Printf.sprintf "%s id %d is negative" what v)
        else if v = max_int then malformed line (Printf.sprintf "%s id %d is too large" what v)
        else v
      in
      let push e =
        if !count = Array.length !buf then begin
          let bigger = Array.make (2 * !count) e in
          Array.blit !buf 0 bigger 0 !count;
          buf := bigger
        end;
        !buf.(!count) <- e;
        incr count
      in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let n = String.length line in
           let i0 = skip_ws line 0 n in
           if i0 < n then begin
             let j0 = skip_tok line i0 n in
             let i1 = skip_ws line j0 n in
             if i1 >= n then malformed line "expected 2 fields, got 1"
             else begin
               let j1 = skip_tok line i1 n in
               let i2 = skip_ws line j1 n in
               (* An optional third field is the turnstile sign column:
                  exactly "1", "+1" or "-1".  Anything else is rejected
                  by name so a single bad sign in a large signed file is
                  findable. *)
               let sign =
                 if i2 >= n then 1
                 else begin
                   let j2 = skip_tok line i2 n in
                   let i3 = skip_ws line j2 n in
                   if i3 < n then begin
                     (* Count the extra fields for the error message. *)
                     let rec fields i acc =
                       if i >= n then acc
                       else fields (skip_ws line (skip_tok line i n) n) (acc + 1)
                     in
                     malformed line
                       (Printf.sprintf "expected 2 or 3 fields, got %d" (fields i3 3))
                   end;
                   match String.sub line i2 (j2 - i2) with
                   | "1" | "+1" -> 1
                   | "-1" -> -1
                   | tok ->
                       malformed line
                         (Printf.sprintf "sign token %S is not +1 or -1" tok)
                 end
               in
               match parse_int line i0 j0 with
               | None -> malformed line (bad_token (String.sub line i0 (j0 - i0)))
               | Some s -> (
                   match parse_int line i1 j1 with
                   | None -> malformed line (bad_token (String.sub line i1 (j1 - i1)))
                   | Some e ->
                       push (Edge.signed ~sign ~set:(id line "set" s) ~elt:(id line "element" e)))
             end
           end
         done
       with End_of_file -> ());
      if !count = Array.length !buf then !buf else Array.sub !buf 0 !count)

let max_ids t =
  Array.fold_left
    (fun (ms, me) (e : Edge.t) -> (max ms (e.set + 1), max me (e.elt + 1)))
    (0, 0) t

(* A binary rejection names the path, which the underlying
   [Edge_file.error] (magic, version, checksum, …) may not carry. *)
let load_auto_dims path =
  if Edge_file.is_binary path then
    match Edge_file.read path with
    | Ok (edges, n, m) -> (edges, m, n)
    | Error e ->
        failwith
          (Printf.sprintf "Stream_source.load_auto_dims: %s: %s" path
             (Edge_file.error_to_string e))
  else
    let t = load path in
    let m, n = max_ids t in
    (t, m, n)
