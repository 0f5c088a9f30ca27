(* One `mkc` process (or the benchmark's own in-process child) from the
   file on disk to its printed answer: spawned with stdout captured, its
   peak resident set polled from /proc while it runs, killed at the
   deadline. *)

let mkc = "_build/default/bin/mkc.exe"

type run = {
  ok : bool;  (** exited 0 before the deadline *)
  wall_s : float;  (** spawn to exit *)
  cpu_s : float;  (** user + system time of the child *)
  peak_rss_kib : int;  (** highest VmHWM seen *)
  stdout : string;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let vm_hwm_kib pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
              | [] -> acc)
          | _ -> acc)
        0
        (String.split_on_char '\n' status)
  | exception Sys_error _ -> 0

let poll_s = 0.005

(* Single-threaded: the benchmark's own loop polls the child, so it
   never competes with the child for more than a sliver of a core. *)
let spawn ?(exe = mkc) ~workdir ~deadline args =
  let out = Filename.concat workdir "run.out" in
  let fd_out = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let fd_err =
    Unix.openfile (Filename.concat workdir "run.err") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let cpu0 = Unix.times () in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd_out fd_err in
  Unix.close fd_out;
  Unix.close fd_err;
  let rec wait peak =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ ->
        let peak = max peak (vm_hwm_kib pid) in
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          let _, st = Unix.waitpid [] pid in
          (st, peak, false)
        end
        else begin
          Unix.sleepf poll_s;
          wait peak
        end
    | _, st -> (st, peak, true)
  in
  let status, peak, in_time = wait 0 in
  let wall_s = Unix.gettimeofday () -. t0 in
  let cpu1 = Unix.times () in
  {
    ok = in_time && status = WEXITED 0;
    wall_s;
    cpu_s = cpu1.tms_cutime -. cpu0.tms_cutime +. (cpu1.tms_cstime -. cpu0.tms_cstime);
    peak_rss_kib = peak;
    stdout = read_file out;
  }

type answer = { estimate : float; space_words : int; witness : int list }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The answer lines of estimate, windowed estimate and report:
   "... coverage[ estimate (...)]: E", "space: W words", "  S<id>". *)
let parse stdout =
  let estimate = ref None and space = ref None and witness = ref [] in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"space: " line then
        space := Scanf.sscanf_opt line "space: %d words%!" Fun.id
      else if String.starts_with ~prefix:"  S" line then
        Option.iter (fun id -> witness := id :: !witness) (Scanf.sscanf_opt line "  S%d%!" Fun.id)
      else if contains line "coverage" && not (String.starts_with ~prefix:"reported" line) then
        match String.rindex_opt line ':' with
        | Some i ->
            let value = String.sub line (i + 1) (String.length line - i - 1) in
            estimate := float_of_string_opt (String.trim value)
        | None -> ())
    (String.split_on_char '\n' stdout);
  match (!estimate, !space) with
  | Some estimate, Some space_words -> Some { estimate; space_words; witness = List.rev !witness }
  | _ -> None
