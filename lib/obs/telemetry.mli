(** Append-only binary telemetry log.

    Layout:

    {v
      offset 0   magic   "MKCTEL1\n" (8 bytes)
      offset 8   version int64 LE (currently 1)
      then       frames, each:
                   payload_len  int64 LE
                   checksum     int64 LE — FNV-1a 64 over the payload
                   payload      payload_len bytes
    v}

    The first frame must be a track directory; after that, sample
    frames carry one int64 per directory track plus the (ns, edges)
    coordinates, and event frames carry a named counter increment
    (health-rule violations, checkpoint saves, …).

    The file is read by the one {!Framed} walk the run ledger shares;
    {!read} folds its payloads into directory, samples and events.
    Error handling mirrors [Edge_file]: every rejection is a named
    variant, never a silent partial load or an exception — a forged
    length or count is checked against the bytes present before
    anything is allocated from it.  The one deliberate
    exception is a {e torn tail}: a final frame cut short by a crash
    mid-append.  The reader keeps the intact prefix and reports the
    tear as a named error in [log.torn] instead of failing, so a
    telemetry file is useful evidence precisely when the run it
    describes died. *)

type error =
  | Bad_magic of string
  | Bad_version of int
  | Truncated of string
  | Checksum_mismatch of { expected : string; got : string }
  | Malformed of string
  | Io_error of string

val error_to_string : error -> string

val magic : string
val version : int

type sample = { s_ns : int; s_edges : int; values : int array }
type event = { e_ns : int; e_edges : int; e_name : string; e_value : int }

type log = {
  tracks : string array;
  samples : sample list; (* oldest first *)
  events : event list; (* oldest first *)
  torn : error option; (* a skipped torn final frame, if any *)
}

module Writer : sig
  type t

  (** Every call below flushes its frame to the file before it
      returns, so a reader ([mkc top --follow]) sees each sample as it
      lands and a killed run leaves every sample written so far. *)

  val create : string -> tracks:string array -> (t, error) result
  (** Open [path] for append-from-scratch and write the header and
      track directory.  Raises [Invalid_argument] on an empty track
      set. *)

  val sample : t -> at_ns:int -> at_edges:int -> int array -> unit
  (** Append one sample frame.  The value array must have exactly one
      entry per directory track ([Invalid_argument] otherwise).  Zero
      allocation per call: the frame is assembled in a reusable
      scratch buffer. *)

  val event : t -> at_ns:int -> at_edges:int -> name:string -> value:int -> unit
  val close : t -> unit
end

val read : string -> (log, error) result
(** Load and verify a telemetry log: {!Framed.read_all}, then a fold
    over the payloads.  Corruption {e inside} the file (bad checksum,
    malformed frame, a payload shorter than its 8-byte kind) is a hard
    error; a torn final frame is skipped and reported in [torn]. *)

(** The header/frame/checksum/torn-tail machinery shared with the run
    ledger ([Ledger], magic "MKCLEDG1"): 8-byte magic + int64 LE
    version header, then frames of int64 LE payload length, FNV-1a 64
    payload checksum, and the payload itself.  This is the one frame
    walk of the code base and {!fnv1a64} its one checksum, which the
    edge file and the checkpoint envelope call too. *)
module Framed : sig
  val fnv1a64 : Bytes.t -> pos:int -> len:int -> int64
  (** FNV-1a 64 over [len] bytes from [pos]. *)

  val hex64 : int64 -> string

  val write_header : out_channel -> magic:string -> version:int -> unit
  (** [magic] must be exactly 8 bytes ([Invalid_argument] otherwise). *)

  val write_frame : out_channel -> Bytes.t -> unit

  val check_header : Bytes.t -> magic:string -> version:int -> (unit, error) result
  (** Check the 16-byte header at the start of the given bytes:
      [Truncated] when fewer than 16 bytes, then [Bad_magic] or
      [Bad_version]. *)

  val read_all : magic:string -> version:int -> string -> (Bytes.t list * error option, error) result
  (** Every intact frame payload, oldest first, plus the named tear
      when the final frame was cut short mid-append.  A checksum
      mismatch or corruption {e inside} the file is a hard error.
      Frame lengths are compared against the bytes left, so a forged
      length is a tear or [Malformed], never an overflow. *)
end

type summary = {
  t_name : string;
  t_count : int;
  t_min : int;
  t_max : int;
  t_last : int;
  t_p50 : int;
  t_p99 : int;
}

val summarize : log -> summary list
(** Per-track summary over all samples, in directory order.  Tracks
    with no samples report all-zero fields with [t_count = 0].  The
    quantiles are {!Histogram.quantile_sorted}'s ceil rank, the one
    histogram digests use. *)

val replay : ?capacity:int -> log -> Series.t
(** Rebuild a {!Series} from a log's samples (capacity defaults to
    the sample count, min 1), for rendering a finished run with
    [Top.render]. *)
