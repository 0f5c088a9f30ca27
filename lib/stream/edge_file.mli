(** Binary columnar edge files.

    Fixed-width column-major storage for edge streams: an 8-byte magic,
    a 48-byte header (version, n, m, edge count, FNV-1a checksum), then
    the set-id column and the element-id column as contiguous runs of
    little-endian int64 — mmap-able by construction, no string parsing
    on read.  The v2 (turnstile) record appends a one-byte-per-edge
    sign column (0 = insertion, 1 = deletion) under its own magic and
    version; {!write} emits v2 only when a deletion is present, so
    insertion-only streams keep producing byte-identical v1 files and
    v1 files written by older builds keep loading.  The [convert] CLI
    subcommand produces these from the text format;
    {!Stream_source.load_auto_dims} dispatches on the magic. *)

type error =
  | Bad_magic of string
  | Bad_version of int
  | Truncated of string
  | Checksum_mismatch of { expected : string; got : string }
  | Malformed of string
  | Io_error of string

val error_to_string : error -> string

val magic : string
(** First 8 bytes of a v1 (insertion-only) edge file: ["MKCEDG1\n"]. *)

val magic_v2 : string
(** First 8 bytes of a v2 (signed, turnstile) edge file:
    ["MKCEDG2\n"]. *)

val version : int
val version_v2 : int

val write : string -> Edge.t array -> n:int -> m:int -> (int, error) result
(** [write path edges ~n ~m] stores the stream with universe bounds
    [n] (elements) and [m] (sets); returns the byte size written.
    @raise Invalid_argument if an id is outside its universe bound. *)

val read : string -> (Edge.t array * int * int, error) result
(** [read path] loads [(edges, n, m)], verifying magic, version, exact
    length, checksum and id ranges — every failure is a named
    {!error}, never a silent partial load. *)

val is_binary : string -> bool
(** Magic sniff; false on unreadable or short files. *)
