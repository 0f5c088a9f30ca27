(** Packed sketch state: zigzag-varint ints in one byte string.

    The in-process form of a sketch's mergeable state (the windowed
    estimator's frozen epochs).  It never leaves the process and is
    read back only by the code that wrote it, so the reader asserts
    (raises [Invalid_argument]) instead of returning errors; the
    persistent form is the checkpoint JSON. *)

type writer

val writer : unit -> writer

val put : writer -> int -> unit
(** One int as a zigzag LEB128 varint: one byte for [-64 .. 63], at
    most nine for any int. *)

val contents : writer -> string

type reader

val reader : string -> reader
val get : reader -> int

val at_end : reader -> bool
(** Every byte has been read. *)

val put_l0 : writer -> L0_bjkst.t -> unit
(** The {!L0_bjkst.dump} state: level, prune count and the sorted
    fingerprint entries. *)

val get_l0 : reader -> L0_bjkst.t -> unit
(** Overlay a {!put_l0} state through {!L0_bjkst.load_state}; the
    sketch must share the writer's cap and seed. *)

val put_f2c : writer -> F2_contributing.t -> unit
(** Every level's {!F2_heavy_hitter.dump}: the CountSketch rows, the
    tracked (id, signed count) pairs and the prune count. *)

val get_f2c : reader -> F2_contributing.t -> unit
(** Overlay a {!put_f2c} state through {!F2_contributing.load_state}. *)
