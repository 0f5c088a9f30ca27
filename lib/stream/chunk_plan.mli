(** Per-chunk distinct-id grouping pass — the shared front end of the
    chunk-deduplicated hash engine.

    One [build] per chunk computes the distinct set ids and distinct raw
    element values of the chunk together with per-edge indices into
    those tables.  Consumers (every oracle instance of an estimator)
    evaluate each per-set / per-element hash decision once per distinct
    id, then replay the chunk in original edge order via O(1) lookups:
    final states are bit-for-bit the per-edge ones, only the evaluation
    schedule changes.

    All storage is reusable scratch: after warm-up, [build] allocates
    nothing.  A plan is owned by a single driver (pipeline pass or
    estimator) — it is not safe to share one [t] across domains. *)

type t

val create : unit -> t

val create_sized : chunk:int -> t
(** A plan whose scratch is pre-grown for [chunk]-edge builds, so the
    first windows of a run pay no reallocation — used for the pool
    driver's double-buffered scratch pair.  Raises [Invalid_argument]
    if [chunk < 1]. *)

val build : t -> Edge.t array -> pos:int -> len:int -> unit
(** Scan [edges.(pos .. pos+len-1)] and (re)fill the plan. *)

val len : t -> int
(** Chunk length of the last [build]. *)

val num_sets : t -> int
(** Number of distinct set ids in the chunk. *)

val num_elts : t -> int
(** Number of distinct raw element values in the chunk. *)

val sets : t -> int array
(** Distinct set ids in first-appearance order; entries
    [0 .. num_sets-1] are valid.  Do not mutate. *)

val elts : t -> int array
(** Distinct raw element values in first-appearance order; entries
    [0 .. num_elts-1] valid. *)

val set_index : t -> int array
(** Per-edge distinct-set index: entry [i] (chunk-relative) indexes
    [sets]; entries [0 .. len-1] valid. *)

val elt_index : t -> int array
(** Per-edge distinct-element index into [elts]. *)

val words : t -> int
(** Scratch footprint in words (diagnostic; plans are transient working
    storage, not sketch state). *)
