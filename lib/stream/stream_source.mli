(** Single-pass edge streams.

    A stream is an abstract sequence of {!Edge.t} that can be consumed
    exactly once per [iter] — algorithms receive it only through
    {!iter}/{!fold}, mirroring the one-pass model.  Backing storage is
    an array (tests, benches) or a file (CLI). *)

type t

val of_array : Edge.t array -> t
val of_system : ?seed:int -> Set_system.t -> t
(** Edge stream of a set system, shuffled when [seed] is given. *)

val length : t -> int
val iter : (Edge.t -> unit) -> t -> unit
val fold : ('a -> Edge.t -> 'a) -> 'a -> t -> 'a

val windows : ?chunk:int -> ?epoch:int -> ?start:int -> t -> (int * int) array
(** The zero-copy [(pos, len)] sub-ranges of {!backing} that cut the
    stream into windows of [chunk] edges (default 8192) — the ingestion
    grid behind {!Pipeline}, precomputed so a pipelined driver can
    build window W+1's plan while W is still being replayed.  With
    [epoch], a window also ends at every multiple of [epoch] edges (a
    windowed sink's epoch boundaries, so no window straddles a roll).
    Every window has [len >= 1]: streams whose length is an exact
    multiple of [chunk] do not end with an empty window.  [start]
    (default 0) skips a prefix — the resume primitive; [start = length
    t] yields the empty array. *)

val backing : t -> Edge.t array
(** Zero-copy view of the backing edge array, for drivers that pair it
    with {!windows}.  Read-only: callers must not mutate or retain it
    past the stream's lifetime.  Unlike {!to_array}, no copy is made. *)

val partition : shards:int -> t -> t array
(** Edge-partition into [shards] contiguous sub-streams of near-equal
    size (sizes differ by at most one; concatenation in order is the
    original stream).  The shard-merge primitive: drive an
    independent sink over each part, then fold the final states
    together in order (e.g. {!Mkc_core.Estimate.merge_into}). *)

val to_array : t -> Edge.t array
(** A copy, for re-shuffling or persistence. *)

val save : t -> string -> unit
(** Text format: a header line [n m] is NOT stored; each line is
    "set elt" for insertions and "set elt -1" for deletions, so
    insertion-only streams round-trip byte-identically to the
    historical two-column format. *)

val load : string -> t
(** Inverse of {!save}, tolerant of tabs, repeated spaces, and
    leading/trailing whitespace (fields are split on runs of
    whitespace).  An optional third column is the turnstile sign and
    must be exactly ["1"], ["+1"] or ["-1"].  Ids must lie in
    [[0, max_int)]: a negative id, or [max_int] (whose successor, the
    {!max_ids} bound, wraps), is malformed.  Raises [Failure] on
    malformed lines, naming the file, the 1-based line number, and the
    offending token, id (or field count) so a single bad record in a
    large file is findable.  Single pass into a growable edge buffer — no
    intermediate list. *)

val max_ids : t -> int * int
(** [(max set id + 1, max element id + 1)] — a cheap (m, n) bound for
    loaded streams. *)

val load_auto_dims : string -> t * int * int
(** Load a stream file with its [(t, m, n)] universe bounds, dispatching
    on the file's magic bytes: binary files take the columnar
    {!Edge_file} reader (no string parsing) and give the bounds of
    their header (which may legitimately exceed the ids actually
    present); anything else takes the text {!load}, bounded by
    {!max_ids}.  Raises [Failure] on any binary rejection, naming the
    path and the {!Edge_file.error}. *)
