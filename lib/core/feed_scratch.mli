(** The planned feed's working buffers: one set per domain behind one
    [Domain.DLS] key, shared by every instance the domain feeds.  A
    domain feeds one instance at a time and each feed writes a buffer
    before reading it, so no instance keeps chunk scratch of its own.
    A buffer is named by its role; {!ints} and {!flags} return the
    calling domain's buffer of at least the requested length, grown
    (doubling) only by a larger request: one chunk's distinct ids or
    in-sample edges, or one instance's superset count.  Uncounted in any
    [words]. *)

type ints =
  | Red
      (** Distinct element -> reduced value: {!Estimate} writes it and
          every subroutine reads it, so no subroutine takes this role. *)
  | Codes
      (** Distinct id -> a decision: LargeCommon's keep code, LargeSet's
          superset id, SmallSet's keep level. *)
  | Sid_sums
      (** Superset -> LargeSet's signed in-sample sum of the chunk; all
          [min_int] between feeds (a feed resets what it set). *)
  | Sid_list  (** The supersets the chunk touched, compact. *)
  | Edge_sid  (** In-sample edge -> superset id, in stream order. *)
  | Edge_sign  (** In-sample edge -> sign. *)
  | Work_sid  (** The per-edge levels' compacted copy of [Edge_sid]. *)
  | Work_sign  (** The per-edge levels' compacted copy of [Edge_sign]. *)

type flags =
  | Elt_flags  (** Distinct element -> in LargeSet's element sample. *)
  | Set_flags  (** Distinct set -> in LargeSet's fallback sample or SmallSet's M. *)

val ints : ints -> int -> int array
val flags : flags -> int -> bool array

val plan : unit -> Mkc_stream.Chunk_plan.t
(** A plan for slices a sink cuts and re-plans itself; made on first
    use. *)
