(** The one streaming interface every single-pass consumer implements.

    A sink is created fully parameterized (all randomness fixed by
    seeds), then driven through the edge stream and finally collapsed
    into its result ({!S.finalize}).  It has two entry points:

    - {!S.feed} — one edge at a time.  This is the paper's algorithm as
      stated (Figures 3–5), kept as the readable spec that the
      equivalence suites check every other drive against;
    - {!S.feed_planned} — one chunk at a time, with a {!Chunk_plan}
      (the chunk's distinct ids and per-edge indices) built once by the
      driver and shared by every sink it drives.  This is the only path
      production drivers ({!Pipeline}) use.

    The two are REQUIRED to be observationally equivalent: for any split
    of the stream into chunks, [feed_planned] must leave the sink in
    exactly the state that edge-by-edge [feed] would.

    Implementations live next to their algorithms (e.g.
    {!Mkc_core.Estimate.sink}); this module only fixes the shape and
    provides the packing glue:

    - [('s, 'r) sink] — a first-class module pairing a state type with
      its result type;
    - {!any} / {!Any} — the existential packing used to drive a
      heterogeneous fleet of sinks over one stream (the unit of
      scheduling for {!Pipeline.drive}). *)

module type S = sig
  type t
  type result

  val feed : t -> Edge.t -> unit
  (** Consume one edge — the spec. *)

  val feed_planned : t -> Chunk_plan.t -> Edge.t array -> pos:int -> len:int -> unit
  (** Consume [edges.(pos .. pos+len-1)] in order, given a {!Chunk_plan}
      built over exactly that slice.  Must be equivalent to [len]
      successive {!feed} calls: implementations decide once per distinct
      id and restructure the work (instance-outer loops, batched sketch
      updates) but never reorder updates to any single structure. *)

  val finalize : t -> result
  (** Collapse the sink.  Sinks are single-shot: feeding after
      [finalize] is unspecified. *)

  val words : t -> int
  (** Retained 64-bit words (the space accounting of the paper). *)

  val words_breakdown : t -> (string * int) list
  (** [words] split by component, for the space experiments. *)
end

type ('s, 'r) sink = (module S with type t = 's and type result = 'r)
(** A sink implementation as a first-class module: ['s] is the mutable
    state, ['r] the finalize result. *)

type any = Any : ('s, 'r) sink * 's -> any
(** A sink with its result type hidden — the driveable unit.  Callers
    that packed the sink keep the typed state and finalize through it
    after driving. *)

val pack : ('s, 'r) sink -> 's -> any

(** Operations on packed sinks. *)
module Any : sig
  val feed : any -> Edge.t -> unit

  val feed_planned :
    any -> Chunk_plan.t -> Edge.t array -> pos:int -> len:int -> unit

  val words : any -> int
  val words_breakdown : any -> (string * int) list
end

val canonical_breakdown : (string * int) list -> (string * int) list
(** Canonicalize a {!S.words_breakdown}: duplicate keys merged by sum,
    result sorted by key.  Keys are dot-namespaced by convention
    (["oracle.large_common.l0"]), so the sorted list reads as a tree. *)

val prefix_breakdown : string -> (string * int) list -> (string * int) list
(** [prefix_breakdown p kvs] prepends [p ^ "."] to every key — how a
    composite sink namespaces the breakdowns of its children. *)
