(** The reporting algorithm (Theorem 3.2): a single-pass α-approximate
    Max k-Cover in Õ(m/α² + k) space.

    Runs {!Estimate} and materializes the winning witness into an
    explicit list of at most [k] set ids.  Each subroutine's witness is
    recoverable from Õ(1) stored hash seeds plus O(k) output words:

    - LargeCommon → a k-subset of the winning sampled collection
      [{S : h_β(S) sampled}];
    - LargeSet    → the winning superset [{S : h(S) = i*}], ≤ w ≤ k sets;
    - SmallSet    → greedy's picks on the stored sub-instance;
    - Trivial     → k pseudo-random sets.

    The +k term in the space bound is exactly this output. *)

type t

val create : Params.t -> t
val feed : t -> Mkc_stream.Edge.t -> unit

val feed_planned :
  t -> Mkc_stream.Chunk_plan.t -> Mkc_stream.Edge.t array -> pos:int -> len:int -> unit
(** {!Estimate.feed_planned} on the underlying engine. *)

type result = {
  estimate : float;  (** estimated coverage of the reported cover *)
  sets : int list;  (** at most k set ids *)
  provenance : Solution.provenance option;
}

val finalize : ?pool:Mkc_stream.Pipeline.Pool.t -> t -> result
(** {!Estimate.finalize} on the underlying engine, with the same [pool];
    the witness is then materialized on the calling domain. *)

val words : t -> int

val record_metrics : ?registry:Mkc_obs.Registry.t -> t -> unit
(** {!Estimate.record_metrics} on the underlying engine. *)

val merge_into : dst:t -> t -> unit

val sink : (t, result) Mkc_stream.Sink.sink
(** The reporter as a {!Mkc_stream.Sink}. *)

val shards : t -> Mkc_stream.Sink.any array
(** The underlying estimator's independent oracle instances, for
    {!Mkc_stream.Pipeline.drive}; see {!Estimate.shards}. *)
