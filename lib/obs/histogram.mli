(** Mergeable log-linear (HDR-style) latency histogram: the one
    histogram type, from the registry cell it is recorded in to the
    snapshot ({!to_json}/{!of_json}), the Prometheus exposition
    ({!prometheus}), the [--metrics] summary ({!quantile}) and the run
    ledger ({!digest}).

    Integer-valued (nanoseconds, sizes): each power-of-two octave is
    split into {!sub_buckets} linear sub-buckets, so any value is
    bucketed within ≤ 1/16 (6.25%) relative error, and values 0..15
    are exact.  All state lives in immediate ints on one preallocated
    flat array: {!record} allocates nothing (pinned by the
    allocation-regression test), and {!merge} is a commutative monoid
    with {!create} as identity — the registry's shard-merge law.

    This module also owns the single ceil-rank quantile definition
    ({!ceil_rank}, {!quantile_sorted}) shared with
    [Telemetry.summarize], so histogram digests and raw-sample
    summaries cannot drift. *)

type t = {
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;  (** meaningless when [count = 0] *)
  mutable vmax : int;  (** meaningless when [count = 0] *)
  buckets : int array;  (** length {!num_buckets} *)
}

val num_buckets : int
val sub_buckets : int

val create : unit -> t
val clear : t -> unit

val record : t -> int -> unit
(** Record one observation (negatives clamp to 0).  Zero allocation. *)

val bucket_of : int -> int
(** Index of the bucket a value lands in. *)

val bound_of_bucket : int -> int
(** Largest value mapping to the bucket (inclusive upper bound); used
    as the Prometheus [le] label and by {!quantile}. *)

val merge : t -> t -> t
(** Fresh histogram holding both inputs' observations. *)

val merge_into : dst:t -> t -> unit

val nonzero_buckets : t -> (int * int) list
(** [(bucket index, count)] for non-empty buckets, ascending. *)

val ceil_rank : float -> int -> int
(** [ceil_rank q n] — 1-based rank [ceil (q * n)] clamped to [1, n]. *)

val quantile_sorted : int array -> float -> int
(** Exact ceil-rank quantile of a sorted sample array; 0 when empty. *)

val quantile : t -> float -> int
(** Ceil-rank quantile over the buckets: the inclusive upper bound of
    the bucket holding the ranked observation, capped at the exact
    observed max.  Exact for values < 16, within 6.25% otherwise; 0
    when empty. *)

(** Fixed-size summary of a histogram: what the run ledger stores and
    the sentinel's quantile-shift checks compare. *)
type digest = {
  d_count : int;
  d_sum : int;
  d_min : int;
  d_max : int;
  d_p50 : int;
  d_p90 : int;
  d_p99 : int;
  d_p999 : int;
}

val digest : t -> digest
val digest_to_json : digest -> Json.t

val digest_of_json : Json.t -> (digest, string) result
(** Rejects negative counts, [min > max], and non-monotone quantiles. *)

val to_json : t -> Json.t
(** Full encoding: count/sum/min/max plus sparse bucket pairs. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}; rejects out-of-range bucket indices and
    bucket counts that do not sum to [count]. *)

val prometheus : name:string -> t -> string
(** Prometheus exposition: cumulative [_bucket{le="..."}] lines (the
    inclusive bucket upper bounds), a [+Inf] bucket, [_sum], and
    [_count]. *)
