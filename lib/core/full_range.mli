(** The full trade-off curve, α ∈ (1/(1 − 1/e), Ω̃(√m)].

    The paper's Theorems 3.1/3.2 cover super-constant α; for constant α
    it invokes the O(1)-approximation edge-arrival algorithms of
    [12, 34] ("Note that Theorem 3.1 together with the
    O(1)-approximation algorithms of [12, 34] ... imply that for any
    α ∈ (1/(1−1/e), Ω̃(√m)] there exists a single-pass streaming
    algorithm ... in Õ(m/α²) space").  This module realizes that
    corollary: below {!switch_alpha} it runs the Õ(m/ε²) element-
    sampling algorithm ({!Mkc_coverage.Mcgregor_vu}, ε derived from the
    requested α); above it, the paper's {!Report}.

    The result is one entry point whose space is Õ(m/α²) over the whole
    admissible range. *)

type t

val switch_alpha : float
(** The hand-off point between the O(1)-approximation engine and the
    sketching engine (default 3.0: below it, ε = α − 1/(1−1/e)
    parameterizes the [34]-style algorithm). *)

type engine = Constant_factor | Sketching

val create : Params.t -> t
(** Chooses the engine from [params.alpha]; validates
    [alpha > 1/(1 - 1/e)]. *)

val engine : t -> engine
val feed : t -> Mkc_stream.Edge.t -> unit

type result = { estimate : float; sets : int list; engine : engine }

val finalize : t -> result
val words : t -> int

val merge_into : dst:t -> t -> unit
(** Fold a shard in via whichever engine is active; raises
    [Invalid_argument] on an engine mismatch. *)

val sink : (t, result) Mkc_stream.Sink.sink
(** The front-end as a {!Mkc_stream.Sink}. *)

val shards : t -> Mkc_stream.Sink.any array
(** Independent shards for {!Mkc_stream.Pipeline.feed_all_parallel}: the
    sketching engine's oracle instances, or the single [34]-style
    baseline in the constant-factor regime. *)
