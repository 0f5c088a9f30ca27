(** Sliding-window and exponential-decay coverage estimation.

    The general streaming model of the paper is insertion + deletion;
    freshness-weighted queries ("coverage over the recent stream") are
    the other practical face of the same machinery.  This module cuts
    the edge stream into fixed-size epochs, runs every epoch in one
    live {!Estimate} instance, and freezes each finished epoch
    ({!Estimate.freeze}: its packed mergeable state) into a ring of the
    last [window] epochs.  A roll then resets the live instance in
    place by thawing a frozen blank into it ({!Estimate.thaw}), so its
    seed-derived decision memos stay warm from epoch to epoch.  A query
    thaws the held epochs one by one into a scratch estimator and
    merges them oldest-first into one estimator by the shard-merge path
    ({!Estimate.merge_into}), then merges the in-flight epoch, so the
    windowed answer is exactly what a fresh single pass over the live
    suffix would produce (L0 and the linear sketches merge losslessly;
    only work counters and the decision memo differ, and neither feeds
    the estimate).

    With [decay] = λ the same ring instead feeds the {!Decay} monoid:
    each roll finalizes its epoch, and the per-epoch estimates are
    folded oldest-first, each step aging the accumulated mass by λ per
    epoch — an exponential-decay estimate in O(window) extra space.
    Without decay a roll does not finalize.

    Telemetry: [window.epochs] (live epochs, gauge), [window.rolled]
    (counter), and a [window.decay_merge] span around each query-time
    merge — all through the global registry, so [--telemetry] picks
    them up at no extra plumbing. *)

(** The decay-merge monoid: [(v, span)] is a mass [v] covering [span]
    epochs.  [combine ~lambda a b] (with [b] the newer operand) is
    [(b.v + λ^b.span · a.v, a.span + b.span)] — associative, with
    {!Decay.identity} [(0, 0)] as two-sided identity (the laws
    test_window checks). *)
module Decay : sig
  type acc = { v : float; span : int }

  val identity : acc
  val combine : lambda:float -> acc -> acc -> acc

  val of_estimate : float -> acc
  (** One epoch's finalized estimate as a span-1 element. *)
end

type t

val create : ?decay:float -> Params.t -> window:int -> epoch_edges:int -> unit -> t
(** [create params ~window ~epoch_edges ()] retains the last [window]
    epochs of [epoch_edges] edges each.  [decay] switches the query to
    the exponential-decay fold (must lie in (0, 1)).  Raises
    [Invalid_argument] on out-of-range arguments, by name. *)

val feed : t -> Mkc_stream.Edge.t -> unit

val feed_planned :
  t -> Mkc_stream.Chunk_plan.t -> Mkc_stream.Edge.t array -> pos:int -> len:int -> unit
(** A slice that ends inside the current epoch is fed with the given
    plan.  One that straddles a roll is split at the epoch boundary,
    so rolls land at exactly the per-edge drive's edge counts
    (bit-for-bit equal states across driving modes); its pieces are
    planned into the domain's {!Feed_scratch.plan}. *)

type result = {
  estimate : float;  (** windowed (or decayed) coverage estimate *)
  outcome : Solution.outcome option;
      (** the merged window's winning oracle outcome (witness ids) *)
  epochs : int;  (** epochs contributing to the answer, partial included *)
  rolled : int;  (** total epochs rolled over the whole run *)
}

val finalize : t -> result

val words : t -> int
(** Current estimator plus every held frozen epoch, each charged its
    heap size ({!Estimate.frozen_words}). *)

val words_breakdown : t -> (string * int) list
(** The in-flight estimator's breakdown under [current.*] plus the
    held epochs under [ring]. *)

val stats_totals : t -> (string * int) list
(** {!Estimate.stats_totals} of the in-flight epoch (what the
    telemetry probes sample mid-run). *)

val params : t -> Params.t

val current : t -> Estimate.t
(** The in-flight epoch's estimator: one instance for the whole run,
    reset in place (not replaced) on every roll. *)

val rolled : t -> int

val live_epochs : t -> int
(** Finished epochs held in the ring: [min rolled window]. *)

val sink : (t, result) Mkc_stream.Sink.sink
