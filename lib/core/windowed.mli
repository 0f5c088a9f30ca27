(** Sliding-window and exponential-decay coverage estimation.

    The general streaming model of the paper is insertion + deletion;
    freshness-weighted queries ("coverage over the recent stream") are
    the other practical face of the same machinery.  This module cuts
    the edge stream into fixed-size epochs and runs every epoch in one
    live {!Estimate}.  Figure 1's (z, rep) instances are independent
    until Theorem 3.6's selection, so each instance keeps a window of
    its own: its live state, a frozen blank, and a ring of the last
    [window] frozen epoch states ({!Estimate.freeze_inst}: its packed
    mergeable state).  When an epoch is full, each instance freezes
    into its ring slot and is reset in place by thawing its blank
    ({!Estimate.thaw_inst}), so its seed-derived decision memos stay
    warm from epoch to epoch.  Each instance rolls on the domain that
    feeds it: {!shards} gives one sink per instance, for a pooled
    drive whose windows end at the epoch boundaries.

    A query, one instance at a time (with a pool, side by side), thaws
    the held epochs one by one into a scratch instance and merges them
    oldest-first into a fresh one by the shard-merge path
    ({!Estimate.merge_inst}), then merges the in-flight epoch and
    finalizes; {!Estimate.select} then picks the answer once.  So the
    windowed answer is exactly what a fresh single pass over the live
    suffix would produce (L0 and the linear sketches merge losslessly;
    only work counters and the decision memo differ, and neither feeds
    the estimate), at any domain count.

    With [decay] = λ the same ring instead feeds the {!Decay} monoid:
    each roll finalizes each instance's epoch into its ring slot, each
    epoch's estimate is selected from those outcomes, and the
    per-epoch estimates are folded oldest-first, each step aging the
    accumulated mass by λ per epoch — an exponential-decay estimate in
    O(window) extra space.  Without decay a roll does not finalize.

    Telemetry: [window.epochs] (live epochs, gauge), [window.rolled]
    (counter), and a [window.decay_merge] span around each query's
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
    planned into the domain's {!Feed_scratch.plan}.  A drive whose
    windows end at the epoch boundaries ({!epoch_edges}) never splits. *)

val shards : t -> Mkc_stream.Sink.any array
(** One mutually independent sink per (z, rep) instance, each with its
    ring: driving every shard over the full stream (e.g. by
    {!Mkc_stream.Pipeline.drive}) leaves the window in exactly the
    state of {!feed}, and each instance rolls on the slot that feeds
    it.  Give the drive [~epoch:(epoch_edges t)] so that no shard splits
    a slice.  A shard's [words] count its instance and its held
    epochs' bytes; the whole window's {!words} are the ones to read.
    The trivial branch has no instance but must still count its
    epochs: its one shard is the whole sink. *)

val epoch_edges : t -> int
(** Edges per epoch, as created. *)

type result = {
  estimate : float;  (** windowed (or decayed) coverage estimate *)
  outcome : Solution.outcome option;
      (** the merged window's winning oracle outcome (witness ids) *)
  epochs : int;  (** epochs contributing to the answer, partial included *)
  rolled : int;  (** total epochs rolled over the whole run *)
}

val finalize : ?pool:Mkc_stream.Pipeline.Pool.t -> t -> result
(** The window query.  With [pool], the instances are thawed, merged
    and finalized over its slots by
    {!Mkc_stream.Pipeline.Pool.parallel_for}; the answer is the same
    with or without one.  The window may go on taking edges
    afterwards. *)

val merged : t -> Estimate.t option
(** The estimator the last {!finalize} merged the window into: its
    instances are finalized and its verdicts are the answer's, so
    {!Estimate.record_metrics} of it publishes the query's winners,
    guesses and finalize-time stats.  [None] before the first query. *)

val words : t -> int
(** Current estimator plus every held frozen epoch, each charged the
    heap size of one string of its instances' states. *)

val words_breakdown : t -> (string * int) list
(** The in-flight estimator's breakdown under [current.*] plus the
    held epochs under [ring]. *)

val stats_totals : t -> (string * int) list
(** {!Estimate.stats_totals} of the in-flight epoch (what the
    telemetry probes sample mid-run). *)

val params : t -> Params.t

val current : t -> Estimate.t
(** The in-flight epoch's estimator: one for the whole run, each
    instance reset in place (not replaced) on every roll. *)

val rolled : t -> int

val live_epochs : t -> int
(** Finished epochs held in the ring: [min rolled window]. *)

val sink : (t, result) Mkc_stream.Sink.sink
