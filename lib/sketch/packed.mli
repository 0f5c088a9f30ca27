(** Packed sketch state: zigzag-varint ints in one byte string.

    The one codec for mergeable sketch state: the windowed estimator's
    frozen epochs and the checkpoint payloads that {!Mkc_stream.Checkpoint}
    writes to disk and [mkc merge] reads back.  Those bytes may come
    from anywhere, so the reader is checked: {!decode} is the only way
    to read, and every malformed input — a cut-off varint, a count or
    length larger than the bytes left, an index out of range, a sketch
    shape that is not the live one, bytes left over — ends the decode
    with [Error].  Counts and lengths are checked against the bytes
    left before anything is allocated from them. *)

type writer

val writer : unit -> writer

val put : writer -> int -> unit
(** One int as a zigzag LEB128 varint: one byte for [-64 .. 63], at
    most nine for any int. *)

val put_int64 : writer -> int64 -> unit
(** Low then high 32-bit half, each as a {!put}. *)

val contents : writer -> string

val reset : writer -> unit
(** Empty the writer but keep its buffer: a writer reused across
    packs grows to the largest state once instead of on every pack. *)

type reader

val decode : string -> (reader -> 'a) -> ('a, string) result
(** Run a decoder over the whole string.  [Error] when the decoder
    fails (any check below, or {!fail}) or leaves bytes unread; a
    target the decoder overlaid before failing is left partly written
    and should be discarded. *)

val fail : reader -> ('a, unit, string, 'b) format4 -> 'a
(** End the enclosing {!decode} with this message. *)

val check : reader -> (unit, string) result -> unit
(** {!fail} on [Error] — lifts a sketch's own [load_state] verdict. *)

val get : reader -> int

val get_count : reader -> int
(** A count or length: [0 ≤ n ≤ bytes left], so a decoder may allocate
    [n] items from it (every item takes at least one byte). *)

val get_below : reader -> int -> int
(** A value in [\[0, bound)]. *)

val get_int64 : reader -> int64
(** Inverse of {!put_int64}; each half must lie in [\[0, 2^32)]. *)

val put_ids : writer -> ('a -> int) -> (writer -> 'a -> unit) -> 'a list -> unit
(** Items sorted by strictly increasing id: the count, then per item
    its id as the gap to the previous one (the first as itself) and the
    item's own fields. *)

val get_ids : reader -> bound:int -> (reader -> int -> 'a) -> 'a list
(** Inverse of {!put_ids}: ids must be strictly increasing and lie in
    [\[0, bound)]. *)

val put_l0 : writer -> L0_bjkst.t -> unit
(** The {!L0_bjkst.dump} state: level, prune count and the sorted
    fingerprints (no levels: a fingerprint's level is its trailing-zero
    count). *)

val get_l0 : reader -> L0_bjkst.t -> unit
(** Overlay a {!put_l0} state through {!L0_bjkst.load_state}; the
    sketch must share the writer's cap and seed. *)

val put_f2c : writer -> F2_contributing.t -> unit
(** Every level's {!F2_heavy_hitter.dump} in that layout: the
    CountSketch depth, width and counters (written from the sketch's
    own array), the tracked (id, signed count) pairs and the prune
    count. *)

val get_f2c : reader -> ids:int -> F2_contributing.t -> unit
(** Overlay a {!put_f2c} state level by level: each CountSketch's
    depth and width must be the live sketch's, and its counters are
    decoded into the sketch's own array; the tracked part goes through
    {!F2_contributing.load_tracked}, and tracked ids must lie in
    [\[0, ids)]. *)

val put_memo : writer -> Sampler.Memo.t -> unit
(** The memo's slot count and the keys it holds, in slot order. *)

val get_memo : reader -> value:(int -> int) -> Sampler.Memo.t -> unit
(** Overlay a {!put_memo} state: the slot count must be the live memo's
    and keys must be non-negative, one per slot, in slot order.  Each
    key's value is recomputed by [value] — the pure function the memo
    caches — so a restored memo holds only fresh evaluations. *)
