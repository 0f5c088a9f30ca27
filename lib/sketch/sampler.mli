(** Sampling primitives used by the paper's algorithms.

    - {!Bernoulli}: hash-based subsampling with limited independence —
      the implementation of set sampling (Lemma 2.3, Appendix A.1) and
      element sampling (Lemma 2.5).  Membership is a pure function of
      the item, so the same item is consistently kept or dropped across
      the whole stream with only the hash seed stored.
    - {!Reservoir}: classic reservoir sampling, used where a uniform
      fixed-size sample of {e stream positions} is needed (e.g. the
      superset sample M of Figure 6, Case 2). *)

module Bernoulli : sig
  type t

  val create : rate:float -> indep:int -> seed:Mkc_hashing.Splitmix.t -> t
  (** [create ~rate ~indep ~seed] keeps each item independently with
      probability ~[rate], using an [indep]-wise independent hash
      (Appendix A.1 implements set sampling with Θ(log mn)-wise
      independence). *)

  val keep : t -> int -> bool

  val keep_batch : t -> int array -> pos:int -> len:int -> bool array -> unit
  (** [keep_batch t xs ~pos ~len out]: [out.(j) = keep t xs.(pos + j)]
      for [j < len], via one coefficient-major
      {!Mkc_hashing.Poly_hash.hash_batch} pass — bit-for-bit the
      per-call decisions. *)

  val rate : t -> float
  (** The realized rate [1 / range] (the requested rate rounded to a
      reciprocal of an integer). *)

  val words : t -> int
end

module Nested : sig
  (** Multi-layered subsampling (Section 4.1): a single hash induces a
      chain of samples [S_0 ⊆ S_1 ⊆ ... ⊆ S_L] with geometrically
      increasing rates — level [i] keeps an item with probability
      [min(1, base_rate · 2^i)], and an item kept at level [i] is kept
      at every coarser level [j > i].  Evaluating all levels costs one
      hash, which matters on the per-edge hot path. *)

  type t

  val create :
    base_rate:float -> levels:int -> indep:int -> seed:Mkc_hashing.Splitmix.t -> t
  (** [base_rate] is the (finest) level-0 rate, rounded down to a
      reciprocal power of two. [levels >= 1]. *)

  val keep : t -> level:int -> int -> bool

  val min_keep_level : t -> int -> int option
  (** The finest (smallest) level at which the item survives, computed
      with a single hash evaluation; [None] if it survives at no level.
      By nesting, the item survives at exactly the levels
      [>= min_keep_level]. *)

  val min_keep_level_code : t -> int -> int
  (** Allocation-free {!min_keep_level}: the level, or [-1] for [None].
      The hot-path form — [int option] returns box without flambda. *)

  val rate : t -> level:int -> float
  (** The realized rate of a level (exactly [2^-j] for some j). *)

  val levels : t -> int
  val words : t -> int
end

(** Bounded direct-mapped cache for per-id sampling decisions (int keys,
    int values).  Slot = [id land (slots - 1)]; a colliding id evicts by
    overwrite.  Purely an accelerator: on a miss the caller recomputes
    the hash and [store]s the result, so a memoized decision is always
    exactly the hash's — the cache can change how often the hash is
    {e evaluated}, never what it {e says}.  Space is a fixed
    [2·slots + 1] words, accounted by the owning sketch under a
    [*.memo] key. *)
module Memo : sig
  type t

  val absent : int
  (** Sentinel returned by {!find} on a miss ([min_int]; never a legal
      stored value — keep-level codes are [>= -1]). *)

  val create : slots:int -> t
  (** [slots] is rounded up to a power of two. *)

  val find : t -> int -> int
  (** The cached value for this key, or {!absent}. Keys must be
      non-negative. *)

  val store : t -> int -> int -> unit

  val slots : t -> int

  val words : t -> int

  val iter : t -> (int -> int -> unit) -> unit
  (** [f key value] for every cached entry, in slot order — what a
      checkpoint carries, so a resumed run replays the exact hit/miss
      sequence the uninterrupted run would see. *)

  val reset : t -> unit
  (** Drop all cached decisions (used on merge: shards' overwrite
      histories don't compose, and the cache is a pure accelerator, so
      rebuilding from scratch is always sound). *)
end

module Reservoir : sig
  type t

  val create : cap:int -> seed:Mkc_hashing.Splitmix.t -> t
  val add : t -> int -> unit
  val contents : t -> int array
  val seen : t -> int
  val words : t -> int
end
