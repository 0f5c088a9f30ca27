(** CountSketch (Charikar–Chen–Farach-Colton [18]).

    A depth × width array of counters; row [r] hashes item [i] to bucket
    [b_r(i)] with a pairwise hash and adds a 4-wise independent sign
    [s_r(i)].  The frequency estimate is the median over rows of
    [s_r(i) · C\[r\]\[b_r(i)\]], with error [O(√(F2 / width))] per row —
    the L2 guarantee that makes it the standard F2-heavy-hitter building
    block (Theorem 2.10 cites [14, 15, 18, 39]).

    Each row also yields an AMS-style F2 estimate [Σ_b C\[r\]\[b\]²];
    {!f2_estimate} takes the median over rows, saving a separate F2
    sketch inside {!F2_heavy_hitter}. *)

type t

val create : ?depth:int -> width:int -> seed:Mkc_hashing.Splitmix.t -> unit -> t
(** Default depth 5. [width] should be Θ(1/φ) for φ-heavy-hitter use. *)

val add : t -> int -> int -> unit
(** [add t i delta]: update item [i] by [delta]. *)

val estimate : t -> int -> float
(** Median-of-rows frequency estimate for item [i] (the mean of the two
    middle rows at even depth).  Sorts the rows in the sketch's own
    scratch, so it allocates only its result and must not run on one
    sketch from two domains at once. *)

val f2_estimate : t -> float
(** Median over rows of the per-row sum of squared counters. *)

val depth : t -> int
val width : t -> int
val words : t -> int

val dump : t -> int array array
(** Copy of the depth × width counter matrix. *)

val counters : t -> int array
(** The counter matrix itself, row-major (row [r], bucket [b] at
    [r·width + b]), not a copy: {!Packed} writes and reads it in
    place.  Writing it changes the sketch. *)

val load_state : t -> int array array -> (unit, string) result
(** Overlay a dumped counter matrix onto a sketch of the same shape. *)

val merge_into : dst:t -> t -> unit
(** Pointwise counter addition (the sketch is linear); both sides must
    share shape and seed.  @raise Invalid_argument on shape mismatch. *)
