(** Simple tabulation hashing (Thorup–Zhang [39]).

    The key is split into 8-bit characters, each indexing a table of
    random 64-bit words which are XORed together.  Simple tabulation is
    3-wise independent and behaves like full randomness for many
    streaming applications (Patrascu–Thorup); the paper cites
    tabulation-based hashing as one of the F2-heavy-hitter
    implementations [39].  It is the full-width mixer of the E10
    ablation estimators ({!Kmv}, {!Hyperloglog}), where empirical
    uniformity matters more than proof obligations.

    Tables live in flat native-int arrays as 32-bit lo/hi halves;
    {!hash64} recombines the halves into the same 64-bit values the
    historical boxed-table layout produced.  A [t] is an immutable
    value. *)

type t

val create : seed:Mkc_hashing.Splitmix.t -> t
(** Fresh tables for 8 input characters (56-bit keys). *)

val hash64 : t -> int -> int64
(** Full-width 64-bit hash of a non-negative int key. *)

val hash : t -> int -> int -> int
(** [hash t x r] reduces {!hash64} to [\[0, r)]. *)

val to_unit_float : t -> int -> float
(** [to_unit_float t x] maps the hash to a float in [\[0, 1)] —
    convenient for order statistics (KMV). *)

val words : t -> int
