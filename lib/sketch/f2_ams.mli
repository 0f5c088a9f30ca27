(** AMS "tug-of-war" second-moment (F2) estimator (Alon–Matias–Szegedy
    [5]).

    Maintains [groups × per_group] counters [c = Σ_i s(i)·a\[i\]] with
    4-wise independent sign hashes [s]; [c²] is an unbiased estimator of
    F2 with variance ≤ 2·F2², so the median over groups of means within
    groups gives a (1 ± ε)-approximation.  Used wherever the analysis
    refers to [F2(v)] of the superset-size vector (Section 4.2), and to
    cross-check the F2 estimate embedded in {!Count_sketch}. *)

type t

val create : ?groups:int -> ?per_group:int -> seed:Mkc_hashing.Splitmix.t -> unit -> t
(** Defaults: 5 groups of 16 counters (ε ≈ 1/2 w.h.p.). *)

val add : t -> int -> int -> unit
(** [add t i delta] processes an update [a(i) <- a(i) + delta]. *)

val estimate : t -> float
val words : t -> int

val dump : t -> int array
(** Copy of the counter vector — the sketch's whole mutable state. *)

val load_state : t -> int array -> (unit, string) result
(** Overlay a dumped counter vector onto a sketch of the same shape. *)

val merge_into : dst:t -> t -> unit
(** Pointwise counter addition (the sketch is linear); both sides must
    share shape and seed.  @raise Invalid_argument on shape mismatch. *)
