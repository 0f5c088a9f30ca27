(** Algorithm parameters (Table 2 of the paper) and the
    paper-vs-practical profile switch.

    The paper's constants are chosen for the asymptotic proofs — e.g.
    [t = 5000 log²(mn)/s] and [σ = 1/(2500 log²(mn))] — and make every
    threshold vacuous at laptop scale (σ|U|/α < 1 already for n = 10^5).
    Experiment E9 ablates them.  The [Practical] profile keeps every
    {e formula} but replaces the galactic constants and polylog factors
    with small calibrated ones; the [Paper] profile instantiates
    Table 2 literally.  All downstream modules read ONLY this record,
    so the two profiles exercise identical code paths. *)

type profile = Paper | Practical

type t = {
  m : int;  (** number of sets in the stream *)
  n : int;  (** size of the original ground set *)
  u : int;  (** size of the current (possibly reduced) universe; starts at [n] *)
  k : int;  (** cover budget *)
  alpha : float;  (** target approximation factor *)
  profile : profile;
  eta : float;  (** promised coverage fraction reciprocal, Table 2: η = 4 *)
  w : int;  (** superset size bound, Table 2: w = min\{k, α\} *)
  s : float;  (** large-set contribution scale, Table 2 *)
  f : float;  (** per-superset duplication bound, Table 2: f = 7 log(mn) *)
  sigma : float;  (** common-element mass threshold, Table 2 *)
  t_elem : float;  (** element-sampling rate multiplier, Table 2 *)
  indep : int;  (** Θ(log(mn)) hash independence (footnote 6) *)
  oracle_repeats : int;  (** O(log n) parallel repeats inside LargeSet/SmallSet *)
  z_repeats : int;  (** log(1/δ) repeats per coverage guess in Figure 1 *)
  accept_factor : float;
      (** Figure 1 accepts a guess-z estimate iff [est_z ≥ z / (accept_factor · α)].
          The paper's value 4 assumes its polylog-sized oracle constants; the
          practical profile relaxes it to keep the accept test consistent with
          the practical subroutine constants. *)
  z_stride : int;
      (** Figure 1 guesses z over powers of [2^z_stride] (1 = the paper's
          every-power-of-two ladder; the practical profile uses 2, costing at
          most another factor 2 in guess granularity — absorbed by Õ(α)). *)
  base_seed : int;
}

val make :
  m:int -> n:int -> k:int -> alpha:float -> ?profile:profile -> ?seed:int -> unit -> t
(** Validates [1 <= k <= m], [alpha >= 1], [n >= 1] and derives every
    Table 2 quantity for the chosen profile (default [Practical]). *)

val with_universe : t -> int -> t
(** The same parameterization over a reduced universe of the given size
    (used by Figure 1 when handing the oracle a hashed ground set). *)

val s_alpha : t -> float
(** [s·α], the reciprocal contribution threshold defining OPT_large
    (Definition 4.2): a set is "large" if it contributes at least
    [z/(s·α)] to the optimal coverage. *)

val log2f : int -> float
(** [max 1. (log2 x)] — the polylog building block used by both
    profiles. *)

val put : Mkc_sketch.Packed.writer -> t -> unit
(** The make-inputs (m, n, u, k, alpha as its IEEE bits, profile, seed)
    — what a checkpoint embeds so a sink can be re-created from the file
    alone.  Derived quantities are intentionally omitted: they are
    re-derived on decode. *)

val get : Mkc_sketch.Packed.reader -> t
(** Inverse of {!put}: re-runs {!make} (so validation applies) and
    restores the reduced universe; invalid params fail the decode. *)

val same_instance : t -> t -> bool
(** Equality of the make-inputs — whether two parameterizations denote
    the same derived instance (and hence the same hash functions). *)

val pp : Format.formatter -> t -> unit
