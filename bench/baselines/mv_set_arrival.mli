(** Threshold-greedy set-arrival Max k-Cover in sampled space, after
    McGregor–Vu (ICDT 2017 [34]) — the
    "Reporting / Set Arrival / 2 + ε / Õ(k/ε³)" row of Table 1.

    For each guess [v] of OPT (powers of (1+ε)), subsample the universe
    at rate [Θ̃(k / (ε² v))] — so only Õ(k/ε²) of an optimal solution's
    elements survive per guess, Õ(k/ε³) over the ladder — and admit an
    arriving set when its marginal coverage {e on the sample} is at
    least [rate·v / (2k)].  The element-sampling lemma (the paper's
    Lemma 2.5) transfers the threshold-greedy 1/2-approximation back to
    the full universe at (1 ± ε) distortion.

    Space is independent of n (unlike {!Sieve}'s Õ(n) bitmaps): only
    sampled element ids are retained.  Set-arrival only. *)

type t

type result = { chosen : int list; coverage : float }
(** [coverage] is the best guess's estimate (scaled back). *)

val create : ?epsilon:float -> ?seed:int -> k:int -> unit -> t
(** Default ε = 0.5, seed 1. *)

val feed : t -> int -> int array -> unit
val result : t -> result
val words : t -> int
