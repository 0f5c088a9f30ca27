(** Edge-arrival constant-factor baseline (McGregor–Vu, ICDT 2017 [34];
    also Bateni–Esfandiari–Mirrokni [12]) — the
    "Reporting / Edge Arrival / 1/(1−1/e−ε) / Õ(m/ε²)" row of Table 1.

    For each guess [z] of the optimal coverage, subsample elements at
    rate [Θ̃(k / (ε² z))] with a pairwise hash, store the induced
    sub-instance over ALL m sets (Õ(m/ε²) words across guesses, by the
    element-sampling lemma), and run greedy offline at the end of the
    pass; the best guess's greedy value scales back by the reciprocal
    sampling rate.  This is exactly the machinery the paper
    generalizes: its SmallSet subroutine (Figure 5) saves two extra α
    factors by also subsampling sets.

    This baseline anchors the α → O(1) end of the trade-off curve in
    experiments E1/E2. *)

type t

type result = { chosen : int list; coverage : float; words : int }

val create :
  m:int -> n:int -> k:int -> ?epsilon:float -> ?seed:int -> unit -> t
(** Default ε = 0.5, seed 1. *)

val feed : t -> Mkc_stream.Edge.t -> unit

val finalize : t -> result
(** [coverage] is the scaled estimate of the reported cover's coverage;
    [chosen] has at most k set ids. *)

val words : t -> int
