(** Swap-based set-arrival streaming Max k-Cover, after Saha–Getoor
    (SDM 2009 [37]) — the "Reporting / Set Arrival / 4 / Õ(n)" row of
    Table 1.

    Maintains a current solution of at most [k] sets (with their
    contents, Õ(n) words total when coverage is Θ(n)); an arriving set
    is swapped in against the currently least-contributing kept set
    when its fresh coverage is at least twice that set's unique
    contribution.  The 2× margin is what yields the constant-factor
    guarantee: every swap retires a contribution at most half the gain,
    so the final solution's coverage is within a constant of any fixed
    optimum (the original analysis gives factor 4).

    Requires sets as unit objects — a set-arrival algorithm, kept as a
    baseline to contrast with the edge-arrival core. *)

type t

val create : n:int -> k:int -> t
val feed : t -> int -> int array -> unit
(** [feed t id members]: one set arrives. *)

val result : t -> Mkc_coverage.Greedy.result
val words : t -> int
