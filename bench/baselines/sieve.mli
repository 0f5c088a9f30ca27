(** Sieve-streaming baseline for SET-ARRIVAL streams (Badanidiyuru–
    Mirzasoleiman–Karbasi–Krause [9], specialized to coverage).

    Table 1's "Reporting / Set Arrival / 2 / Õ(n)" row: maintain
    O(log k / ε) parallel guesses [v] of OPT; under guess [v], admit an
    arriving set if its marginal coverage is at least
    [(v/2 − current) / (k − |sol|)].  Space is dominated by one covered-
    element bitmap per guess — Õ(n), which is exactly what edge-arrival
    algorithms cannot afford and why the paper's regime is different.

    This baseline consumes sets as unit objects; it CANNOT run on
    edge-arrival streams (the point of the comparison). *)

type t

val create : n:int -> k:int -> ?epsilon:float -> unit -> t
(** Default [epsilon] = 0.1. *)

val feed : t -> int -> int array -> unit
(** [feed t id members]: one set arrives. *)

val result : t -> Mkc_coverage.Greedy.result
val words : t -> int
