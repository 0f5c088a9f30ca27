(** Evaluation helpers shared by tests and benches. *)

val ratio : opt:int -> achieved:int -> float
(** [opt / achieved] as a float — the approximation factor of an
    estimate or a reported cover ([infinity] if [achieved <= 0]). *)

val within_factor : opt:int -> achieved:float -> factor:float -> bool
(** True iff [achieved] lies in [\[opt / factor, opt · slack\]] with a
    1.01 upward slack (estimates are allowed to exceed OPT only by
    rounding noise). *)
