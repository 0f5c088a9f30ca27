(** Quality-telemetry gauges: small helpers for publishing derived
    health signals (rates, relative errors, budget headroom) into a
    registry under stable names.  All are no-ops while
    {!Registry.enabled} is off, like every registry write. *)

val ratio : num:int -> den:int -> float
(** [num / den], or [0.] when [den <= 0]. *)

val record_ratio : ?registry:Registry.t -> string -> num:int -> den:int -> unit
(** Publish gauge [name] = [ratio ~num ~den]. *)

val record_relative_error :
  ?registry:Registry.t -> string -> truth:int -> estimate:int -> unit
(** Publish gauges [name.truth], [name.estimate] and
    [name.relative_error] = |estimate − truth| / truth (0 when the
    truth is 0) — used when a workload generator knows the planted
    optimum, or when an exact/greedy solver was run alongside. *)

val record_budget :
  ?registry:Registry.t ->
  budget_words:int ->
  peak_words:int ->
  overshoots:int ->
  samples:int ->
  unit ->
  unit
(** Publish the space-watchdog gauges [space.budget_words],
    [space.peak_words], [space.headroom] (= peak/budget),
    [space.overshoots] and [space.samples] — the group
    {!Snapshot.of_json} checks for consistency. *)
