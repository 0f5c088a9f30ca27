(** Span tracing: named, monotonic-clocked intervals.

    A finished span has two homes and no third: while
    {!Registry.enabled} is on it is folded into the owning registry as
    the log-bucketed latency histogram [span.<name>.ns] (count, sum and
    quantiles — what a snapshot carries), and while {!Trace.enabled}
    is on it is forwarded to the {!Trace} timeline as a complete event
    (the individual intervals — what [--trace] exports).  Everything
    is a no-op while both switches are off. *)

type handle

val start : ?registry:Registry.t -> string -> handle
(** Begin a span now ({!Clock.now_ns}). *)

val finish : handle -> unit
(** End the span and record it.  Finishing a handle created while
    recording was disabled is a no-op. *)

val with_ : ?registry:Registry.t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span (recorded even if it raises). *)

val record : ?registry:Registry.t -> string -> start_ns:int -> dur_ns:int -> unit
(** [record name ~start_ns ~dur_ns] — low-level entry for call sites
    that already timed the interval. *)
