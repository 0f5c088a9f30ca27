(** Terminal rendering for the live telemetry view ([mkc top]).

    {!render} is a pure function from a {!Telemetry.log} (plus
    optional health context) to a string, so the layout is
    golden-testable; the CLI owns the terminal concerns (ANSI
    repaint, polling, tty detection). *)

val pp_count : int -> string
(** Human-scaled count: [1234] → ["1,234"], [1234567] → ["1.23M"]. *)

val sparkline : ?width:int -> Telemetry.log -> int -> string
(** Unicode sparkline of the track at a directory index over the log's
    last [width] samples, scaled to their own min/max (default width
    32, newest right). *)

val render : ?violations:(string * int) list -> Telemetry.log -> string
(** Multi-line dashboard: throughput (with sparkline), space,
    per-component space, GC, sketch health, health-rule
    violations, and a generic line for any track outside those
    families.  Min, max and last are {!Telemetry.summarize}'s, the
    summary [mkc telemetry-report] prints.  Renders a placeholder when
    the log has no samples yet. *)
