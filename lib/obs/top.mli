(** Terminal rendering for the live telemetry view ([mkc top]).

    {!render} is a pure function from a {!Series} (plus optional
    health context) to a string, so the layout is
    golden-testable; the CLI owns the terminal concerns (ANSI
    repaint, polling, tty detection). *)

val pp_count : int -> string
(** Human-scaled count: [1234] → ["1,234"], [1234567] → ["1.23M"]. *)

val sparkline : ?width:int -> Series.t -> int -> string
(** Unicode sparkline of a track over the retained ring rows, scaled
    to the ring's own min/max (default width 32, newest right). *)

val render : ?violations:(string * int) list -> Series.t -> string
(** Multi-line dashboard: throughput (with sparkline), space,
    per-component space, GC, sketch health, health-rule
    violations, and a generic line for any track outside those
    families.  Renders a placeholder when the series has no samples
    yet. *)
