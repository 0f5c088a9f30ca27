(** Declarative health rules over a telemetry sample's row — the space
    watchdog generalized.  A rule watches one or two tracks and fires
    on each sample that violates it:

    - [Threshold]: a track crosses a fixed limit ([>] or [<]);
    - [Ratio_drift]: the ratio of two tracks (in parts-per-million)
      exceeds a limit — e.g. space.words vs. its budget, or minor GC
      words vs. edges;
    - [Stall]: a track fails to change over a window of consecutive
      samples while the stream keeps advancing.

    Each firing bumps a [health.<rule>.violations] counter in the
    metric registry, invokes [on_event] (the CLI wires this to the
    telemetry log), and — for a rule marked [escalate] — raises
    {!Violation}, mirroring [--budget-strict]. *)

type cmp = Gt | Lt

type kind =
  | Threshold of { track : string; cmp : cmp; limit : int }
  | Ratio_drift of { num : string; den : string; max_ppm : int }
  | Stall of { track : string; window : int }

type rule = { name : string; kind : kind; escalate : bool }

exception Violation of string
(** Raised by {!check} when an escalating rule fires; the payload
    names the rule and the offending values. *)

val parse : string -> (rule, string) result
(** Parse the CLI rule syntax (a trailing ['!'] marks escalation):
    - ["name=track>limit"], ["name=track<limit"] — threshold;
    - ["name=num/den>ppm"] — ratio drift, limit in ppm;
    - ["name=stall:track:window"] — stall over [window] samples. *)

val rule_to_string : rule -> string
(** Render a rule back into {!parse} syntax. *)

type engine

val create :
  ?registry:Registry.t ->
  ?on_event:(name:string -> value:int -> unit) ->
  tracks:string array ->
  rule list ->
  engine
(** Resolve each rule's tracks against the track directory
    ([Invalid_argument] on an unknown track, naming it) and return an
    engine over rows laid out in [tracks] order.  [registry] defaults
    to {!Registry.global}. *)

val check : engine -> int array -> unit
(** Examine one sample's row (one value per track, the row a
    {!Telemetry.Writer.sample} call writes); call once per sample.
    Stall rules keep their own run across calls.  Raises {!Violation}
    if an escalating rule fires (after counting and emitting the
    event). *)
