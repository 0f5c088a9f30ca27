(** Space accounting in 64-bit words.

    The paper's object of study is the {e space} of single-pass
    algorithms, so every sketch and every streaming state in this
    repository exposes [words : t -> int], the number of 64-bit machine
    words it retains between stream updates.  Hash functions count their
    seed/coefficient storage (Lemma A.2: a d-wise independent function
    costs d words).  Transient per-update scratch is not counted, and
    neither is the read-only input configuration (m, n, k, alpha). *)

val pp_bytes : Format.formatter -> int -> unit
(** Pretty-print a word count as words and KiB. *)

(** Watchdog against a theoretical word budget (Thm 3.1/3.3's
    [Õ(m/α²)], with the constant made explicit by the caller —
    see [Estimate.word_budget]).  Feed it sampled [words] totals;
    it tracks the peak and, in strict mode, raises the moment a
    sample exceeds the budget. *)
module Budget : sig
  type t

  exception Exceeded of { budget : int; words : int }

  val create : ?strict:bool -> int -> t
  (** [create budget] with [budget > 0] words ([Invalid_argument]
      otherwise).  [strict] (default off) makes {!observe} raise
      {!Exceeded} on any sample over budget. *)

  val observe : t -> int -> unit
  (** Record one sampled word total.  Updates peak/overshoot counts
      (the overshoot is recorded {e before} {!Exceeded} is raised, so
      a caught exception still leaves an accurate record). *)

  val budget : t -> int
  val strict : t -> bool
  val peak : t -> int
  val samples : t -> int
  val overshoots : t -> int

  val headroom : t -> float
  (** [peak / budget]; < 1.0 means the run stayed within budget. *)
end
