(** Append-only run ledger: one file accumulating a record per
    benchmark or estimation run, so cross-run comparisons ({!Sentinel},
    [mkc bench-diff]) have durable evidence instead of a single
    overwritten JSON.

    Layout — the {!Telemetry.Framed} machinery with its own magic:

    {v
      offset 0   magic   "MKCLEDG1" (8 bytes)
      offset 8   version int64 LE (currently 1)
      then       frames, each:
                   payload_len  int64 LE
                   checksum     int64 LE — FNV-1a 64 over the payload
                   payload      one JSON run record
    v}

    Same error type and contract as the telemetry log
    ({!Telemetry.error}): every rejection is a named variant, a torn final frame (crash mid-append) keeps the
    intact prefix and is reported in [store.torn], and a checksum
    mismatch is fatal. *)

type error = Telemetry.error

val error_to_string : error -> string
(** {!Telemetry.error_to_string}, with the file named a run ledger. *)

val magic : string
val version : int

val record_schema : string
(** Schema tag carried inside every record ("mkc-ledger/1"). *)

(** Best-of-k timing for one pipeline mode — the sentinel reads the
    baseline's own [best]/[median] spread as its noise band. *)
type mode_stat = {
  ms_mode : string;  (** "sequential" | "batched" | "pipelined" | ... *)
  ms_repeats : int;  (** how many timed repeats best/median summarize *)
  ms_best_s : float;
  ms_median_s : float;  (** >= [ms_best_s] by construction *)
  ms_edges_per_sec : float;  (** throughput of the best repeat *)
}

(** One run record: a self-describing envelope of what ran, where, and
    how it behaved. *)
type entry = {
  e_label : string;  (** workload identity, e.g. "pipeline-bench" *)
  e_created_ns : int;  (** wall clock, ns since the epoch *)
  e_host : (string * Json.t) list;  (** host fingerprint, sorted *)
  e_params : (string * Json.t) list;  (** workload parameters, sorted *)
  e_stats : (string * float) list;  (** wall_s / edges / edges_per_sec, ... *)
  e_modes : mode_stat list;
  e_digests : (string * Histogram.digest) list;  (** per-track latency digests *)
  e_quality : (string * float) list;  (** estimate.quality.* gauges *)
}

type store = { entries : entry list; torn : error option }

val host_fingerprint : unit -> (string * Json.t) list
(** domains / hostname / ocaml / os / word_size of the running
    process, sorted — enough to spot cross-host comparisons. *)

val harvest : Registry.t -> (string * Histogram.digest) list * (string * float) list
(** A run's ledger evidence, read from the registry: every populated
    histogram digested (the [e_digests] field, keyed by registry track
    name, so records from different builds line up as long as the
    tracks exist) and every gauge whose name contains [".quality."]
    (the [e_quality] field). *)

val entry_to_json : entry -> Json.t
(** All object fields sorted; identical entries encode identically. *)

val entry_of_json : Json.t -> (entry, string) result
(** Rejects wrong [record_schema], negative [created_ns], repeats < 1,
    non-finite or inverted timings, and malformed digests. *)

val append : string -> entry -> (unit, error) result
(** Append one record.  Creates the file (with header) when absent or
    empty; otherwise validates the existing header first, so appending
    to a foreign or corrupt file is a named error, not silent damage. *)

val read : string -> (store, error) result
(** Load and verify every record, oldest first.  A torn final frame is
    skipped and reported in [torn]; corruption inside the file is a
    hard error. *)
