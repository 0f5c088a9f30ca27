(** Versioned, validated, byte-stable checkpoints of sink state.

    A checkpoint is a binary [mkc-ckpt/4] envelope around a
    sink-specific payload: the sink kind, the stream position the state
    covers, the base hash seed the sink was created under, and an
    FNV-1a-64 trailer over all of the above.  Everything about a sink
    except its mutable state is a deterministic function of its
    parameters and seed, so restore re-creates the sink (same hash
    functions, bit for bit) and overlays the payload — a restored sink
    is indistinguishable from one that processed the prefix itself.

    Layout (integers are little-endian int64):
    {v
      0        magic "MKCCKPT4"
      8        kind length K
      16       kind (K bytes)
      16+K     pos
      24+K     seed
      32+K     payload length P
      40+K     payload (P bytes, the sink's [Mkc_sketch.Packed] state)
      40+K+P   FNV-1a 64 of bytes [0, 40+K+P)
    v}

    Every rejection is a named {!error} (foreign magic, unknown version,
    truncated bytes, forged seed, checksum mismatch), every length is
    checked against the bytes present before it is used, and emission is
    byte-stable so goldens can pin the format.  Version 4 changed only
    the estimator payload: an L0 sketch's fingerprints are the values of
    its own 4-wise polynomial hash, stored without levels.  Older files
    hold fingerprints of another hash, so they are refused, not mixed:
    an [mkc-ckpt/3] or [mkc-ckpt/2] file is rejected as
    [Bad_version "mkc-ckpt/3"] (resp. ["mkc-ckpt/2"]), and an
    [mkc-ckpt/1] (JSON) file as [Bad_version "mkc-ckpt/1"]. *)

type error =
  | Bad_magic of string  (** Not a checkpoint: the leading bytes. *)
  | Bad_version of string  (** [mkc-ckpt/N] with an N this build does not read. *)
  | Truncated of string  (** Fewer bytes than the header's lengths promise. *)
  | Malformed of string  (** A header field out of range, or bytes left over. *)
  | Checksum_mismatch of { expected : string; got : string }
  | Seed_mismatch of { expected : int; got : int }
      (** The checkpoint was taken under a different base seed: its hash
          functions are not this run's hash functions, so restoring
          would silently corrupt every estimate. *)
  | Kind_mismatch of { expected : string; got : string }
  | Payload_rejected of string  (** The sink's own decoder said no. *)
  | Io_error of string

val error_to_string : error -> string

type t = {
  kind : string;  (** Which sink family the payload belongs to. *)
  pos : int;  (** Edges of the stream covered by this state. *)
  seed : int;  (** Base seed the sink's hash functions derive from. *)
  payload : string;
}

val schema : string
(** ["mkc-ckpt/4"]. *)

val to_string : t -> string
(** Byte-stable rendering of the layout above. *)

val of_string : ?expect_kind:string -> ?expect_seed:int -> string -> (t, error) result
(** Parse and validate; [expect_kind]/[expect_seed] additionally pin
    the sink family and hash seed (a checkpoint from a different seed
    would restore silently-wrong hash state, so resume paths always
    pass them). *)

val validate : string -> (t, error) result
(** {!of_string} with no expectations — the [validate-checkpoint]
    subcommand's core. *)

val save : path:string -> t -> (int, error) result
(** Serialize and write atomically (temp file + rename, so a crash
    mid-save never destroys the previous valid checkpoint).  Returns
    the byte size written.  Bumps [checkpoint.saves]/[checkpoint.bytes]
    when the metric registry is enabled. *)

val load : ?expect_kind:string -> ?expect_seed:int -> path:string -> unit -> (t, error) result

val words_of_bytes : int -> int
(** Words the serialized state occupies ([bytes / 8], rounded up) — the
    figure [Mkc_core.Run]'s sampler accounts under the [checkpoint]
    breakdown key.  Raises [Invalid_argument] on a negative size. *)

type 's codec = {
  kind : string;
  seed : int;
  encode : 's -> string;
  restore : 's -> string -> (unit, string) result;
      (** Overlay a payload onto a freshly created sink of the same
          parameters and seed. *)
}
(** How a sink family plugs into checkpointing: a kind tag, the seed its
    hashes derive from, and payload encode/restore.  Core sinks expose
    one ({!Mkc_core.Estimate.codec}). *)
