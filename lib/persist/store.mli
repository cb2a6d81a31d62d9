(** Persistence of characterization and calibration data.

    The operational loop the paper implies — characterize in the
    morning, let every compile job of the day consume the data —
    needs the data on disk, and needs it to survive the disk: a
    corrupt calibration file must never fail a compile or, worse, be
    silently ingested.  Formats are plain JSON wrapped in a versioned,
    checksummed envelope (format v2); see DESIGN.md §7.

    Every loader returns [Error _] on damaged or non-physical input —
    never an exception — and validates values at parse time: rates
    must be finite and in [0, 1], durations and coherence times finite
    and positive, edges (optionally) members of the coupling map. *)

val crosstalk_to_json : Qcx_device.Crosstalk.t -> Json.t
(** Ordered (target, spectator, rate) entries. *)

val crosstalk_of_json :
  ?topology:Qcx_device.Topology.t -> Json.t -> (Qcx_device.Crosstalk.t, string) result
(** Rejects non-finite or out-of-range rates and, when [topology] is
    given, entries whose edges are not coupling-map edges. *)

val calibration_to_json : Qcx_device.Calibration.t -> edges:Qcx_device.Topology.edge list -> Json.t
(** Snapshot of per-qubit and per-edge calibration values. *)

val calibration_of_json : Json.t -> (Qcx_device.Calibration.t, string) result
(** Validates every value (finite, in range, positive durations). *)

val device_snapshot_to_json : Qcx_device.Device.t -> Json.t
(** Full compiler-visible device state: name, coupling map,
    calibration, and (optionally present) characterized crosstalk is
    stored separately — the hidden ground truth is deliberately NOT
    serialized. *)

val device_snapshot_of_json :
  Json.t -> (string * Qcx_device.Topology.t * Qcx_device.Calibration.t, string) result

val write_atomic : path:string -> (out_channel -> unit) -> (unit, string) result
(** Atomic AND durable file write: the writer fills [path ^ ".tmp"],
    which is fsync'd, renamed into place, and then the parent
    directory is fsync'd so an OS crash cannot lose the rename itself.
    A crashed writer can never leave a truncated file at [path].
    Every rename-commit in the system (store documents, cache
    snapshots, the calibrator's ring-pointer promotion) routes through
    here. *)

val save : path:string -> Json.t -> (unit, string) result
(** Wraps the document in the v2 envelope — a [format] version tag and
    an MD5 checksum of the canonical payload serialization — and
    writes it with {!write_atomic}. *)

val fsync_dir : string -> unit
(** Fsync a directory's metadata (best effort; errors are swallowed) —
    the other half of a durable rename.  {!write_atomic} calls it on
    the parent directory after every rename. *)

val load : path:string -> (Json.t, string) result
(** Unwraps and verifies the envelope, returning the payload.  A
    checksum mismatch, a truncated file, or an unsupported envelope
    version is an [Error].  Bare legacy (pre-envelope) documents are
    passed through; their per-type [format] field is still checked by
    the typed loaders. *)

val save_crosstalk : path:string -> Qcx_device.Crosstalk.t -> (unit, string) result

val load_crosstalk :
  ?topology:Qcx_device.Topology.t ->
  path:string ->
  unit ->
  (Qcx_device.Crosstalk.t, string) result

val quarantine : path:string -> (string, string) result
(** Rename a corrupt file out of the way — [path] becomes
    [path ^ ".corrupt"] (numbered suffixes if that exists) — so the
    next load never trips over it again.  Returns the new name. *)

type load_report = {
  data : Qcx_device.Crosstalk.t option;  (** first snapshot that loaded clean *)
  source : string option;  (** the path it came from *)
  quarantined : (string * string) list;  (** (path, reason) for every corrupt file *)
}

val load_crosstalk_resilient :
  ?topology:Qcx_device.Topology.t -> paths:string list -> unit -> load_report
(** Walk [paths] (newest snapshot first), quarantining every corrupt
    file encountered, and return the first one that loads and
    validates — the "last good snapshot" fallback of the operational
    loop.  Missing files are skipped silently; [data = None] means no
    usable snapshot exists. *)
