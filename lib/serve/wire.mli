(** Wire format of the compilation service (DESIGN.md §8).

    Newline-delimited JSON: one request object per line in, one
    response object per line out.  This module is the pure codec layer
    — circuits, schedules, scheduler stats, and the typed request
    grammar — shared by the socket server, the [--once] test mode, the
    load-generator bench, and the warm-start cache persistence.

    Gates are [{"g": "cx", "q": [0, 1]}] with an optional ["p"]
    parameter array for rotations; circuits are
    [{"nqubits": n, "gates": [...]}]; schedules add per-gate
    ["starts"] and ["durations"] arrays (nanoseconds, aligned with the
    gate list).  Floats are emitted losslessly, so a schedule
    round-trips bit-identically. *)

module Circuit = Qcx_circuit.Circuit
module Schedule = Qcx_circuit.Schedule
module Xtalk_sched = Qcx_scheduler.Xtalk_sched
module Dd = Qcx_mitigation.Dd
module Json = Qcx_persist.Json

val circuit_to_json : Circuit.t -> Json.t

val circuit_of_json : Json.t -> (Circuit.t, string) result
(** Validates arity, qubit ranges, and gate names — never raises. *)

val schedule_to_json : Schedule.t -> Json.t

val schedule_of_json : Json.t -> (Schedule.t, string) result

val rung_of_name : string -> (Xtalk_sched.rung, string) result
(** Inverse of {!Xtalk_sched.rung_name}. *)

val stats_to_json : Xtalk_sched.stats -> Json.t

val stats_of_json : Json.t -> (Xtalk_sched.stats, string) result

(** Scheduler knobs carried by a compile request.  All of them are
    part of the cache key — two requests with different knobs never
    share an entry. *)
type params = {
  omega : float;  (** crosstalk weight factor (eq. 17) *)
  threshold : float;  (** conditional/independent ratio cutoff *)
  deadline : float option;  (** per-request wall-clock compile budget *)
  ladder_start : Xtalk_sched.rung;  (** degradation-ladder entry rung *)
  window : int option;
      (** Windowed-rung window size in gates; [None] uses the
          scheduler default (and reads "auto" in the cache key) *)
  mitigation : Dd.sequence option;
      (** post-scheduling dynamical-decoupling padding; [None] (the
          wire name "none", and the value every pre-knob client gets)
          leaves the schedule untouched and keeps the cache key
          byte-identical to the pre-knob format *)
}

val default_params : params
(** omega 0.5, threshold 3.0, no deadline, ladder from [Exact],
    default windowing, no mitigation. *)

val mitigation_name : Dd.sequence option -> string
(** "none" | "dd-xy4" | "dd-x2" | "dd-cpmg". *)

val mitigation_of_name : string -> (Dd.sequence option, string) result
(** Inverse of {!mitigation_name}; also accepts "dd" for "dd-xy4". *)

type request =
  | Compile of { id : string; device : string; circuit : Circuit.t; params : params }
  | Stats of { id : string }  (** cache / registry / service counters *)
  | Devices of { id : string }  (** registry listing with epochs *)
  | Bump of { id : string; device : string }
      (** re-load the device's crosstalk snapshots and bump its epoch *)
  | Calibrate of {
      id : string;
      device : string;
      day : int option;  (** logical campaign day; [None] = service clock *)
      force : bool;  (** run the cycle even when no drift is detected *)
      full : bool;  (** full re-characterization instead of Opt-3 incremental *)
      poison : bool;
          (** chaos tooling: inject a deterministic truncated merge so
              the canary gate must reject the candidate (the ci.sh
              poisoned-epoch drill) *)
    }  (** run one calibration cycle through {!Calibrator.calibrate} *)
  | Epoch_status of { id : string; device : string option }
      (** per-device epoch, rollback ring, staleness and warnings
          ([device = None] reports the whole fleet) *)
  | Rollback of { id : string; device : string }
      (** restore the newest retired epoch from the rollback ring *)
  | Ping of { id : string }
  | Health of { id : string }
      (** readiness, breaker and journal state (DESIGN.md §9) *)
  | Shutdown of { id : string }

val request_id : request -> string

val request_of_json : Json.t -> (request, string) result

val request_to_json : request -> Json.t
(** For clients (the bench and the CLI round-trip example). *)

val error_response : id:string option -> string -> Json.t
(** [{"id": ..., "status": "error", "error": msg}]. *)

val invalid_request_response : Json.t -> string -> Json.t
(** The {!error_response} for a parsed line that {!request_of_json}
    rejected with [msg]: it echoes the line's [id] when that is a JSON
    string, otherwise [null], so a pipelining client can tell which
    request failed. *)

val overloaded_response : id:string option -> Json.t
(** The typed admission-control rejection:
    [{"id": ..., "status": "overloaded", "error": ...}]. *)

val typed_error :
  ?extra:(string * Json.t) list -> id:string option -> status:string -> string -> Json.t
(** Generic typed failure:
    [{"id": ..., "status": status, "error": msg, ...extra}].  Every
    fault class the service can hit maps onto one of these statuses so
    clients always get a parseable answer, never a dropped connection. *)

val deadline_exceeded_response : id:string option -> deadline:float -> elapsed:float -> Json.t
(** A compile blew far past its per-request deadline (status
    ["deadline_exceeded"], carries both the budget and the measured
    elapsed seconds). *)

val breaker_open_response : id:string option -> device:string -> retry_after:float -> Json.t
(** The device's circuit breaker is open (status ["breaker_open"],
    carries the cooloff remaining in [retry_after]). *)

val frame_too_large_response : id:string option -> limit:int -> Json.t
(** The input line exceeded the frame bound (status
    ["frame_too_large"]).  [id] is [None]: an oversized frame is
    discarded before it can be parsed. *)

val internal_error_response : id:string option -> string -> Json.t
(** Last-resort typed wrapper for handler panics (status
    ["internal_error"]). *)

val unavailable_response : id:string option -> attempts:int -> Json.t
(** The fleet router exhausted its failover attempts — no live shard
    could serve the request (status ["unavailable"], carries how many
    shards were tried). *)

val line_id : string -> string option
(** The [id] field of a wire line, when it parses to an object with a
    string id — the router's demux key for pipelined forwarding. *)

val with_id : Json.t -> id:string -> Json.t
(** Replace the document's [id] field in place (field order is
    preserved; an absent id is prepended). *)

val retag_line : string -> id:string -> string
(** Re-render [line] with its [id] replaced — total: a line that does
    not parse is returned unchanged.  Retagging out to a fresh id and
    back to the original is byte-exact, because the compact printer is
    an identity on its own output. *)

val default_max_frame : int
(** Default input frame bound, 1 MiB. *)
