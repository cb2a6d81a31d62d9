(** The in-process compilation service: registry + schedule cache +
    admission-controlled worker dispatch, hardened for continuous
    operation (DESIGN.md §8–9).

    This layer is transport-free — the socket server, the [--once]
    test mode, the load bench, and [qcx_schedule --cache-dir] all
    drive it directly.  A compile request resolves its device in the
    {!Registry}, canonicalizes the circuit ({!Canon}), derives the
    content-addressed cache key, and either serves the cached schedule
    or compiles cold through {!Qcx_scheduler.Xtalk_sched.schedule}
    (per-request deadline and ladder rung feed the degradation
    ladder — a compile request never fails once admitted).

    {!handle_batch} is the concurrent path: cache lookups run
    sequentially on the calling domain (so hit/miss accounting and
    recency are deterministic), distinct missing keys are compiled in
    parallel on a {!Qcx_util.Pool} worker set, and results are
    inserted back in request order — responses are bit-identical for
    every [jobs] value.  Requests beyond [queue_bound] are rejected
    with a typed [overloaded] response instead of queueing without
    bound.

    Robustness machinery on top of that (all typed, never raising):
    per-device circuit {!Breaker}s reject work on devices whose
    compiles keep failing or degrading; compiles that blow far past
    their deadline ([deadline × deadline_grace]) answer
    [deadline_exceeded]; a compile slot that dies answers
    [internal_error] for its requests while the rest of the batch
    proceeds; and every cache insertion is journaled ahead of the
    periodic snapshot so a [kill -9] recovers via {!recover}. *)

type config = {
  jobs : int;  (** worker domains for batch compiles (1 = sequential) *)
  queue_bound : int;  (** admission limit per batch; excess is rejected *)
  cache_capacity : int;  (** LRU capacity of the schedule cache *)
  max_compile_seconds : float option;
      (** service-wide cap on any one compile's solver deadline *)
  deadline_grace : float;
      (** a compile is only answered [deadline_exceeded] when its
          wall-clock elapsed exceeds [deadline × grace]; within the
          grace the ladder-degraded schedule is served normally *)
  breaker : Breaker.config;  (** per-device circuit-breaker tuning *)
  checkpoint_every : int;  (** journal appends between cache snapshots *)
}

val default_config : config
(** jobs 1, queue_bound 64, cache_capacity 256, max_compile 30 s,
    grace 4×, default breaker, checkpoint every 256 appends. *)

type t

(** Deterministic compile-phase faults for the chaos harness,
    injected via {!set_compile_fault}. *)
type compile_fault =
  | Fail_compile of string  (** the slot dies with this message *)
  | Stall_compile of float  (** the slot hangs this many seconds first *)

type outcome = {
  device : string;  (** registry id *)
  epoch : string;  (** device epoch the schedule was keyed under *)
  key : string;  (** content-addressed cache key *)
  cached : bool;  (** served from the cache without compiling *)
  schedule : Qcx_circuit.Schedule.t;
  stats : Qcx_scheduler.Xtalk_sched.stats;
}

val create : ?config:config -> ?clock:(unit -> float) -> Registry.t -> t
(** [clock] (default [Unix.gettimeofday]) drives deadlines and breaker
    cooloffs — tests inject a fake one. *)

val registry : t -> Registry.t
val cache : t -> Cache.t
val config : t -> config

val cache_key :
  device_id:string -> epoch:string -> params:Wire.params -> Qcx_circuit.Circuit.t -> string
(** Digest over canonical-circuit × device × epoch × scheduler
    params.  The circuit must already be canonical ({!Canon.normalize}). *)

val compile :
  t ->
  device:string ->
  ?params:Wire.params ->
  Qcx_circuit.Circuit.t ->
  (outcome, string) result
(** Synchronous single compile (cache-aware, journaled, no breaker).
    [Error _] only for unknown devices or circuits that do not fit the
    device. *)

val handle : t -> Wire.request -> Qcx_persist.Json.t
(** Serve one request, producing the wire response. *)

val handle_batch : t -> Wire.request list -> Qcx_persist.Json.t list
(** Serve a pipelined batch: admission control, breaker checks,
    Pool-parallel cold compiles of distinct keys, responses in request
    order.  Total: every fault class maps to a typed response. *)

val handle_batch_rendered : t -> Wire.request list -> string list
(** {!handle_batch} rendered straight to compact wire lines.  Cache
    hits take a fast path — the response tail after the [id] field is
    pre-rendered once per cache key and spliced per request — but the
    bytes are identical to rendering {!handle_batch}'s documents with
    [Json.to_string ~indent:false] (pinned by the unit tests).  The
    socket reactor serves through this. *)

val stats_json : t -> Qcx_persist.Json.t
(** The payload of the [stats] op: cache counters, registry listing,
    served/overloaded/error tallies, the degradation-rung histogram,
    per-op-class service-latency percentiles (p50/p99/p999 over a
    bounded reservoir of recent requests: [cached] hits, [cold]
    compiles, [other] ops), breaker states, journal counters, and —
    when a socket reactor is attached — its [serving] counters. *)

val health_json : t -> Qcx_persist.Json.t
(** The payload of the [health] op: readiness (drain flag), panic
    count, breaker states, journal state, and a per-device section —
    epoch, rollback-ring digests, staleness (days since the promoted
    epoch on the service's logical clock), quarantine tally, and the
    latest refresh/calibration warning (previously stderr-only). *)

(* ---- operational state ---- *)

val breaker_for : t -> string -> Breaker.t
(** The device's breaker, created closed on first use. *)

val set_draining : t -> bool -> unit
(** Flips readiness in {!health_json}; the transport layer stops
    accepting when its stop callback fires, this just reports it. *)

val draining : t -> bool

val note_panic : t -> unit
(** Called by the server's crash-recovery wrapper when a connection
    handler dies; surfaces in stats/health. *)

val panics : t -> int

val set_compile_fault : t -> (nth:int -> compile_fault option) option -> unit
(** Chaos hook: consulted once per cold-compile attempt with a
    monotone attempt index ([nth]), independent of [jobs]. *)

val set_on_insert : t -> (string -> Cache.entry -> unit) option -> unit
(** Tee called on every cache insertion (before the journal append) —
    the fleet {!Shard} hangs its {!Replica} sender here so the peer
    sees the same append stream the local journal sees.  The hook must
    never raise. *)

val set_extra_health : t -> (unit -> (string * Qcx_persist.Json.t) list) option -> unit
(** Extra fields appended to the {!health_json} payload — fleet shards
    report their shard index, peer, and replication lag through it. *)

val set_serving : t -> (unit -> Qcx_persist.Json.t) option -> unit
(** Reactor observability hook: when set, the payload is embedded as
    the [serving] field of both {!stats_json} and {!health_json}.
    {!Server.serve_socket} registers its metrics here. *)

(* ---- calibration data plane ---- *)

val set_calibrator : t -> Calibrator.t option -> unit
(** Attach the calibration data plane; the [calibrate] and [rollback]
    wire ops answer [calibration_disabled] without one ([rollback]
    still works registry-only). *)

val calibrator : t -> Calibrator.t option

val day : t -> int
(** The service's logical calibration day — the high-water mark of the
    [day] fields seen on [calibrate] requests.  Staleness in
    {!health_json} is measured against it. *)

val purge_stale : t -> int
(** Drop every cache entry keyed under an epoch no registry entry is
    currently serving (entries with an unknown epoch — restored from a
    pre-epoch snapshot — are kept).  Runs automatically after an epoch
    changes via the [bump], [calibrate], or [rollback] ops; returns
    the number of entries dropped (also counted in the cache's
    [purged] stat). *)

(* ---- persistence: snapshot + write-ahead journal ---- *)

val enable_persistence : t -> cache_file:string -> ?fsync:bool -> unit -> (unit, string) result
(** Open the write-ahead journal at [cache_file ^ ".journal"]; from
    here on every cache insertion is journaled (its line retained as
    the entry's snapshot bytes), and every [checkpoint_every] appends
    the snapshot is rewritten and the journal truncated. *)

val persistence_journal : t -> Journal.t option
(** The live journal (chaos tests attach fault hooks to it). *)

val checkpoint : t -> (unit, string) result
(** Write the snapshot and truncate the journal.  The snapshot is the
    journal's own format: each live entry's {!Journal} line, least
    recent first, written to [cache_file ^ ".tmp"], fsync'd, renamed
    over [cache_file] (parent directory fsync'd).  A failure leaves
    the previous snapshot and the journal intact, counts in the
    [checkpoint_failures] field of the stats' [journal] block, and —
    like a success — restarts the [checkpoint_every] period.  A no-op
    [Ok] when persistence is off. *)

type recovery = {
  snapshot_entries : int;  (** lines restored from the snapshot's valid prefix *)
  snapshot_dropped : int;  (** snapshot lines abandoned after a damaged one *)
  snapshot_torn : bool;  (** the snapshot had a damaged line *)
  journal_entries : int;  (** replayed from the journal's valid prefix *)
  journal_dropped : int;  (** lines abandoned after a torn/damaged one *)
  torn : bool;  (** the journal had a torn tail *)
}

val recover : t -> cache_file:string -> ?fsync:bool -> unit -> (recovery, string) result
(** Crash-consistent warm start: restore the snapshot's longest valid
    prefix (a missing file is empty; a damaged line ends the prefix
    and is reported in [snapshot_dropped]), replay the journal's valid
    prefix on top with the same reader, enable persistence, and
    checkpoint immediately — compacting the replay and truncating any
    torn tail so it cannot poison later appends.  A whole-document
    snapshot written by older builds ([qcx-schedule-cache-v1]) reads
    as damaged at its first line: its entries are dropped and
    recompiled on demand. *)
