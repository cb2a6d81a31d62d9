(** Bounded, content-addressed schedule cache (LRU eviction).

    Keys are hex digests produced by the service from the canonical
    circuit form × device epoch × scheduler params (see
    {!Service.cache_key}); values are the compiled schedule and its
    solver stats.  The cache holds the schedules themselves, so a hit
    serves the exact value a cold compile produced — bit-identical by
    construction.

    Hit/miss/eviction counters are monotonic over the cache lifetime.
    Persistence lives a layer up: with a journal attached, each entry
    carries the self-checksummed {!Journal} line it was written as,
    and a checkpoint writes those lines back out ({!lines_oldest_first})
    instead of re-serializing the cache. *)

type entry = {
  schedule : Qcx_circuit.Schedule.t;
  stats : Qcx_scheduler.Xtalk_sched.stats;
  epoch : string;
      (** calibration epoch the schedule was compiled against; [""]
          for entries persisted before epochs were recorded (these are
          never purged as stale, only LRU-evicted) *)
}

type t

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  purged : int;  (** entries dropped by {!purge} (retired epochs) *)
  size : int;
  capacity : int;
}

val create : capacity:int -> t
(** [capacity] must be positive. *)

val find : t -> string -> entry option
(** Bumps the entry to most-recently-used and counts a hit; absence
    counts a miss. *)

val mem : t -> string -> bool
(** Presence test with no recency bump and no counter update. *)

val add : ?line:string -> t -> string -> entry -> unit
(** Insert (or overwrite) and mark most-recently-used, evicting the
    least-recently-used entries beyond capacity.  [line] is the entry's
    snapshot bytes — its journal line — retained for
    {!lines_oldest_first}; an overwrite without one drops the old
    bytes. *)

val purge : t -> drop:(string -> entry -> bool) -> int
(** Remove every entry for which [drop key entry] holds, without
    touching hit/miss/eviction counters (the [purged] counter
    accumulates instead).  Returns how many entries were removed.
    The service uses this to drop entries keyed on retired epochs
    after a bump/promotion — they can never hit (the epoch is hashed
    into the key) but would squat eviction slots. *)

val counters : t -> counters

val keys_newest_first : t -> string list
(** Recency order, most recent first — exposed for eviction tests. *)

val lines_oldest_first : t -> render:(string -> entry -> string) -> string list
(** The snapshot: every live entry's retained line, least recent
    first, so replaying them through {!add} reproduces recency.
    Entries added without a line are rendered with [render key entry]
    (nothing is retained). *)

val entry_fields : entry -> (string * Qcx_persist.Json.t) list
(** The [epoch], [stats] and [schedule] fields an entry contributes to
    its journal line, in emission order. *)

val entry_to_json : entry -> Qcx_persist.Json.t
(** [Object (entry_fields entry)]. *)

val entry_of_json : Qcx_persist.Json.t -> (entry, string) result
(** Accepts any object carrying [stats] and [schedule] fields (extra
    fields are ignored, so journal records parse too). *)
