(** In-process fleet harness (DESIGN.md §14): N {!Shard}s behind a
    {!Router} over a direct function-call transport — the same
    replication, failover, and rebuild machinery as the multi-process
    deployment, minus the sockets, so the fleet bench and tests can
    exercise kill/rebuild semantics deterministically.

    {!kill} is a real crash: the shard's descriptors are closed
    without flushing, its snapshot and journal are deleted, and only
    the peer's replica of its append stream survives.  {!restart}
    marks the shard rebuilding on the router (off the ring), rebuilds
    its cache from the peer replica, then rejoins it with a fresh
    breaker. *)

type t

val create :
  ?service_config:Service.config ->
  ?router_config:Router.config ->
  ?clock:(unit -> float) ->
  ?fsync:bool ->
  ?replica_batch:int ->
  root:string ->
  nshards:int ->
  make_registry:(unit -> Registry.t) ->
  unit ->
  (t, string) result
(** Boot all [nshards] under [root].  Every shard gets its own
    registry from [make_registry] — identical epochs, so cache keys
    agree fleet-wide. *)

val nshards : t -> int
val router : t -> Router.t
val shard : t -> int -> Shard.t option
val alive : t -> int

val handle_lines : t -> string list -> string list * bool
(** Serve a batch through the router (the in-process equivalent of a
    client talking to the router socket). *)

val canonical_state : t -> shard:int -> (string, string) result
(** The shard's cache as a canonical string: its entries' snapshot
    lines sorted by cache key, so LRU recency (which is deliberately
    not replicated) cannot make equal contents compare unequal. *)

val canonical_of_cache : Cache.t -> string

val kill : t -> shard:int -> (string, string) result
(** Crash the shard (no flush, no checkpoint), delete its snapshot and
    journal, and return the canonical state its own files would have
    recovered to — the reference the peer rebuild must match. *)

val restart : t -> shard:int -> (Shard.boot, string) result
(** Rebuild the killed shard from its peer replica and rejoin it (off
    the ring while rebuilding, fresh router breaker after). *)

val close : t -> unit
