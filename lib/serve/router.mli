(** Fleet front door (DESIGN.md §14): routes compile requests to
    shards over a consistent-hash {!Ring}, fails over around dead
    shards with typed, bounded retry, and aggregates fan-out ops.

    Failover per shard: [Live] (breaker closed) → [Degraded] (a
    connect/ack failure trips the threshold-1 breaker; requests
    short-circuit to the key's ring successor until a cooloff probe
    succeeds) → back to [Live].  A shard marked rebuilding (via
    {!set_rebuilding}, while it replays its peer replica) is taken off
    the ring entirely so a warming cache never serves.

    Forwarding is pipelined (DESIGN.md §15): each compile is retagged
    with a router-unique id, per-owner groups are cut into bounded
    chunks, and every chunk of a batch goes out through one
    {!transport} call — multiple chunks in flight per shard connection, so a
    straggling shard no longer gates the others.  Responses come back
    by id and are retagged to the client id byte-exactly.  Per
    request, a routed compile gets the primary attempt on its owner
    plus at most one hedged retry on its ring successor, behind a
    jittered backoff (20 ms base) bounded by the request deadline (or a
    5 s budget); exhaustion answers the typed [unavailable], never a
    hang.  The aggregated [health]/[stats] ops probe every shard
    concurrently and feed the outcomes into the breakers — monitoring
    doubles as the active health check that closes breakers of
    recovered shards, and one dead shard's timeout is paid once, not
    once per shard. *)

type transport = (int * string list) list -> (string list, string) result list
(** One pipelined call: dispatch several [(shard, lines)] chunks at
    once — possibly multiple per shard — and return one outcome per
    chunk, positionally.  An outcome is one response line per request
    line, or [Error], which counts as a shard failure.  A transport
    should overlap the chunks (the router's correctness does not
    depend on it, only its latency).  A short [Ok] is permitted: the
    router salvages the responses present by id and fails over the
    rest.  Every router op goes through it: routed compiles, the
    [health]/[stats] probes, broadcasts, and the one-shard
    [devices]/[epoch_status] queries (one chunk per call). *)

type t

val create :
  ?clock:(unit -> float) ->
  ?width:(string -> int option) ->
  nshards:int ->
  transport:transport ->
  unit ->
  t
(** [width device] is the device's qubit count, used to canonicalize
    circuits for the routing key (unknown devices still route, just
    without width normalization).  The ring has 64 vnodes per shard;
    every shard's breaker trips on one failure and re-probes after a
    0.5 s cooloff of [clock]. *)

val set_rebuilding : t -> int -> bool -> unit
(** While true the shard is off the ring (not routable). *)

val reset_breaker : t -> int -> unit
(** Fresh closed breaker — call when a rebuilt shard rejoins. *)

val handle_frames : ?max_frame:int -> t -> Server.frame list -> string list * bool
(** The router's batch handler — same contract as
    {!Server.handle_frames} (one response line per non-blank frame,
    flag true on shutdown), pluggable into {!Server.serve_socket_with}. *)

val handle_lines : ?max_frame:int -> t -> string list -> string list * bool

val set_serving : t -> (unit -> Qcx_persist.Json.t) option -> unit
(** Reactor observability hook: when set, the payload is embedded as
    the [serving] field of the router section of aggregated
    [health]/[stats] responses.  [qcx_serve --router] registers the
    {!Server} reactor metrics here. *)

val socket_transport : ?timeout:float -> socket_for:(int -> string) -> unit -> transport
(** Unix-domain transport: one lazily-(re)connected persistent
    connection per shard at [socket_for shard], driven non-blocking
    through one select loop per call — chunks for distinct shards
    proceed concurrently, chunks for the same shard pipeline with at
    most 4 outstanding on the wire.
    Missing socket / refused connect fails fast; an exchange exceeding
    [timeout] (default 10 s) fails that shard's unresolved chunks.
    Every error closes the shard's connection so the next attempt
    starts clean. *)
