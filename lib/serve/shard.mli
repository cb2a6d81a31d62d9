(** One member of the replicated serve fleet (DESIGN.md §14): a
    {!Service} owning its snapshot + write-ahead journal under
    [root/shard-<k>/], streaming every cache insertion through a
    {!Replica} sender into its ring peer's directory
    ([root/shard-<peer>/replica-of-<k>.ndjson] — the peer's crash
    domain, so losing this shard's disk never loses its history).

    Boot: recover from own snapshot + journal; if that yields nothing
    and a peer replica of this shard exists, rebuild the cache from it
    (full append history replayed through the same LRU — the state a
    journal replay would have produced) and checkpoint; then open the
    replica sender (sequence numbers continue) and install the
    insertion tee, so recovered entries are not re-replicated. *)

type boot = {
  snapshot_entries : int;
  snapshot_dropped : int;  (** snapshot lines abandoned after a damaged one *)
  journal_entries : int;
  journal_dropped : int;
  torn_journal : bool;
  rebuilt_from_replica : int;  (** records replayed from the peer replica *)
  torn_replica : bool;  (** the replica had a torn tail (valid prefix used) *)
}

type t

val create :
  ?config:Service.config ->
  ?clock:(unit -> float) ->
  ?fsync:bool ->
  ?replica_batch:int ->
  root:string ->
  index:int ->
  nshards:int ->
  make_registry:(unit -> Registry.t) ->
  unit ->
  (t, string) result
(** Create shard [index] of [nshards] under [root] (directories are
    made as needed).  [make_registry] builds a fresh device registry —
    every shard derives identical epochs from it, so cache keys agree
    across the fleet.  [replica_batch] 1 (default) is synchronous
    replication: every insert is flushed + fsync'd to the peer before
    the response leaves. *)

val index : t -> int
val nshards : t -> int
val service : t -> Service.t
val replica : t -> Replica.sender
val boot : t -> boot

val dir : t -> string
val own_cache_file : t -> string
val own_replica_path : t -> string
(** Where this shard's history lives in the PEER's directory — the
    file {!create} rebuilds from after a total local loss. *)

val peer : nshards:int -> int -> int
(** Ring successor [(k + 1) mod nshards] — the replication target. *)

val shard_dir : root:string -> int -> string
val cache_file : root:string -> int -> string
val replica_path : root:string -> nshards:int -> int -> string

val close : t -> unit
(** Graceful: flush the replica, checkpoint, close both files. *)

val abandon : t -> unit
(** kill -9 semantics: close the file descriptors without flushing or
    checkpointing — pending replica entries and the un-checkpointed
    journal tail are lost, exactly as if the process died. *)
