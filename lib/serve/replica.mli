(** Peer replication of the write-ahead journal (DESIGN.md §14).

    Each fleet shard streams its journal appends to its ring peer's
    crash domain as self-checksummed NDJSON lines — {!Journal}'s
    crc-over-bytes-as-written discipline plus a shard tag (a replica
    file cannot be replayed into the wrong shard) and a strictly
    increasing sequence number (reordered or spliced files stop the
    replay; a reopened sender continues the stream).  Every append
    flushes, and lines are acknowledged only after write + fsync;
    un-acked entries are the replication lag surfaced in the [health]
    op.  Failed flushes (partitioned peer, full disk) keep the lines
    pending and every later append retries, so a healed partition
    drains the lag automatically. *)

(** Injected sender faults for the chaos harness (via {!set_fault}). *)
type fault =
  | Partition  (** the flush fails; the lines stay pending *)
  | Slow_ack of float  (** the flush sleeps this long before acking *)

type sender

val open_sender : path:string -> shard:int -> (sender, string) result
(** Open (or create) the replica file for [shard], truncating any torn
    tail back to the valid prefix, and continue sequence numbering
    after the last valid record. *)

val append : sender -> Journal.record -> unit
(** Queue one record and {!flush} (never fails, never blocks on a
    partition).  A failing flush leaves the lines pending — visible as
    lag. *)

val flush : sender -> (int, string) result
(** Write + fsync every pending record; the ack.  Returns how many
    records were acknowledged (0 when nothing was pending). *)

val lag : sender -> int * int
(** Replication lag as [(entries, bytes)] — appended but not yet
    acknowledged. *)

val acked : sender -> int
val failed_flushes : sender -> int

val set_fault : sender -> (nth:int -> fault option) option -> unit
(** Chaos hook, consulted once per flush attempt with a monotone
    attempt index. *)

val to_json : sender -> Qcx_persist.Json.t
(** Counters + lag, embedded in the shard's health payload; the
    [peak_lag_entries]/[peak_lag_bytes] high-water marks show how deep
    bursts ran, since the instantaneous lag is usually 0 by the time
    [health] samples it. *)

val close : sender -> unit
(** Close the file descriptor without flushing (kill -9 semantics are
    the caller's choice: call {!flush} first for a graceful close). *)

type replay = {
  records : (int * Journal.record) list;  (** (seq, record), valid prefix *)
  read : int;
  dropped : int;  (** lines abandoned after the first damaged one *)
  torn : bool;
  valid_bytes : int;  (** byte length of the valid prefix *)
}

val replay : path:string -> shard:int -> replay
(** Valid-prefix replay of a replica file: stops at the first line
    with a bad checksum, a wrong shard tag, or a non-increasing
    sequence number.  A missing file is an empty replay. *)

val line_of_record : shard:int -> seq:int -> Journal.record -> string
(** The encoded line: {!Journal.seal} over the journal record's fields
    behind an [op]/[shard]/[seq] header (exposed for tests). *)

val record_of_line : string -> (int * int * Journal.record, string) result
(** Parse + verify one line, returning (shard, seq, record). *)
