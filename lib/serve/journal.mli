(** Write-ahead journal for cache mutations, and the format of the
    cache snapshot (DESIGN.md §9).

    Every cache insertion is first appended here — one
    self-checksummed NDJSON line, fsync'd — so a [kill -9] at any byte
    offset loses at most the record being written, never the cache.
    A checkpoint writes the live entries' lines, least recent first,
    to the snapshot file and truncates the journal: snapshot and
    journal are the same format, read by the same valid-prefix reader
    ({!replay}/{!restore}), which stops at the first damaged line (a
    torn tail or any bit flip fails that line's crc).

    Line format:
    [{"op": "add", "key": ..., "epoch": ..., "stats": ..., "schedule": ..., "crc": md5}]
    where [crc] is the hex md5 of the line's own compact serialization
    without the crc field ({!seal}).

    The writer deliberately never raises: a full disk (or the injected
    chaos equivalent) degrades the journal to an [Error] the service
    records and keeps serving through — durability narrows to the
    periodic checkpoint, availability is untouched. *)

type record = { key : string; entry : Cache.entry }

(* ---- sealed lines (shared with {!Replica}) ---- *)

val seal : (string * Qcx_persist.Json.t) list -> string
(** Render a non-empty object's fields compactly and append a [crc]
    field over the rendered bytes, in one serialization pass. *)

val unseal : string -> (Qcx_persist.Json.t, string) result
(** Parse a sealed line and verify its crc against the bytes as
    written; any damage is an [Error]. *)

val line_of_record : record -> string
(** One NDJSON line, no trailing newline. *)

val record_of_line : string -> (record, string) result
(** {!unseal} + decode; any damage is an [Error]. *)

(* ---- valid-prefix reader ---- *)

type 'a prefix = {
  items : 'a list;  (** parsed lines of the valid prefix, in file order *)
  dropped : int;  (** non-empty lines abandoned after the first bad one *)
  torn : bool;  (** reading stopped early at a damaged line *)
  valid_bytes : int;  (** byte length of the valid prefix (with newlines) *)
}

val read_prefix : path:string -> (string -> ('a, string) result) -> 'a prefix
(** Parse [path] line by line until the first line [parse] rejects.
    Never raises; a missing or unreadable file is an empty prefix. *)

type replay = {
  records : record list;  (** the valid prefix, in append order *)
  read : int;  (** lines successfully replayed *)
  dropped : int;  (** non-empty lines abandoned after the first bad one *)
  torn : bool;  (** replay stopped early at a damaged line *)
}

val replay : path:string -> replay
(** The valid prefix of a journal or snapshot file.  After a torn
    journal replay the caller must checkpoint (snapshot + {!reset})
    before appending again, or new records would be glued onto the
    damaged tail and lost to the next replay. *)

val restore : Cache.t -> path:string -> replay
(** {!replay} into the cache, oldest first, each entry keeping the line
    it was read from as its snapshot bytes. *)

(* ---- writer ---- *)

type t

val open_append : path:string -> ?fsync:bool -> unit -> (t, string) result
(** Opens (creating if needed) for append.  [fsync] (default true)
    syncs after every record; tests switch it off for speed. *)

val append : t -> record -> (unit, string) result
(** Write one record durably.  Total: I/O failure (or an injected
    fault) is an [Error] and counts in {!failed_appends}. *)

val append_line : t -> string -> (unit, string) result
(** {!append} of an already-rendered {!line_of_record}. *)

val reset : t -> (unit, string) result
(** Truncate to zero length — called right after a checkpoint makes
    the journaled records redundant. *)

val close : t -> unit

val path : t -> string
val appends : t -> int
val failed_appends : t -> int

val set_fault : t -> (nth:int -> bool) option -> unit
(** Chaos hook: when the callback returns true for the [nth] append
    (counting every attempt since open), that append fails like a full
    disk instead of writing. *)
