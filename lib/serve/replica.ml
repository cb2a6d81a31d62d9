module Json = Qcx_persist.Json

let ( let* ) = Result.bind

(* Peer replication of the write-ahead journal (DESIGN.md §14).

   A shard streams every cache insertion to its ring peer's crash
   domain as self-checksummed NDJSON lines — the same
   crc-over-bytes-as-written discipline as {!Journal}, plus a shard
   tag (so a replica file can never be replayed into the wrong shard)
   and a strictly increasing sequence number (so reordering or
   splicing is detected, and a reopened sender continues the stream
   where it left off).

   The sender buffers appends and acknowledges a batch only once the
   bytes are written AND fsync'd to the replica file; everything not
   yet acknowledged is the replication lag surfaced in [health].  A
   failed flush (injected partition, full disk) keeps the batch
   pending — the next append retries, so a healed partition drains
   the lag automatically. *)

type fault = Partition | Slow_ack of float

(* ---- line codec ---- *)

let line_of_record ~shard ~seq (r : Journal.record) =
  Journal.seal
    (("op", Json.String "rep")
    :: ("shard", Json.Number (float_of_int shard))
    :: ("seq", Json.Number (float_of_int seq))
    :: ("key", Json.String r.Journal.key)
    :: Cache.entry_fields r.Journal.entry)

let record_of_line line =
  let* doc = Journal.unseal line in
  let* op = Json.find_str "op" doc in
  if op <> "rep" then Error ("unknown replica op " ^ op)
  else
    let int_field name =
      match Json.member name doc with Some v -> Json.to_int v | None -> Error ("missing " ^ name)
    in
    let* shard = int_field "shard" in
    let* seq = int_field "seq" in
    let* key = Json.find_str "key" doc in
    let* entry = Cache.entry_of_json doc in
    Ok (shard, seq, { Journal.key; entry })

(* ---- replay ---- *)

type replay = {
  records : (int * Journal.record) list;  (* (seq, record), valid prefix *)
  read : int;
  dropped : int;
  torn : bool;
  valid_bytes : int;  (* byte length of the valid prefix (incl. newlines) *)
}

let replay ~path ~shard =
  (* Valid-prefix semantics, like the journal, with two extra checks:
     the shard tag must match and sequence numbers must be strictly
     increasing — a spliced or reordered file stops the replay at the
     first inconsistent line. *)
  let last_seq = ref (-1) in
  let p =
    Journal.read_prefix ~path (fun line ->
        let* s, seq, r = record_of_line line in
        if s <> shard then Error "replica shard tag mismatch"
        else if seq <= !last_seq then Error "replica sequence regressed"
        else begin
          last_seq := seq;
          Ok (seq, r)
        end)
  in
  let records = p.Journal.items in
  {
    records;
    read = List.length records;
    dropped = p.Journal.dropped;
    torn = p.Journal.torn;
    valid_bytes = p.Journal.valid_bytes;
  }

(* ---- sender ---- *)

type sender = {
  path : string;
  shard : int;
  fsync : bool;
  batch : int;
  mutable fd : Unix.file_descr option;
  mutable next_seq : int;
  mutable pending : string list;  (* encoded lines, newest first *)
  mutable pending_bytes : int;
  mutable appended : int;
  mutable acked : int;
  mutable acked_bytes : int;
  mutable flushes : int;
  mutable failed_flushes : int;
  mutable peak_lag_entries : int;  (* high-water marks of the pending lag — under *)
  mutable peak_lag_bytes : int;  (* pipelined load, instantaneous lag hides bursts *)
  mutable fault : (nth:int -> fault option) option;
}

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let open_sender ~path ~shard ?(fsync = true) ?(batch = 1) () =
  if batch <= 0 then invalid_arg "Replica.open_sender: batch must be positive";
  let rep = replay ~path ~shard in
  try
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
    (* A torn tail (the previous sender died mid-write) must be cut
       before appending, or the new stream lands after poison and the
       whole suffix is lost to valid-prefix replay. *)
    Unix.ftruncate fd rep.valid_bytes;
    ignore (Unix.lseek fd rep.valid_bytes Unix.SEEK_SET);
    let next_seq =
      match List.rev rep.records with (seq, _) :: _ -> seq + 1 | [] -> 0
    in
    Ok
      {
        path;
        shard;
        fsync;
        batch;
        fd = Some fd;
        next_seq;
        pending = [];
        pending_bytes = 0;
        appended = 0;
        acked = 0;
        acked_bytes = 0;
        flushes = 0;
        failed_flushes = 0;
        peak_lag_entries = 0;
        peak_lag_bytes = 0;
        fault = None;
      }
  with Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "cannot open replica %s: %s" path (Unix.error_message err))

let path s = s.path
let lag s = (List.length s.pending, s.pending_bytes)
let peak_lag s = (s.peak_lag_entries, s.peak_lag_bytes)
let appended s = s.appended
let acked s = s.acked
let failed_flushes s = s.failed_flushes
let set_fault s fault = s.fault <- fault

let flush s =
  match s.pending with
  | [] -> Ok 0
  | _ -> (
    let nth = s.flushes in
    s.flushes <- s.flushes + 1;
    let fault = match s.fault with Some f -> f ~nth | None -> None in
    match fault with
    | Some Partition ->
      s.failed_flushes <- s.failed_flushes + 1;
      Error "replica peer unreachable (injected partition)"
    | fault -> (
      (match fault with
      | Some (Slow_ack d) -> if d > 0.0 then Unix.sleepf d
      | _ -> ());
      match s.fd with
      | None -> Error "replica sender is closed"
      | Some fd -> (
        try
          List.iter
            (fun line -> write_all fd (Bytes.of_string (line ^ "\n")))
            (List.rev s.pending);
          if s.fsync then Unix.fsync fd;
          (* The ack: bytes written and durable.  Only now does the
             batch leave the lag counter. *)
          let n = List.length s.pending in
          s.acked <- s.acked + n;
          s.acked_bytes <- s.acked_bytes + s.pending_bytes;
          s.pending <- [];
          s.pending_bytes <- 0;
          Ok n
        with Unix.Unix_error (err, _, _) ->
          s.failed_flushes <- s.failed_flushes + 1;
          Error (Printf.sprintf "replica flush failed: %s" (Unix.error_message err)))))

let append s record =
  let line = line_of_record ~shard:s.shard ~seq:s.next_seq record in
  s.next_seq <- s.next_seq + 1;
  s.pending <- line :: s.pending;
  s.pending_bytes <- s.pending_bytes + String.length line + 1;
  s.appended <- s.appended + 1;
  s.peak_lag_entries <- max s.peak_lag_entries (List.length s.pending);
  s.peak_lag_bytes <- max s.peak_lag_bytes s.pending_bytes;
  (* Auto-flush at the batch bound.  During a partition the pending
     list grows past the bound, so every subsequent append retries —
     a healed link drains the backlog without outside help. *)
  if List.length s.pending >= s.batch then ignore (flush s)

let close s =
  match s.fd with
  | None -> ()
  | Some fd ->
    s.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let to_json s =
  let lag_entries, lag_bytes = lag s in
  Json.Object
    [
      ("path", Json.String s.path);
      ("shard", Json.Number (float_of_int s.shard));
      ("appended", Json.Number (float_of_int s.appended));
      ("acked", Json.Number (float_of_int s.acked));
      ("acked_bytes", Json.Number (float_of_int s.acked_bytes));
      ("lag_entries", Json.Number (float_of_int lag_entries));
      ("lag_bytes", Json.Number (float_of_int lag_bytes));
      ("peak_lag_entries", Json.Number (float_of_int s.peak_lag_entries));
      ("peak_lag_bytes", Json.Number (float_of_int s.peak_lag_bytes));
      ("flushes", Json.Number (float_of_int s.flushes));
      ("failed_flushes", Json.Number (float_of_int s.failed_flushes));
    ]
