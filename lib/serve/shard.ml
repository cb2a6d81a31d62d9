module Json = Qcx_persist.Json

(* One member of the replicated fleet (DESIGN.md §14): a Service with
   its own snapshot + write-ahead journal under [root/shard-<k>/],
   plus a replication sender streaming every cache insertion into the
   ring peer's directory — [root/shard-<peer>/replica-of-<k>.ndjson]
   lives in the PEER's crash domain, which is the whole point: losing
   shard k's disk loses its journal but not its history.

   Boot order matters:
     1. recover from the shard's own snapshot + journal (the normal
        restart path — cheapest and always preferred);
     2. only if that yields nothing AND a replica of this shard
        exists, rebuild from the peer's replica log (full append
        history, replayed in order, then checkpointed);
     3. open the replica sender (continuing its sequence numbers) and
        install the insertion tee — AFTER recovery, so recovered
        entries are not re-replicated. *)

type boot = {
  snapshot_entries : int;
  snapshot_dropped : int;
  journal_entries : int;
  journal_dropped : int;
  torn_journal : bool;
  rebuilt_from_replica : int;
  torn_replica : bool;
}

type t = {
  index : int;
  nshards : int;
  root : string;
  service : Service.t;
  replica : Replica.sender;
  boot : boot;
}

let shard_dir ~root k = Filename.concat root (Printf.sprintf "shard-%d" k)
let cache_file ~root k = Filename.concat (shard_dir ~root k) "cache.json"
let peer ~nshards k = (k + 1) mod nshards

let replica_path ~root ~nshards k =
  Filename.concat (shard_dir ~root (peer ~nshards k)) (Printf.sprintf "replica-of-%d.ndjson" k)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let health_fields t () =
  [
    ( "shard",
      Json.Object
        [
          ("index", Json.Number (float_of_int t.index));
          ("nshards", Json.Number (float_of_int t.nshards));
          ("peer", Json.Number (float_of_int (peer ~nshards:t.nshards t.index)));
          ("rebuilt_from_replica", Json.Number (float_of_int t.boot.rebuilt_from_replica));
          ("replica", Replica.to_json t.replica);
        ] );
  ]

let create ?(config = Service.default_config) ?clock ~root ~index ~nshards ~make_registry () =
  if nshards <= 0 then invalid_arg "Shard.create: nshards must be positive";
  if index < 0 || index >= nshards then invalid_arg "Shard.create: index out of range";
  mkdir_p (shard_dir ~root index);
  mkdir_p (shard_dir ~root (peer ~nshards index));
  let service = Service.create ~config ?clock (make_registry ()) in
  let cfile = cache_file ~root index in
  match Service.recover service ~cache_file:cfile () with
  | Error e -> Error (Printf.sprintf "shard %d: recovery failed: %s" index e)
  | Ok r -> (
    let rpath = replica_path ~root ~nshards index in
    let rebuilt_from_replica, torn_replica =
      if r.Service.snapshot_entries = 0 && r.Service.journal_entries = 0 then begin
        (* Own state is gone (fresh shard, or its disk was lost): the
           peer's replica holds this shard's full append history.
           Replaying it through the same LRU reproduces the state a
           journal replay would have — then an immediate checkpoint
           makes the rebuild locally durable before rejoining. *)
        let rep = Replica.replay ~path:rpath ~shard:index in
        List.iter
          (fun (_seq, r) ->
            Cache.add ~line:(Journal.line_of_record r) (Service.cache service) r.Journal.key
              r.Journal.entry)
          rep.Replica.records;
        if rep.Replica.records <> [] then ignore (Service.checkpoint service);
        (rep.Replica.read, rep.Replica.torn)
      end
      else (0, false)
    in
    match Replica.open_sender ~path:rpath ~shard:index with
    | Error e -> Error (Printf.sprintf "shard %d: %s" index e)
    | Ok sender ->
      let boot =
        {
          snapshot_entries = r.Service.snapshot_entries;
          snapshot_dropped = r.Service.snapshot_dropped;
          journal_entries = r.Service.journal_entries;
          journal_dropped = r.Service.journal_dropped;
          torn_journal = r.Service.torn;
          rebuilt_from_replica;
          torn_replica;
        }
      in
      let t = { index; nshards; root; service; replica = sender; boot } in
      Service.set_on_insert service
        (Some (fun key entry -> Replica.append sender { Journal.key; entry }));
      Service.set_extra_health service (Some (health_fields t));
      Ok t)

let service t = t.service
let replica t = t.replica
let boot t = t.boot
let own_replica_path t = replica_path ~root:t.root ~nshards:t.nshards t.index

let close t =
  ignore (Replica.flush t.replica);
  Replica.close t.replica;
  ignore (Service.checkpoint t.service);
  match Service.persistence_journal t.service with
  | Some j -> Journal.close j
  | None -> ()

let abandon t =
  (* kill -9 semantics: no flush, no checkpoint, no goodbye — pending
     replica entries and un-checkpointed journal tail are simply gone,
     exactly like the process dying. *)
  Replica.close t.replica;
  match Service.persistence_journal t.service with
  | Some j -> Journal.close j
  | None -> ()
