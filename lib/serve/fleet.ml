module Device = Qcx_device.Device

(* In-process fleet: N shards + a router over a direct (function call)
   transport.  This is the harness the fleet bench and tests drive —
   the same Shard/Router/Replica machinery as the multi-process
   deployment, minus the sockets, so kill/rebuild semantics can be
   exercised deterministically and fast.  [kill] really does lose the
   shard's un-checkpointed state (files deleted, fds closed without
   flushing) and [restart] really does rebuild from the peer replica. *)

type t = {
  root : string;
  nshards : int;
  service_config : Service.config;
  fsync : bool;
  replica_batch : int;
  make_registry : unit -> Registry.t;
  clock : (unit -> float) option;
  shards : Shard.t option array;
  router : Router.t;
}

let create ?(service_config = Service.default_config) ?(router_config = Router.default_config)
    ?clock ?(fsync = true) ?(replica_batch = 1) ~root ~nshards ~make_registry () =
  if nshards <= 0 then invalid_arg "Fleet.create: nshards must be positive";
  let shards = Array.make nshards None in
  let rec boot k =
    if k >= nshards then Ok ()
    else
      match
        Shard.create ~config:service_config ?clock ~fsync ~replica_batch ~root ~index:k
          ~nshards ~make_registry ()
      with
      | Error e -> Error e
      | Ok sh ->
        shards.(k) <- Some sh;
        boot (k + 1)
  in
  match boot 0 with
  | Error e -> Error e
  | Ok () ->
    let probe = make_registry () in
    let width device =
      Option.map (fun e -> Device.nqubits e.Registry.device) (Registry.find probe device)
    in
    let transport =
      Router.transport_of_send (fun ~shard lines ->
          match shards.(shard) with
          | None -> Error "shard is down"
          | Some sh ->
            let resp, _stop = Server.handle_lines (Shard.service sh) lines in
            Ok resp)
    in
    let router = Router.create ~config:router_config ?clock ~width ~nshards ~transport () in
    Ok
      {
        root;
        nshards;
        service_config;
        fsync;
        replica_batch;
        make_registry;
        clock;
        shards;
        router;
      }

let nshards t = t.nshards
let router t = t.router
let shard t k = t.shards.(k)
let alive t = Array.fold_left (fun n s -> if s = None then n else n + 1) 0 t.shards

let handle_lines t lines = Router.handle_lines t.router lines

(* Canonical cache state for bit-identity comparison: the entries'
   snapshot lines sorted (each line leads with its cache key).  Sorting
   removes the one degree of freedom that is NOT replicated — LRU
   recency reordering on hits — so two caches holding the same entries
   compare equal regardless of their hit histories.  (Content-set
   equality holds as long as the cache never evicted; the fleet bench
   sizes capacity above its unique-key count.) *)
let canonical_of_cache cache =
  Cache.lines_oldest_first cache ~render:(fun key entry -> Journal.line_of_record { Journal.key; entry })
  |> List.sort compare |> String.concat "\n"

let canonical_state t ~shard =
  match t.shards.(shard) with
  | None -> Error "shard is down"
  | Some sh -> Ok (canonical_of_cache (Service.cache (Shard.service sh)))

(* What a crash-recovery of the shard's own files would produce:
   snapshot + journal valid-prefix replay.  Computed from disk, so it
   is the ground truth a peer rebuild must reproduce. *)
let replayed_state t ~shard =
  let cache = Cache.create ~capacity:t.service_config.Service.cache_capacity in
  let cfile = Shard.cache_file ~root:t.root shard in
  ignore (Journal.restore cache ~path:cfile);
  ignore (Journal.restore cache ~path:(cfile ^ ".journal"));
  canonical_of_cache cache

let kill t ~shard =
  match t.shards.(shard) with
  | None -> Error "shard already down"
  | Some sh ->
    Shard.abandon sh;
    t.shards.(shard) <- None;
    (* The reference is captured from the dying shard's own disk state
       BEFORE it is destroyed — the rebuild gate compares the peer
       replica's replay against this. *)
    let reference = replayed_state t ~shard in
    let cfile = Shard.cache_file ~root:t.root shard in
    (try Sys.remove cfile with Sys_error _ -> ());
    (try Sys.remove (cfile ^ ".journal") with Sys_error _ -> ());
    Ok reference

let restart t ~shard =
  if t.shards.(shard) <> None then Error "shard is still running"
  else begin
    Router.set_rebuilding t.router shard true;
    match
      Shard.create ~config:t.service_config ?clock:t.clock ~fsync:t.fsync
        ~replica_batch:t.replica_batch ~root:t.root ~index:shard ~nshards:t.nshards
        ~make_registry:t.make_registry ()
    with
    | Error e ->
      Router.set_rebuilding t.router shard false;
      Error e
    | Ok sh ->
      t.shards.(shard) <- Some sh;
      Router.set_rebuilding t.router shard false;
      Router.reset_breaker t.router shard;
      Ok (Shard.boot sh)
  end

let close t =
  Array.iteri
    (fun k -> function
      | None -> ()
      | Some sh ->
        Shard.close sh;
        t.shards.(k) <- None)
    t.shards
