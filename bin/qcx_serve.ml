(* CLI: the long-running compilation service.

     dune exec bin/qcx_serve.exe -- --socket /tmp/qcx.sock \
       --devices poughkeepsie,example6q --oracle-xtalk --jobs 4

   Speaks newline-delimited JSON (one request per line, one response
   per line; see DESIGN.md sections 8-9).  `--once` reads requests from
   stdin and answers on stdout — the test and CI mode:

     echo '{"op":"ping","id":"p1"}' | dune exec bin/qcx_serve.exe -- --once

   Exit codes: 0 after a clean drain (SIGTERM) or a `shutdown` request,
   2 for startup/usage errors, 3 for a fatal socket error. *)

open Cmdliner

let devices_term =
  let doc =
    "Comma-separated device list: poughkeepsie | johannesburg | boeblingen | example6q, \
     plus generated models heavy-hex-127 | heavy-hex-433 | grid-RxC."
  in
  Arg.(value & opt string "poughkeepsie" & info [ "devices" ] ~docv:"NAMES" ~doc)

let socket_term =
  let doc = "Unix-domain socket path to serve on." in
  Arg.(value & opt string "qcx-serve.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let once_term =
  let doc = "Serve one stdin/stdout round and exit (test mode)." in
  Arg.(value & flag & info [ "once" ] ~doc)

let snapshot_dir_term =
  let doc =
    "Directory of characterized crosstalk snapshots; each device loads \
     DIR/<name>.xtalk.json (as written by qcx_characterize --output), with corrupt \
     files quarantined.  The `bump` op re-reads it."
  in
  Arg.(value & opt (some string) None & info [ "snapshot-dir" ] ~docv:"DIR" ~doc)

let oracle_term =
  let doc = "Serve from ground-truth crosstalk instead of snapshots (demo mode)." in
  Arg.(value & flag & info [ "oracle-xtalk" ] ~doc)

let calibration_dir_term =
  let doc =
    "Enable the calibration data plane (DESIGN.md section 12): the `calibrate` op runs \
     drift detection + Opt-3 incremental re-characterization with canary-gated, \
     crash-consistent epoch promotion, keeping the rollback ring under DIR.  On startup \
     each device's current epoch and ring are recovered from DIR's ring pointers."
  in
  Arg.(value & opt (some string) None & info [ "calibration-dir" ] ~docv:"DIR" ~doc)

let calibration_seed_term =
  let doc = "Seed for the calibrator's deterministic measurement streams." in
  Arg.(value & opt int 0 & info [ "calibration-seed" ] ~docv:"N" ~doc)

let queue_bound_term =
  let doc = "Admission limit per batch; excess requests get an `overloaded` response." in
  Arg.(value & opt int Core.Service.default_config.Core.Service.queue_bound
       & info [ "queue-bound" ] ~docv:"N" ~doc)

let cache_capacity_term =
  let doc = "LRU capacity of the schedule cache." in
  Arg.(value & opt int Core.Service.default_config.Core.Service.cache_capacity
       & info [ "cache-capacity" ] ~docv:"N" ~doc)

let cache_file_term =
  let doc =
    "Persist the schedule cache at FILE with a write-ahead journal at FILE.journal: \
     crash-consistent warm start (snapshot + journal replay) and periodic checkpoints."
  in
  Arg.(value & opt (some string) None & info [ "cache-file" ] ~docv:"FILE" ~doc)

let max_frame_term =
  let doc = "Input frame bound in bytes; longer lines answer `frame_too_large`." in
  Arg.(value & opt int Core.Wire.default_max_frame & info [ "max-frame" ] ~docv:"BYTES" ~doc)

let max_compile_term =
  let doc = "Service-wide cap on any one compile's solver deadline, seconds (0 = none)." in
  Arg.(value & opt float 30.0 & info [ "max-compile-seconds" ] ~docv:"SECONDS" ~doc)

let breaker_threshold_term =
  let doc = "Consecutive compile failures that trip a device's circuit breaker." in
  Arg.(value & opt int Core.Breaker.default_config.Core.Breaker.threshold
       & info [ "breaker-threshold" ] ~docv:"N" ~doc)

let breaker_cooloff_term =
  let doc = "Seconds an open breaker rejects work before the half-open probe." in
  Arg.(value & opt float Core.Breaker.default_config.Core.Breaker.cooloff_seconds
       & info [ "breaker-cooloff" ] ~docv:"SECONDS" ~doc)

let breaker_min_rung_term =
  let doc =
    "Worst acceptable degradation-ladder rung (exact | incumbent | clustered | greedy | \
     parallel); compiles served from below it count as breaker failures."
  in
  Arg.(value & opt string "parallel" & info [ "breaker-min-rung" ] ~docv:"RUNG" ~doc)

let checkpoint_every_term =
  let doc = "Journal appends between cache snapshots." in
  Arg.(value & opt int Core.Service.default_config.Core.Service.checkpoint_every
       & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let write_timeout_term =
  let doc = "Seconds to wait for a slow client to read a response before dropping it." in
  Arg.(value & opt float 10.0 & info [ "write-timeout" ] ~docv:"SECONDS" ~doc)

let shards_term =
  let doc =
    "Size of the serve fleet (DESIGN.md section 14).  With N > 1 and no other fleet flag, \
     fork N shard processes (each owning its cache + journal under --fleet-dir and \
     replicating to its ring peer) and route on --socket."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let shard_index_term =
  let doc =
    "Serve exactly one fleet shard (no router): shard K of --shards, on \
     <socket>.shardK.  Used by the multi-process drill to place each shard in its own \
     crash domain."
  in
  Arg.(value & opt (some int) None & info [ "shard-index" ] ~docv:"K" ~doc)

let router_only_term =
  let doc =
    "Serve only the fleet router on --socket, forwarding to externally managed shard \
     processes at <socket>.shard0..N-1."
  in
  Arg.(value & flag & info [ "router-only" ] ~doc)

let fleet_dir_term =
  let doc = "Root directory of per-shard state (shard-K/cache.json + journal + peer replicas)." in
  Arg.(value & opt string "qcx-fleet" & info [ "fleet-dir" ] ~docv:"DIR" ~doc)

let backlog_term =
  let doc =
    "Listen backlog, and the admission bound on accepted-but-unserved connections: \
     excess connections are shed immediately with a typed `overloaded` response instead \
     of waiting without bound.  Unset keeps the legacy behavior (backlog 16, no shed)."
  in
  Arg.(value & opt (some int) None & info [ "backlog" ] ~docv:"N" ~doc)

let forward_timeout_term =
  let doc = "Router-to-shard response timeout, seconds; a slow shard counts as failed." in
  Arg.(value & opt float 10.0 & info [ "forward-timeout" ] ~docv:"SECONDS" ~doc)

let batch_window_term =
  let doc =
    "Seconds the reactor holds the shared batch open so cold compiles from different \
     connections coalesce into one Pool-parallel dispatch (0 = dispatch as soon as \
     frames are available)."
  in
  Arg.(value & opt float 0.001 & info [ "batch-window" ] ~docv:"SECONDS" ~doc)

let lookup_device name =
  match String.lowercase_ascii name with
  | "example6q" | "example" -> Some (Core.Presets.example_6q ())
  | n -> Core.Presets.by_name n

let persist service cache_file =
  match (cache_file, Core.Service.persistence_journal service) with
  | Some path, Some _ -> (
    match Core.Service.checkpoint service with
    | Ok () -> Printf.eprintf "cache: checkpointed to %s\n%!" path
    | Error e -> Printf.eprintf "cache: checkpoint failed: %s\n%!" e)
  | _ -> ()

let damaged_snapshot dropped =
  if dropped > 0 then Printf.sprintf " (damaged snapshot; %d line(s) dropped)" dropped else ""

let run devices_csv socket once snapshot_dir oracle calibration_dir calibration_seed jobs
    queue_bound cache_capacity cache_file max_frame max_compile breaker_threshold
    breaker_cooloff breaker_min_rung checkpoint_every write_timeout shards shard_index
    router_only fleet_dir backlog forward_timeout batch_window =
  let names =
    String.split_on_char ',' devices_csv
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if names = [] then begin
    Printf.eprintf "no devices given\n";
    exit 2
  end;
  let min_rung =
    match Core.Wire.rung_of_name (String.lowercase_ascii breaker_min_rung) with
    | Ok r -> r
    | Error e ->
      Printf.eprintf "--breaker-min-rung: %s\n" e;
      exit 2
  in
  if max_frame <= 0 || breaker_threshold <= 0 || checkpoint_every <= 0
     || not (breaker_cooloff > 0.0)
  then begin
    Printf.eprintf "--max-frame, --breaker-*, --checkpoint-every must be positive\n";
    exit 2
  end;
  if shards < 1 then begin
    Printf.eprintf "--shards must be at least 1\n";
    exit 2
  end;
  if batch_window < 0.0 then begin
    Printf.eprintf "--batch-window must be >= 0\n";
    exit 2
  end;
  (match shard_index with
  | Some k when k < 0 || k >= shards ->
    Printf.eprintf "--shard-index %d out of range for --shards %d\n" k shards;
    exit 2
  | _ -> ());
  let fleet_mode = shards > 1 || router_only || shard_index <> None in
  if once && fleet_mode then begin
    Printf.eprintf "--once is single-process; it cannot combine with fleet flags\n";
    exit 2
  end;
  if fleet_mode && calibration_dir <> None then
    Printf.eprintf "calibration data plane is single-process; ignoring --calibration-dir\n%!";
  if fleet_mode && cache_file <> None then
    Printf.eprintf "fleet shards persist under --fleet-dir; ignoring --cache-file\n%!";
  let build_registry () =
    let registry = Core.Registry.create () in
    List.iter
      (fun name ->
        match lookup_device name with
        | None ->
          Printf.eprintf "unknown device %s\n" name;
          exit 2
        | Some device ->
          let entry =
            match snapshot_dir with
            | Some dir ->
              Core.Registry.add_from_paths registry ~id:name ~device
                ~paths:[ Filename.concat dir (name ^ ".xtalk.json") ]
            | None ->
              let xtalk =
                if oracle then Core.Device.ground_truth device else Core.Crosstalk.empty
              in
              Core.Registry.add_static registry ~id:name ~device ~xtalk
          in
          List.iter
            (fun (path, why) -> Printf.eprintf "quarantined %s: %s\n%!" path why)
            entry.Core.Registry.quarantined;
          Printf.eprintf "registered %s (%d qubits) epoch %s%s\n%!" name
            (Core.Device.nqubits device)
            (String.sub entry.Core.Registry.epoch 0 12)
            (match entry.Core.Registry.source with
            | Some p -> " from " ^ p
            | None -> if oracle then " (oracle)" else " (no snapshot; empty crosstalk)"))
      names;
    registry
  in
  let config =
    {
      Core.Service.jobs;
      queue_bound;
      cache_capacity;
      max_compile_seconds = (if max_compile <= 0.0 then None else Some max_compile);
      deadline_grace = Core.Service.default_config.Core.Service.deadline_grace;
      breaker =
        { Core.Breaker.threshold = breaker_threshold; cooloff_seconds = breaker_cooloff; min_rung };
      checkpoint_every;
    }
  in
  let backlog_n = Option.value backlog ~default:16 in
  let max_pending = backlog in
  let write_timeout = if write_timeout > 0.0 then Some write_timeout else None in
  let shard_socket k = Printf.sprintf "%s.shard%d" socket k in
  (* A disconnecting client raises SIGPIPE on write; that must never
     kill the daemon. *)
  (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | () -> ()
  | exception Invalid_argument _ -> ());
  let install_drain on_drain =
    let draining = ref false in
    let drain _ =
      draining := true;
      on_drain ()
    in
    (match Sys.set_signal Sys.sigterm (Sys.Signal_handle drain) with
    | () -> ()
    | exception Invalid_argument _ -> ());
    draining
  in
  (* One fleet shard: its own Service + journal under the fleet dir,
     replicating every insert to its ring peer.  An empty shard dir
     with a surviving peer replica rebuilds from it before binding the
     socket, so a rebuilding shard is simply unreachable (the router
     keeps failing over) until its cache is warm. *)
  let serve_shard k =
    match
      Core.Shard.create ~config ~root:fleet_dir ~index:k ~nshards:shards
        ~make_registry:build_registry ()
    with
    | Error e ->
      Printf.eprintf "shard %d: %s\n%!" k e;
      2
    | Ok sh -> (
      let b = Core.Shard.boot sh in
      Printf.eprintf
        "shard %d/%d: restored %d snapshot + %d journal entries%s%s%s; replicating to %s\n%!"
        k shards b.Core.Shard.snapshot_entries b.Core.Shard.journal_entries
        (damaged_snapshot b.Core.Shard.snapshot_dropped)
        (if b.Core.Shard.rebuilt_from_replica > 0 then
           Printf.sprintf " (rebuilt %d entries from peer replica%s)"
             b.Core.Shard.rebuilt_from_replica
             (if b.Core.Shard.torn_replica then "; torn tail truncated" else "")
         else "")
        (if b.Core.Shard.torn_journal then " (torn journal tail)" else "")
        (Core.Shard.own_replica_path sh);
      let service = Core.Shard.service sh in
      let draining = install_drain (fun () -> Core.Service.set_draining service true) in
      let path = shard_socket k in
      Printf.eprintf "shard %d serving on %s (jobs %d)\n%!" k path jobs;
      match
        Core.Server.serve_socket service ~path ~max_frame ?write_timeout
          ~backlog:backlog_n ?max_pending ~batch_window ~stop:(fun () -> !draining)
      with
      | () ->
        Core.Shard.close sh;
        Printf.eprintf "shard %d: %s; exiting\n%!" k
          (if !draining then "drained after SIGTERM" else "shutdown requested");
        0
      | exception Unix.Unix_error (err, fn, arg) ->
        Core.Shard.close sh;
        Printf.eprintf "shard %d: fatal socket error: %s (%s %s)\n%!" k
          (Unix.error_message err) fn arg;
        3)
  in
  let serve_router () =
    let probe = build_registry () in
    let width d =
      Option.map
        (fun e -> Core.Device.nqubits e.Core.Registry.device)
        (Core.Registry.find probe d)
    in
    let transport =
      Core.Router.socket_transport ~timeout:forward_timeout ~socket_for:shard_socket ()
    in
    let router = Core.Router.create ~width ~nshards:shards ~transport () in
    let metrics = Core.Server.create_metrics () in
    Core.Router.set_serving router (Some (fun () -> Core.Server.metrics_json metrics));
    let draining = install_drain (fun () -> ()) in
    Printf.eprintf "router serving on %s over %d shard(s)\n%!" socket shards;
    match
      Core.Server.serve_socket_with ~max_frame ?write_timeout ~backlog:backlog_n
        ?max_pending ~batch_window ~metrics
        ~handle:(Core.Router.handle_frames ~max_frame router)
        ~path:socket
        ~stop:(fun () -> !draining)
        ()
    with
    | () ->
      Printf.eprintf "router: %s; exiting\n%!"
        (if !draining then "drained after SIGTERM" else "shutdown requested");
      0
    | exception Unix.Unix_error (err, fn, arg) ->
      Printf.eprintf "router: fatal socket error: %s (%s %s)\n%!" (Unix.error_message err)
        fn arg;
      3
  in
  let serve_fleet_parent () =
    (* Children are forked before this process touches registries or
       services, so no domain has ever been spawned — the only state
       they inherit is the parsed CLI. *)
    let pids =
      List.init shards (fun k ->
          match Unix.fork () with 0 -> exit (serve_shard k) | pid -> pid)
    in
    let deadline = Unix.gettimeofday () +. 20.0 in
    let rec await k =
      if k >= shards then ()
      else if Sys.file_exists (shard_socket k) then await (k + 1)
      else if Unix.gettimeofday () > deadline then
        Printf.eprintf "warning: shard %d socket did not appear; routing around it\n%!" k
      else begin
        Unix.sleepf 0.05;
        await k
      end
    in
    await 0;
    let code = serve_router () in
    List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
    List.iter
      (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      pids;
    code
  in
  match shard_index with
  | Some k -> serve_shard k
  | None ->
    if router_only then serve_router ()
    else if shards > 1 then serve_fleet_parent ()
    else begin
      let registry = build_registry () in
      let service = Core.Service.create ~config registry in
      (match calibration_dir with
      | None -> ()
      | Some dir ->
        let calibrator =
          Core.Calibrator.create
            ~config:
              {
                Core.Calibrator.default_config with
                Core.Calibrator.jobs;
                seed = calibration_seed;
              }
            ~dir registry
        in
        let recovered = Core.Calibrator.recover calibrator in
        List.iter
          (fun r ->
            Printf.eprintf "calibration: restored %s epoch %s (ring depth %d)\n%!"
              r.Core.Calibrator.id
              (String.sub r.Core.Calibrator.epoch 0
                 (min 12 (String.length r.Core.Calibrator.epoch)))
              r.Core.Calibrator.ring)
          recovered;
        Core.Service.set_calibrator service (Some calibrator);
        Printf.eprintf "calibration data plane enabled under %s\n%!" dir);
      (match cache_file with
      | None -> ()
      | Some path -> (
        match Core.Service.recover service ~cache_file:path () with
        | Ok r ->
          Printf.eprintf "cache: restored %d snapshot + %d journal entries%s%s\n%!"
            r.Core.Service.snapshot_entries r.Core.Service.journal_entries
            (damaged_snapshot r.Core.Service.snapshot_dropped)
            (if r.Core.Service.torn then
               Printf.sprintf " (torn journal tail; %d record(s) dropped)"
                 r.Core.Service.journal_dropped
             else "")
        | Error e ->
          Printf.eprintf "cache: recovery failed (%s); serving without persistence\n%!" e));
      if once then begin
        Core.Server.serve_channels service stdin stdout;
        persist service cache_file;
        0
      end
      else begin
        let draining = install_drain (fun () -> Core.Service.set_draining service true) in
        Printf.eprintf "serving on %s (jobs %d, queue bound %d, cache %d, frame %dB)\n%!"
          socket jobs queue_bound cache_capacity max_frame;
        match
          Core.Server.serve_socket service ~path:socket ~max_frame ?write_timeout
            ~backlog:backlog_n ?max_pending ~batch_window
            ~stop:(fun () -> !draining)
        with
        | () ->
          Printf.eprintf "%s; exiting\n%!"
            (if !draining then "drained after SIGTERM" else "shutdown requested");
          persist service cache_file;
          0
        | exception Unix.Unix_error (err, fn, arg) ->
          Printf.eprintf "fatal socket error: %s (%s %s)\n%!" (Unix.error_message err) fn
            arg;
          persist service cache_file;
          3
      end
    end

let cmd =
  let info =
    Cmd.info "qcx_serve" ~doc:"Serve crosstalk-aware compilations over a Unix socket"
  in
  Cmd.v info
    Term.(
      const run $ devices_term $ socket_term $ once_term $ snapshot_dir_term $ oracle_term
      $ calibration_dir_term $ calibration_seed_term
      $ Common.jobs_term $ queue_bound_term $ cache_capacity_term $ cache_file_term
      $ max_frame_term $ max_compile_term $ breaker_threshold_term $ breaker_cooloff_term
      $ breaker_min_rung_term $ checkpoint_every_term $ write_timeout_term $ shards_term
      $ shard_index_term $ router_only_term $ fleet_dir_term $ backlog_term
      $ forward_timeout_term $ batch_window_term)

let () = exit (Cmd.eval' cmd)
