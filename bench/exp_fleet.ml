(* Fleet bench (DESIGN.md section 14): the sharded serve tier under a
   kill-a-shard chaos drill, gated on the four fleet guarantees:

     - determinism: responses are bit-identical (over id/status/key/
       schedule) at every shard count x jobs combination;
     - durability: zero acknowledged schedules lost across any
       single-shard kill -9 — every pre-kill ok response is served
       again, bit-identically, after failover and rebuild;
     - rebuild fidelity: with clean replication (no injected faults),
       the peer rebuild is byte-identical to the state the lost
       shard's own snapshot + journal would have recovered to;
     - availability: >= 0.99 of requests answer ok across the whole
       run, including the failover window.

   Fault seeds additionally partition / slow the replica streams (lag
   must become visible), and tear the surviving replica's tail before
   the rebuild (the valid-prefix replay must still rejoin; the lost
   suffix is recompiled bit-identically on demand).

   `drill` is the out-of-process counterpart used by ci.sh: poll the
   router's aggregated health until the whole fleet is live with zero
   replication lag, and assert the failover actually happened. *)

module Service = Core.Service
module Wire = Core.Wire
module Registry = Core.Registry
module Breaker = Core.Breaker
module Json = Core.Json
module Faults = Core.Service_faults
module Fleet = Core.Fleet
module Shard = Core.Shard
module Replica = Core.Replica

let make_registry () =
  let device = Core.Presets.example_6q () in
  let registry = Registry.create () in
  ignore
    (Registry.add_static registry ~id:"example6q" ~device
       ~xtalk:(Core.Device.ground_truth device));
  registry

let service_config jobs =
  {
    Service.jobs;
    queue_bound = 16;
    (* Capacity far above the workload's unique-key count: the rebuild
       identity argument needs an eviction-free cache (evictions are
       driven by LRU recency, which is deliberately not replicated). *)
    cache_capacity = 256;
    max_compile_seconds = Some 5.0;
    deadline_grace = 4.0;
    breaker = Breaker.default_config;
    checkpoint_every = 8;
  }

(* Compile-only workload: 12 circuit templates x 8 omega values = 24
   distinct cache keys cycled with repeats, so every shard sees both
   cold compiles and hits. *)
let fleet_request device i =
  let params =
    { Wire.default_params with Wire.omega = 0.3 +. (0.01 *. float_of_int (i mod 8)) }
  in
  Wire.Compile
    {
      id = Printf.sprintf "f%d" i;
      device = "example6q";
      circuit = Exp_chaos.build_circuit device (i mod 12);
      params;
    }

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* The determinism projection: id/status/key/schedule — everything a
   client acts on.  Wall-clock stats and the cached flag legitimately
   vary across shard counts and jobs. *)
let digest_of_lines lines =
  let buf = Buffer.create 4096 in
  List.iter
    (fun line ->
      (match Json.of_string line with
      | Error _ -> Buffer.add_string buf "unparsed"
      | Ok doc ->
        let f k = Result.value ~default:"" (Json.find_str k doc) in
        let sched =
          match Json.member "schedule" doc with
          | Some s -> Json.to_string ~indent:false s
          | None -> ""
        in
        Buffer.add_string buf (f "id" ^ "|" ^ f "status" ^ "|" ^ f "key" ^ "|" ^ sched));
      Buffer.add_char buf '\n')
    lines;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let drive fleet lines = List.concat_map (fun b -> fst (Fleet.handle_lines fleet b)) (Exp_chaos.batches 6 lines)

(* ---- phase A: determinism matrix ---- *)

let run_matrix ~dir ~requests ~shard_counts ~jobs_list =
  let device = Core.Presets.example_6q () in
  let lines =
    List.init requests (fun i -> Exp_chaos.encode (fleet_request device i))
  in
  let cells =
    List.concat_map
      (fun nshards ->
        List.map
          (fun jobs ->
            let root = Filename.concat dir (Printf.sprintf "matrix-s%d-j%d" nshards jobs) in
            rm_rf root;
            match
              Fleet.create ~service_config:(service_config jobs) ~root ~nshards
                ~make_registry ()
            with
            | Error e ->
              Printf.eprintf "fleet matrix: boot failed (%d shards): %s\n" nshards e;
              exit 1
            | Ok fleet ->
              let out = drive fleet lines in
              Fleet.close fleet;
              rm_rf root;
              let d = digest_of_lines out in
              Printf.printf "  matrix: %d shard(s) x jobs %d -> %s\n%!" nshards jobs d;
              (nshards, jobs, d))
          jobs_list)
      shard_counts
  in
  cells

(* ---- phases B/C: one seeded kill drill ---- *)

type kill_report = {
  seed : int;
  faulty : bool;
  victim : int;
  kill_at : int;
  acked_pre_kill : int;
  ok_responses : int;
  expected : int;
  failovers : int;
  retries : int;
  unavailable : int;
  max_lag : int;
  rebuilt_entries : int;
  torn_replica : bool;
  rebuild_identical : bool option;  (* None for fault seeds (tail may be torn) *)
  lost : int;
}

let run_kill_seed ~seed ~requests ~jobs ~dir ~faulty =
  let device = Core.Presets.example_6q () in
  let nshards = 3 in
  let root =
    Filename.concat dir (Printf.sprintf "fleet-%s-%d" (if faulty then "fault" else "clean") seed)
  in
  rm_rf root;
  let fault_config =
    if faulty then
      {
        Faults.none with
        Faults.replica_partition = 0.25;
        replica_slow = 0.15;
        slow_ack_seconds = 0.005;
        replica_tear = 1.0;
      }
    else Faults.none
  in
  let plan = Faults.create ~config:fault_config ~seed () in
  let fleet =
    match Fleet.create ~service_config:(service_config jobs) ~root ~nshards ~make_registry () with
    | Ok f -> f
    | Error e ->
      Printf.eprintf "fleet seed %d: boot failed: %s\n" seed e;
      exit 1
  in
  if faulty then
    for k = 0 to nshards - 1 do
      match Fleet.shard fleet k with
      | Some sh ->
        Replica.set_fault (Shard.replica sh)
          (Some (fun ~nth -> Faults.replica_fault plan ~shard:k ~nth))
      | None -> ()
    done;
  let kill_at, victim = Faults.shard_kill plan ~requests ~shards:nshards in
  let reqs = List.init requests (fun i -> fleet_request device i) in
  let line_of = Hashtbl.create requests in
  let lines =
    List.map
      (fun r ->
        let line = Exp_chaos.encode r in
        Hashtbl.replace line_of (Wire.request_id r) line;
        line)
      reqs
  in
  let acked = Hashtbl.create 64 in
  let reference = ref "" in
  let killed = ref false in
  let sent = ref 0 in
  let ok = ref 0 in
  let max_lag = ref 0 in
  let sample_lag () =
    for k = 0 to nshards - 1 do
      match Fleet.shard fleet k with
      | Some sh -> max_lag := max !max_lag (fst (Replica.lag (Shard.replica sh)))
      | None -> ()
    done
  in
  List.iter
    (fun batch ->
      if (not !killed) && !sent >= kill_at then begin
        (* kill -9 between batches: fds closed unflushed, snapshot and
           journal deleted; only the peer replica survives.  The
           reference (what the shard's own files would have recovered
           to) is captured first. *)
        (match Fleet.kill fleet ~shard:victim with
        | Ok r -> reference := r
        | Error e ->
          Printf.eprintf "fleet seed %d: kill failed: %s\n" seed e;
          exit 1);
        killed := true
      end;
      let out, _stop = Fleet.handle_lines fleet batch in
      List.iter
        (fun line ->
          match Json.of_string line with
          | Error _ -> ()
          | Ok doc ->
            let status = Result.value ~default:"" (Json.find_str "status" doc) in
            if status = "ok" then begin
              incr ok;
              if not !killed then
                match (Json.find_str "id" doc, Json.find_str "key" doc) with
                | Ok id, Ok key ->
                  let sched =
                    match Json.member "schedule" doc with
                    | Some s -> Json.to_string ~indent:false s
                    | None -> ""
                  in
                  Hashtbl.replace acked id (key, sched)
                | _ -> ()
            end)
        out;
      sent := !sent + List.length batch;
      sample_lag ())
    (Exp_chaos.batches 6 lines);
  if not !killed then begin
    match Fleet.kill fleet ~shard:victim with
    | Ok r ->
      reference := r;
      killed := true
    | Error e ->
      Printf.eprintf "fleet seed %d: kill failed: %s\n" seed e;
      exit 1
  end;
  (* Fault seeds also tear the surviving replica's tail — the rebuild
     must use the valid prefix instead of refusing or corrupting. *)
  let torn_replica =
    if not faulty then false
    else begin
      let rpath = Shard.replica_path ~root ~nshards victim in
      match Unix.stat rpath with
      | { Unix.st_size = len; _ } when len > 1 -> (
        match Faults.replica_tear plan ~len with
        | Some off ->
          let fd = Unix.openfile rpath [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd off;
          Unix.close fd;
          true
        | None -> false)
      | _ | (exception Unix.Unix_error _) -> false
    end
  in
  let boot =
    match Fleet.restart fleet ~shard:victim with
    | Ok b -> b
    | Error e ->
      Printf.eprintf "fleet seed %d: restart failed: %s\n" seed e;
      exit 1
  in
  let rebuilt =
    match Fleet.canonical_state fleet ~shard:victim with
    | Ok s -> s
    | Error e ->
      Printf.eprintf "fleet seed %d: no rebuilt state: %s\n" seed e;
      exit 1
  in
  let rebuild_identical = if faulty then None else Some (rebuilt = !reference) in
  (* Durability: every acknowledged pre-kill schedule must be served
     again — bit-identically — by the healed fleet.  (Entries a torn
     or lagging replica lost are recompiled; determinism makes the
     recompile identical, so they are not "lost" to the client.) *)
  let replay_lines =
    Hashtbl.fold (fun id _ acc -> (id, Hashtbl.find line_of id) :: acc) acked []
  in
  let lost = ref 0 in
  (* batched like the live drive — one giant batch would trip a
     shard's own admission control, which is not what this probes *)
  let replay_out = drive fleet (List.map snd replay_lines) in
  let replay_map = Exp_chaos.response_map replay_out in
  Hashtbl.iter
    (fun id (key, sched) ->
      match Hashtbl.find_opt replay_map id with
      | Some ("ok", doc) ->
        let got_key = Result.value ~default:"" (Json.find_str "key" doc) in
        let got_sched =
          match Json.member "schedule" doc with
          | Some s -> Json.to_string ~indent:false s
          | None -> ""
        in
        if got_key <> key || got_sched <> sched then begin
          incr lost;
          Printf.eprintf "fleet seed %d: %s replayed with different schedule\n" seed id
        end
      | Some (status, _) ->
        incr lost;
        Printf.eprintf "fleet seed %d: %s answered %s after heal\n" seed id status
      | None ->
        incr lost;
        Printf.eprintf "fleet seed %d: no response for %s after heal\n" seed id)
    acked;
  let router_doc =
    match Fleet.handle_lines fleet [ {|{"op":"stats","id":"wrap"}|} ] with
    | [ line ], _ -> Json.of_string line
    | _ -> Error "no stats"
  in
  let stat name =
    match router_doc with
    | Ok doc -> (
      match
        Option.bind (Json.member "stats" doc) (fun s ->
            Option.bind (Json.member "router" s) (Json.member name))
      with
      | Some (Json.Number x) -> int_of_float x
      | _ -> 0)
    | Error _ -> 0
  in
  let report =
    {
      seed;
      faulty;
      victim;
      kill_at;
      acked_pre_kill = Hashtbl.length acked;
      ok_responses = !ok;
      expected = requests;
      failovers = stat "failovers";
      retries = stat "retries";
      unavailable = stat "unavailable";
      max_lag = !max_lag;
      rebuilt_entries = boot.Shard.rebuilt_from_replica;
      torn_replica;
      rebuild_identical;
      lost = !lost;
    }
  in
  Fleet.close fleet;
  rm_rf root;
  report

let kill_json r =
  Json.Object
    [
      ("seed", Json.Number (float_of_int r.seed));
      ("faulty", Json.Bool r.faulty);
      ("victim", Json.Number (float_of_int r.victim));
      ("kill_after_request", Json.Number (float_of_int r.kill_at));
      ("acked_pre_kill", Json.Number (float_of_int r.acked_pre_kill));
      ("ok_responses", Json.Number (float_of_int r.ok_responses));
      ("expected", Json.Number (float_of_int r.expected));
      ("failovers", Json.Number (float_of_int r.failovers));
      ("retries", Json.Number (float_of_int r.retries));
      ("unavailable", Json.Number (float_of_int r.unavailable));
      ("max_replication_lag", Json.Number (float_of_int r.max_lag));
      ("rebuilt_from_replica", Json.Number (float_of_int r.rebuilt_entries));
      ("torn_replica", Json.Bool r.torn_replica);
      ( "rebuild_identical",
        match r.rebuild_identical with None -> Json.Null | Some b -> Json.Bool b );
      ("lost_acknowledged", Json.Number (float_of_int r.lost));
    ]

let run ~smoke ~dir ~out =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let requests = if smoke then 18 else 48 in
  let shard_counts = if smoke then [ 1; 2 ] else [ 1; 2; 3 ] in
  let jobs_list = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let clean_seeds = if smoke then 2 else 5 in
  let fault_seeds = if smoke then 2 else 5 in
  Printf.printf "fleet bench: matrix %d requests over shards x jobs, then %d clean + %d fault kill seeds\n%!"
    requests clean_seeds fault_seeds;
  let cells = run_matrix ~dir ~requests ~shard_counts ~jobs_list in
  let digests = List.sort_uniq compare (List.map (fun (_, _, d) -> d) cells) in
  let matrix_identical = List.length digests = 1 in
  let kill_requests = if smoke then 24 else 60 in
  let clean_reports =
    List.init clean_seeds (fun k ->
        let r = run_kill_seed ~seed:(7000 + k) ~requests:kill_requests ~jobs:2 ~dir ~faulty:false in
        Printf.printf
          "  clean seed %d: victim %d after %d, acked %d, ok %d/%d, failovers %d, rebuilt %d, identical %b, lost %d\n%!"
          r.seed r.victim r.kill_at r.acked_pre_kill r.ok_responses r.expected r.failovers
          r.rebuilt_entries
          (r.rebuild_identical = Some true)
          r.lost;
        r)
  in
  let fault_reports =
    List.init fault_seeds (fun k ->
          let r = run_kill_seed ~seed:(7100 + k) ~requests:kill_requests ~jobs:2 ~dir ~faulty:true in
          Printf.printf
            "  fault seed %d: victim %d after %d, acked %d, ok %d/%d, max lag %d, torn %b, rebuilt %d, lost %d\n%!"
            r.seed r.victim r.kill_at r.acked_pre_kill r.ok_responses r.expected r.max_lag
            r.torn_replica r.rebuilt_entries r.lost;
          r)
  in
  let reports = clean_reports @ fault_reports in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let lost = total (fun r -> r.lost) in
  let rebuild_ok =
    List.for_all (fun r -> r.rebuild_identical <> Some false) reports
  in
  let availability =
    let ok = total (fun r -> r.ok_responses) and exp_ = total (fun r -> r.expected) in
    float_of_int ok /. float_of_int (max 1 exp_)
  in
  let failovers = total (fun r -> r.failovers) in
  let max_lag = List.fold_left (fun m r -> max m r.max_lag) 0 reports in
  let torn_replicas = List.length (List.filter (fun r -> r.torn_replica) reports) in
  let gates =
    [
      ("matrix_identical", matrix_identical);
      ("zero_acknowledged_lost", lost = 0);
      ("rebuild_identical", rebuild_ok);
      ("availability_ge_0_99", availability >= 0.99);
      ("failover_exercised", failovers >= 1);
    ]
  in
  let doc =
    Json.Object
      [
        ("smoke", Json.Bool smoke);
        ("requests_per_matrix_cell", Json.Number (float_of_int requests));
        ("kill_requests_per_seed", Json.Number (float_of_int kill_requests));
        ( "matrix",
          Json.Array
            (List.map
               (fun (n, j, d) ->
                 Json.Object
                   [
                     ("shards", Json.Number (float_of_int n));
                     ("jobs", Json.Number (float_of_int j));
                     ("digest", Json.String d);
                   ])
               cells) );
        ("matrix_digests", Json.Number (float_of_int (List.length digests)));
        ("availability", Json.Number availability);
        ("failovers", Json.Number (float_of_int failovers));
        ("max_replication_lag", Json.Number (float_of_int max_lag));
        ("torn_replica_seeds", Json.Number (float_of_int torn_replicas));
        ("lost_acknowledged", Json.Number (float_of_int lost));
        ("gates", Json.Object (List.map (fun (k, v) -> (k, Json.Bool v)) gates));
        ("per_seed", Json.Array (List.map kill_json reports));
      ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf
    "availability %.4f, %d failovers, max lag %d, %d torn replicas, %d lost acked, matrix %s\n"
    availability failovers max_lag torn_replicas lost
    (if matrix_identical then "identical" else "DIVERGED");
  Printf.printf "wrote %s\n" out;
  if List.exists (fun (_, v) -> not v) gates then begin
    Printf.eprintf "fleet bench FAILED:%s\n"
      (String.concat ""
         (List.filter_map (fun (k, v) -> if v then None else Some (" " ^ k)) gates));
    exit 1
  end

(* ---- out-of-process drill assertion (ci.sh) ---- *)

let drill ~socket ~shards ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let check () =
    match Exp_chaos.roundtrip ~socket [ Wire.Health { id = "drill" } ] with
    | [ line ] -> (
      match Json.of_string line with
      | Error _ -> Error "unparseable health"
      | Ok doc -> (
        match Json.member "health" doc with
        | None -> Error "no health payload"
        | Some h ->
          let num obj name =
            match Option.bind obj (Json.member name) with
            | Some (Json.Number x) -> Some x
            | _ -> None
          in
          let router = Json.member "router" h in
          let failovers = Option.value ~default:0.0 (num router "failovers") in
          let last_failover =
            match Option.bind router (Json.member "last_failover_at") with
            | Some (Json.Number _) -> true
            | _ -> false
          in
          let shard_rows =
            match Json.member "shards" h with Some (Json.Array rows) -> rows | _ -> []
          in
          let live_ok row =
            let reachable =
              match Json.member "reachable" row with Some (Json.Bool b) -> b | _ -> false
            in
            let state = Result.value ~default:"" (Json.find_str "state" row) in
            let lag =
              num
                (Option.bind (Json.member "health" row) (fun hh ->
                     Option.bind (Json.member "shard" hh) (Json.member "replica")))
                "lag_entries"
            in
            reachable && state = "live" && lag = Some 0.0
          in
          if List.length shard_rows <> shards then
            Error (Printf.sprintf "expected %d shards, saw %d" shards (List.length shard_rows))
          else if not (List.for_all live_ok shard_rows) then Error "a shard is not live/lag-free"
          else if not (failovers >= 1.0 && last_failover) then
            Error "no failover was recorded"
          else Ok ()))
    | _ -> Error "no health response"
  in
  let rec poll last_err =
    if Unix.gettimeofday () > deadline then begin
      Printf.eprintf "fleet drill: FAILED: %s\n" last_err;
      exit 1
    end
    else
      match check () with
      | Ok () ->
        Printf.printf
          "fleet drill: %d shards live, replication lag 0, failover recorded\n" shards;
        exit 0
      | Error e ->
        Unix.sleepf 0.25;
        poll e
  in
  poll "timed out"
