(* Tests for the sharded serve tier (DESIGN.md section 14): the
   consistent-hash ring's remap properties, peer replication of the
   journal stream, kill/rebuild fidelity through the in-process fleet,
   router failover, the typed overload shed, and the durability /
   health hooks the fleet hangs off the single-node service. *)

module Ring = Core.Ring
module Replica = Core.Replica
module Journal = Core.Journal
module Cache = Core.Cache
module Shard = Core.Shard
module Fleet = Core.Fleet
module Service = Core.Service
module Server = Core.Server
module Registry = Core.Registry
module Wire = Core.Wire
module Json = Core.Json
module Store = Core.Store
module Circuit = Core.Circuit
module Device = Core.Device

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let fresh_dir name =
  let path = tmp (Printf.sprintf "%s_%d" name (Unix.getpid ())) in
  let rec rm_rf p =
    match Unix.lstat p with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove p with Sys_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  rm_rf path;
  path

(* ---- ring properties ---- *)

let prop_key_maps_to_one_live_shard =
  let gen =
    QCheck.Gen.(
      triple (string_size ~gen:printable (int_range 1 40)) (int_range 1 8) (int_range 0 255))
  in
  QCheck.Test.make ~name:"every key maps to exactly one live shard" ~count:500
    (QCheck.make gen) (fun (key, nshards, dead_mask) ->
      let ring = Ring.create ~nshards () in
      let live s = dead_mask land (1 lsl s) = 0 in
      let any_live = List.exists live (List.init nshards Fun.id) in
      match Ring.lookup ring ~live key with
      | Some s -> live s && s >= 0 && s < nshards
      | None -> not any_live)

let prop_removal_remaps_only_victim_arc =
  let gen =
    QCheck.Gen.(
      triple (string_size ~gen:printable (int_range 1 40)) (int_range 2 8) (int_range 0 7))
  in
  QCheck.Test.make ~name:"removing a shard only remaps its own arc" ~count:500
    (QCheck.make gen) (fun (key, nshards, v) ->
      let victim = v mod nshards in
      let ring = Ring.create ~nshards () in
      let owner = Ring.owner ring key in
      let without = Ring.lookup ring ~live:(fun s -> s <> victim) key in
      if owner <> victim then
        (* keys not on the victim's arc must not move *)
        without = Some owner
      else
        (* the victim's keys move somewhere live *)
        match without with Some s -> s <> victim | None -> false)

let prop_readd_restores_ownership =
  let gen =
    QCheck.Gen.(pair (string_size ~gen:printable (int_range 1 40)) (int_range 1 8))
  in
  QCheck.Test.make ~name:"re-adding a shard restores exact ownership" ~count:500
    (QCheck.make gen) (fun (key, nshards) ->
      let ring = Ring.create ~nshards () in
      (* every router instance derives the identical ring *)
      Ring.points ring = Ring.points (Ring.create ~nshards ())
      && Ring.lookup ring ~live:(fun _ -> true) key = Some (Ring.owner ring key))

(* ---- replica stream ---- *)

let example_service ?(config = Service.default_config) () =
  let device = Core.Presets.example_6q () in
  let registry = Registry.create () in
  ignore
    (Registry.add_static registry ~id:"example6q" ~device
       ~xtalk:(Device.ground_truth device));
  Service.create ~config registry

let bell ~order nq =
  let c = Circuit.create nq in
  let c = Circuit.h c 0 in
  let c = Circuit.cnot c ~control:0 ~target:1 in
  List.fold_left Circuit.measure c order

let sample_records n =
  let service = example_service () in
  List.init n (fun i ->
      let circuit = bell ~order:[ i mod 6 ] 6 in
      match Service.compile service ~device:"example6q" circuit with
      | Ok o ->
        {
          Journal.key = o.Service.key;
          entry = { Cache.schedule = o.Service.schedule; stats = o.Service.stats; epoch = o.Service.epoch };
        }
      | Error e -> Alcotest.fail e)

let replica_roundtrip_and_continuation () =
  let path = fresh_dir "qcx_test_replica" ^ ".ndjson" in
  if Sys.file_exists path then Sys.remove path;
  let records = sample_records 4 in
  let first, rest =
    match records with a :: b :: c :: d :: _ -> ([ a; b; c ], d) | _ -> assert false
  in
  (match Replica.open_sender ~path ~shard:0 () with
  | Error e -> Alcotest.fail e
  | Ok sender ->
    List.iter (Replica.append sender) first;
    (match Replica.flush sender with Ok _ -> () | Error e -> Alcotest.fail e);
    Alcotest.(check (pair int int)) "no lag after flush" (0, 0) (Replica.lag sender);
    Replica.close sender);
  let r = Replica.replay ~path ~shard:0 in
  Alcotest.(check int) "three records replayed" 3 (List.length r.Replica.records);
  Alcotest.(check bool) "not torn" false r.Replica.torn;
  Alcotest.(check (list int)) "sequence 0..2" [ 0; 1; 2 ]
    (List.map fst r.Replica.records);
  (* a reopened sender continues the stream, it does not restart it *)
  (match Replica.open_sender ~path ~shard:0 () with
  | Error e -> Alcotest.fail e
  | Ok sender ->
    Replica.append sender rest;
    (match Replica.flush sender with Ok _ -> () | Error e -> Alcotest.fail e);
    Replica.close sender);
  let r = Replica.replay ~path ~shard:0 in
  Alcotest.(check (list int)) "sequence continues 0..3" [ 0; 1; 2; 3 ]
    (List.map fst r.Replica.records);
  (* a replica file cannot be replayed into the wrong shard *)
  let wrong = Replica.replay ~path ~shard:1 in
  Alcotest.(check int) "wrong shard tag replays nothing" 0
    (List.length wrong.Replica.records);
  Sys.remove path

let replica_torn_tail () =
  let path = fresh_dir "qcx_test_replica_torn" ^ ".ndjson" in
  if Sys.file_exists path then Sys.remove path;
  let records = sample_records 3 in
  (match Replica.open_sender ~path ~shard:2 () with
  | Error e -> Alcotest.fail e
  | Ok sender ->
    List.iter (Replica.append sender) records;
    (match Replica.flush sender with Ok _ -> () | Error e -> Alcotest.fail e);
    Replica.close sender);
  let intact = Replica.replay ~path ~shard:2 in
  (* tear the last record in half *)
  let tear = intact.Replica.valid_bytes - 7 in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd tear;
  Unix.close fd;
  let torn = Replica.replay ~path ~shard:2 in
  Alcotest.(check bool) "torn tail detected" true torn.Replica.torn;
  Alcotest.(check int) "valid prefix survives" 2 (List.length torn.Replica.records);
  (* reopening truncates back to the valid prefix and continues after it *)
  (match Replica.open_sender ~path ~shard:2 () with
  | Error e -> Alcotest.fail e
  | Ok sender ->
    Replica.append sender (List.hd records);
    (match Replica.flush sender with Ok _ -> () | Error e -> Alcotest.fail e);
    Replica.close sender);
  let healed = Replica.replay ~path ~shard:2 in
  Alcotest.(check bool) "healed tail is valid" false healed.Replica.torn;
  Alcotest.(check (list int)) "sequence 0,1,2 after heal" [ 0; 1; 2 ]
    (List.map fst healed.Replica.records);
  Sys.remove path

let replica_partition_lag_heals () =
  let path = fresh_dir "qcx_test_replica_part" ^ ".ndjson" in
  if Sys.file_exists path then Sys.remove path;
  let records = sample_records 3 in
  (match Replica.open_sender ~path ~shard:0 () with
  | Error e -> Alcotest.fail e
  | Ok sender ->
    (* the first two flush attempts hit a partitioned peer *)
    Replica.set_fault sender (Some (fun ~nth -> if nth < 2 then Some Replica.Partition else None));
    Replica.append sender (List.nth records 0);
    Alcotest.(check bool) "partition leaves lag" true (fst (Replica.lag sender) > 0);
    Replica.append sender (List.nth records 1);
    Alcotest.(check int) "lag accrues" 2 (fst (Replica.lag sender));
    Alcotest.(check bool) "failed flushes counted" true (Replica.failed_flushes sender >= 2);
    (* the partition heals: the next append drains the whole backlog *)
    Replica.append sender (List.nth records 2);
    Alcotest.(check (pair int int)) "healed partition drains lag" (0, 0) (Replica.lag sender);
    Alcotest.(check int) "all three acked" 3 (Replica.acked sender);
    Replica.close sender);
  let r = Replica.replay ~path ~shard:0 in
  Alcotest.(check (list int)) "all records on disk in order" [ 0; 1; 2 ]
    (List.map fst r.Replica.records);
  Sys.remove path

(* ---- fleet kill / rebuild ---- *)

let fleet_config = { Service.default_config with Service.cache_capacity = 64 }

let make_registry () =
  let device = Core.Presets.example_6q () in
  let registry = Registry.create () in
  ignore
    (Registry.add_static registry ~id:"example6q" ~device
       ~xtalk:(Device.ground_truth device));
  registry

let compile_line i =
  Json.to_string ~indent:false
    (Wire.request_to_json
       (Wire.Compile
          {
            id = Printf.sprintf "t%d" i;
            device = "example6q";
            circuit = bell ~order:[ i mod 6; (i + 1) mod 6 ] 6;
            params = Wire.default_params;
          }))

let fleet_rebuild_is_bit_identical () =
  let root = fresh_dir "qcx_test_fleet_rebuild" in
  match Fleet.create ~service_config:fleet_config ~root ~nshards:2 ~make_registry () with
  | Error e -> Alcotest.fail e
  | Ok fleet ->
    let lines = List.init 8 compile_line in
    let out, _ = Fleet.handle_lines fleet lines in
    Alcotest.(check int) "all compiles answered" 8 (List.length out);
    List.iter
      (fun line ->
        match Json.of_string line with
        | Ok doc -> Alcotest.(check bool) "ok" true (Json.find_str "status" doc = Ok "ok")
        | Error e -> Alcotest.fail e)
      out;
    let reference =
      match Fleet.kill fleet ~shard:0 with Ok r -> r | Error e -> Alcotest.fail e
    in
    Alcotest.(check int) "one shard left" 1 (Fleet.alive fleet);
    let boot =
      match Fleet.restart fleet ~shard:0 with Ok b -> b | Error e -> Alcotest.fail e
    in
    Alcotest.(check bool) "rebuild came from the peer replica" true
      (boot.Shard.rebuilt_from_replica > 0);
    let rebuilt =
      match Fleet.canonical_state fleet ~shard:0 with
      | Ok s -> s
      | Error e -> Alcotest.fail e
    in
    Alcotest.(check string) "rebuild is bit-identical to the lost state" reference rebuilt;
    Fleet.close fleet

let fleet_router_failover () =
  let root = fresh_dir "qcx_test_fleet_failover" in
  match Fleet.create ~service_config:fleet_config ~root ~nshards:3 ~make_registry () with
  | Error e -> Alcotest.fail e
  | Ok fleet ->
    (* the last line is rejected by the router itself, which must echo its id *)
    let bad =
      {|{"op":"compile","id":"bad","device":"example6q","circuit":{"nqubits":1e300,"gates":[]}}|}
    in
    let lines = List.init 6 compile_line @ [ bad ] in
    let before, _ = Fleet.handle_lines fleet lines in
    (match Json.of_string (List.nth before 6) with
    | Ok doc ->
      Alcotest.(check (list (result string string))) "bad compile is typed, with its id"
        [ Ok "bad"; Ok "error"; Ok "integer out of range" ]
        (List.map (fun k -> Json.find_str k doc) [ "id"; "status"; "error" ])
    | Error e -> Alcotest.fail e);
    let schedules lines =
      List.filter_map
        (fun line ->
          match Json.of_string line with
          | Ok doc ->
            Some
              ( Result.value ~default:"" (Json.find_str "id" doc),
                Result.value ~default:"" (Json.find_str "key" doc),
                Option.map (Json.to_string ~indent:false) (Json.member "schedule" doc) )
          | Error _ -> None)
        lines
    in
    ignore (Fleet.kill fleet ~shard:1 : (string, string) result);
    (* every request still answers, bit-identically, during failover *)
    let after, _ = Fleet.handle_lines fleet lines in
    Alcotest.(check bool) "failover answers are bit-identical" true
      (schedules before = schedules after);
    let health () =
      match Fleet.handle_lines fleet [ {|{"op":"health","id":"h"}|} ] with
      | [ line ], _ -> (
        match Json.of_string line with Ok doc -> doc | Error e -> Alcotest.fail e)
      | _ -> Alcotest.fail "no health response"
    in
    let shard_row doc k =
      match Option.bind (Json.member "health" doc) (Json.member "shards") with
      | Some (Json.Array rows) ->
        List.find
          (fun row -> Json.member "shard" row = Some (Json.Number (float_of_int k)))
          rows
      | _ -> Alcotest.fail "no shards in health"
    in
    let dead = shard_row (health ()) 1 in
    Alcotest.(check bool) "killed shard is unreachable" true
      (Json.member "reachable" dead = Some (Json.Bool false));
    (match Fleet.restart fleet ~shard:1 with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    let back = shard_row (health ()) 1 in
    Alcotest.(check bool) "restarted shard is live again" true
      (Json.member "reachable" back = Some (Json.Bool true)
      && Json.find_str "state" back = Ok "live");
    (* the failover was recorded on the router *)
    (match Option.bind (Json.member "health" (health ())) (Json.member "router") with
    | Some r ->
      (match Json.member "failovers" r with
      | Some (Json.Number n) -> Alcotest.(check bool) "failovers >= 1" true (n >= 1.0)
      | _ -> Alcotest.fail "no failover counter");
      Alcotest.(check bool) "last failover timestamped" true
        (match Json.member "last_failover_at" r with
        | Some (Json.Number _) -> true
        | _ -> false)
    | None -> Alcotest.fail "no router health");
    Fleet.close fleet

let fleet_all_dead_is_unavailable () =
  let root = fresh_dir "qcx_test_fleet_dead" in
  match Fleet.create ~service_config:fleet_config ~root ~nshards:2 ~make_registry () with
  | Error e -> Alcotest.fail e
  | Ok fleet ->
    ignore (Fleet.kill fleet ~shard:0 : (string, string) result);
    ignore (Fleet.kill fleet ~shard:1 : (string, string) result);
    let out, _ = Fleet.handle_lines fleet [ compile_line 0 ] in
    (match out with
    | [ line ] -> (
      match Json.of_string line with
      | Ok doc ->
        Alcotest.(check bool) "typed unavailable" true
          (Json.find_str "status" doc = Ok "unavailable")
      | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail "expected one response");
    Fleet.close fleet

(* ---- typed overload shed ---- *)

let server_sheds_over_bound () =
  let path = tmp (Printf.sprintf "qcx_test_shed_%d.sock" (Unix.getpid ())) in
  if Sys.file_exists path then Sys.remove path;
  let gate = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let handle frames =
    while not (Atomic.get gate) do
      Unix.sleepf 0.01
    done;
    let stop = ref false in
    let resps =
      List.filter_map
        (function
          | Server.Line l ->
            if l = "shutdown" then stop := true;
            Some ("ok:" ^ l)
          | Server.Oversize -> Some "oversize")
        frames
    in
    (resps, !stop)
  in
  let server =
    Domain.spawn (fun () ->
        try
          Server.serve_socket_with ~max_pending:0
            ~stop:(fun () -> Unix.gettimeofday () -. t0 > 30.0)
            ~handle ~path ()
        with _ -> ())
  in
  let connect () =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let rec go tries =
      match Unix.connect sock (Unix.ADDR_UNIX path) with
      | () -> ()
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0
        ->
        Unix.sleepf 0.05;
        go (tries - 1)
    in
    go 100;
    Unix.setsockopt_float sock Unix.SO_RCVTIMEO 15.0;
    sock
  in
  let send sock s = ignore (Unix.write_substring sock s 0 (String.length s)) in
  let read_line sock =
    let buf = Bytes.create 1 in
    let b = Buffer.create 64 in
    let rec go () =
      match Unix.read sock buf 0 1 with
      | 0 -> Buffer.contents b
      | _ ->
        if Bytes.get buf 0 = '\n' then Buffer.contents b
        else begin
          Buffer.add_char b (Bytes.get buf 0);
          go ()
        end
    in
    go ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      Domain.join server;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* c1 occupies the (single) serve slot while the gate is shut;
         c2 and c3 pile up behind it.  With max_pending = 0 exactly one
         of them is admitted and the other is shed with a typed
         overloaded response. *)
      let c1 = connect () in
      send c1 "ping\n";
      let c2 = connect () in
      send c2 "shutdown\n";
      let c3 = connect () in
      send c3 "shutdown\n";
      Unix.sleepf 0.3;
      Atomic.set gate true;
      Alcotest.(check string) "first client is served" "ok:ping" (read_line c1);
      Unix.close c1;
      let r2 = read_line c2 in
      let r3 = read_line c3 in
      let is_shed r =
        match Json.of_string r with
        | Ok doc -> Json.find_str "status" doc = Ok "overloaded"
        | Error _ -> false
      in
      let served r = r = "ok:shutdown" in
      Alcotest.(check bool) "one served, one shed with a typed overloaded" true
        ((served r2 && is_shed r3) || (served r3 && is_shed r2));
      Unix.close c2;
      Unix.close c3)

(* ---- durability + health hooks ---- *)

let store_fsync_dir_roundtrip () =
  let dir = fresh_dir "qcx_test_store_fsync" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "doc.json" in
  let doc = Json.Object [ ("x", Json.Number 1.0) ] in
  (match Store.save ~path doc with Ok () -> () | Error e -> Alcotest.fail e);
  (* must not raise, including on plain directories *)
  Store.fsync_dir dir;
  Store.fsync_dir (Filename.concat dir "no-such-subdir");
  match Store.load ~path with
  | Ok loaded -> Alcotest.(check bool) "roundtrip" true (loaded = doc)
  | Error e -> Alcotest.fail e

let service_hooks_fire () =
  let service = example_service () in
  let inserted = ref [] in
  Service.set_on_insert service (Some (fun key _ -> inserted := key :: !inserted));
  Service.set_extra_health service (Some (fun () -> [ ("marker", Json.Bool true) ]));
  let o =
    match Service.compile service ~device:"example6q" (bell ~order:[ 0 ] 6) with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "on_insert saw the cold compile" [ o.Service.key ]
    !inserted;
  (* a cache hit must not re-fire the insert hook (no re-replication) *)
  (match Service.compile service ~device:"example6q" (bell ~order:[ 0 ] 6) with
  | Ok o2 -> Alcotest.(check bool) "second compile is a hit" true o2.Service.cached
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "hook fired once" 1 (List.length !inserted);
  let health, _ = Server.handle_lines service [ {|{"op":"health","id":"h"}|} ] in
  match health with
  | [ line ] -> (
    match Json.of_string line with
    | Ok doc ->
      Alcotest.(check bool) "extra health fields surface" true
        (Option.bind (Json.member "health" doc) (Json.member "marker")
        = Some (Json.Bool true))
    | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "no health response"

let suite =
  [
    ( "fleet.ring",
      [
        QCheck_alcotest.to_alcotest prop_key_maps_to_one_live_shard;
        QCheck_alcotest.to_alcotest prop_removal_remaps_only_victim_arc;
        QCheck_alcotest.to_alcotest prop_readd_restores_ownership;
      ] );
    ( "fleet.replica",
      [
        Alcotest.test_case "roundtrip and continuation" `Quick
          replica_roundtrip_and_continuation;
        Alcotest.test_case "torn tail" `Quick replica_torn_tail;
        Alcotest.test_case "partition lag heals" `Quick replica_partition_lag_heals;
      ] );
    ( "fleet.rebuild",
      [
        Alcotest.test_case "peer rebuild is bit-identical" `Quick
          fleet_rebuild_is_bit_identical;
      ] );
    ( "fleet.router",
      [
        Alcotest.test_case "failover" `Quick fleet_router_failover;
        Alcotest.test_case "all shards dead" `Quick fleet_all_dead_is_unavailable;
      ] );
    ( "fleet.server",
      [ Alcotest.test_case "typed overload shed" `Quick server_sheds_over_bound ] );
    ( "fleet.hooks",
      [
        Alcotest.test_case "store fsync dir" `Quick store_fsync_dir_roundtrip;
        Alcotest.test_case "service hooks" `Quick service_hooks_fire;
      ] );
  ]
