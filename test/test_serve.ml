(* Tests for the compilation service: canonicalization, the
   content-addressed LRU schedule cache, the device registry with
   epoch bumps, admission-controlled batch dispatch, and the NDJSON
   server loop. *)

module Canon = Core.Canon
module Wire = Core.Wire
module Cache = Core.Cache
module Registry = Core.Registry
module Service = Core.Service
module Server = Core.Server
module Json = Core.Json
module Circuit = Core.Circuit
module Device = Core.Device

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let bell_with_measures ~order nq =
  let c = Circuit.create nq in
  let c = Circuit.h c 0 in
  let c = Circuit.cnot c ~control:0 ~target:1 in
  let c = Circuit.cnot c ~control:2 ~target:3 in
  List.fold_left Circuit.measure c order

(* ---- canonicalization ---- *)

let canon_measure_order () =
  let a = bell_with_measures ~order:[ 0; 1; 2 ] 6 in
  let b = bell_with_measures ~order:[ 2; 0; 1 ] 6 in
  Alcotest.(check string) "measure order is canonical" (Canon.digest a) (Canon.digest b)

let canon_symmetric_operands () =
  let with_ops f =
    let c = Circuit.create 4 in
    let c = f c in
    Circuit.measure_all c
  in
  let barrier_a = with_ops (fun c -> Circuit.barrier (Circuit.h c 0) [ 0; 1; 2 ]) in
  let barrier_b = with_ops (fun c -> Circuit.barrier (Circuit.h c 0) [ 2; 1; 0 ]) in
  Alcotest.(check string) "barrier operand order" (Canon.digest barrier_a)
    (Canon.digest barrier_b);
  let swap_a = with_ops (fun c -> Circuit.swap c 0 1) in
  let swap_b = with_ops (fun c -> Circuit.swap c 1 0) in
  Alcotest.(check string) "swap operand order" (Canon.digest swap_a) (Canon.digest swap_b)

let canon_swap_expansion () =
  let logical = Circuit.swap (Circuit.h (Circuit.create 4) 0) 0 1 in
  let explicit =
    let c = Circuit.h (Circuit.create 4) 0 in
    let c = Circuit.cnot c ~control:0 ~target:1 in
    let c = Circuit.cnot c ~control:1 ~target:0 in
    Circuit.cnot c ~control:0 ~target:1
  in
  Alcotest.(check string) "swap = its 3-CNOT expansion" (Canon.digest logical)
    (Canon.digest explicit)

let canon_width_and_difference () =
  let narrow = bell_with_measures ~order:[ 0; 1 ] 4 in
  let wide = bell_with_measures ~order:[ 0; 1 ] 6 in
  Alcotest.(check string) "nqubits widening is canonical"
    (Canon.digest ~nqubits:6 narrow) (Canon.digest wide);
  let other = Circuit.x (Circuit.create 4) 0 in
  Alcotest.(check bool) "different circuits differ" false
    (Canon.digest narrow = Canon.digest other);
  Alcotest.(check bool) "narrowing below used qubits is rejected" true
    (match Canon.normalize ~nqubits:2 narrow with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The fused key serializer must produce the exact bytes of the
   two-pass normalize+serialize pipeline — it IS the cache key on the
   hot path, so any divergence silently splits or aliases keys. *)
let canon_key_serialize_fused () =
  let check ?nqubits label circuit =
    Alcotest.(check string) label
      (Canon.serialize (Canon.normalize ?nqubits circuit))
      (Canon.key_serialize ?nqubits circuit)
  in
  check "bell with measures" (bell_with_measures ~order:[ 2; 0; 1 ] 6);
  check ~nqubits:9 "widened register" (bell_with_measures ~order:[ 0; 1 ] 4);
  let c = Circuit.create 5 in
  let c = Circuit.swap c 3 1 in
  let c = Circuit.measure (Circuit.measure c 4) 2 in
  let c = Circuit.barrier c [ 4; 0; 2 ] in
  let c = Circuit.rz (Circuit.rz (Circuit.rx c 0.5 0) 0.25 1) 0.25 2 in
  let c = Circuit.rz c (-0.0) 3 in
  let c = Circuit.u2 c 1.5 (-2.5) 4 in
  check "swaps, split measures, rotations" (Circuit.measure_all c);
  let rng = Core.Rng.create 11 in
  for i = 0 to 19 do
    let nq = 3 + Core.Rng.int rng 8 in
    let c = ref (Circuit.create nq) in
    for _ = 0 to 20 + Core.Rng.int rng 30 do
      let q = Core.Rng.int rng nq in
      let p = (q + 1 + Core.Rng.int rng (nq - 1)) mod nq in
      match Core.Rng.int rng 8 with
      | 0 -> c := Circuit.h !c q
      | 1 -> c := Circuit.cnot !c ~control:q ~target:p
      | 2 -> c := Circuit.swap !c q p
      | 3 -> c := Circuit.measure !c q
      | 4 -> c := Circuit.barrier !c (if q < p then [ q; p ] else [ p; q ])
      | 5 -> c := Circuit.rz !c (Core.Rng.unit_float rng) q
      | 6 -> c := Circuit.rx !c (Core.Rng.unit_float rng) q
      | _ -> c := Circuit.x !c q
    done;
    check (Printf.sprintf "random circuit %d" i) ~nqubits:(nq + 2) !c
  done;
  Alcotest.(check bool) "narrowing still rejected" true
    (match Canon.key_serialize ~nqubits:2 (bell_with_measures ~order:[ 0; 1 ] 4) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- cache ---- *)

let dummy_entry device label =
  let c = Circuit.measure_all (Circuit.cnot (Circuit.h (Circuit.create 4) 0) ~control:0 ~target:1) in
  let c = if label then Circuit.x c 2 else c in
  let sched = Core.Par_sched.schedule device (Circuit.decompose_swaps c) in
  {
    Cache.schedule = sched;
    stats =
      {
        Core.Xtalk_sched.pairs = 0;
        clusters = 0;
        windows = 0;
        nodes = 0;
        optimal = false;
        objective = 0.0;
        solve_seconds = 0.0;
        cpu_seconds = 0.0;
        idle_total = 0.0;
        idle_max = 0.0;
        rung = Core.Xtalk_sched.Parallel;
      };
    epoch = "";
  }

let cache_lru_eviction () =
  let device = Core.Presets.linear 4 in
  let e = dummy_entry device false in
  let cache = Cache.create ~capacity:2 in
  Cache.add cache "k1" e;
  Cache.add cache "k2" e;
  ignore (Cache.find cache "k1");
  (* k2 is now least recent *)
  Cache.add cache "k3" e;
  Alcotest.(check bool) "k2 evicted" false (Cache.mem cache "k2");
  Alcotest.(check (list string)) "recency order" [ "k3"; "k1" ]
    (Cache.keys_newest_first cache);
  let c = Cache.counters cache in
  Alcotest.(check int) "hits" 1 c.Cache.hits;
  Alcotest.(check int) "evictions" 1 c.Cache.evictions;
  Alcotest.(check int) "insertions" 3 c.Cache.insertions;
  Alcotest.(check int) "size" 2 c.Cache.size

(* ---- registry ---- *)

let registry_epoch_bumps () =
  let device = Core.Presets.example_6q () in
  let registry = Registry.create () in
  let e0 =
    Registry.add_static registry ~id:"dev" ~device ~xtalk:Core.Crosstalk.empty
  in
  (* Same data: no bump, same epoch. *)
  let e1 =
    match Registry.set_xtalk registry ~id:"dev" Core.Crosstalk.empty with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check string) "same data same epoch" e0.Registry.epoch e1.Registry.epoch;
  Alcotest.(check int) "no bump" 0 e1.Registry.bumps;
  let e2 =
    match Registry.set_xtalk registry ~id:"dev" (Device.ground_truth device) with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "new data new epoch" false (e2.Registry.epoch = e1.Registry.epoch);
  Alcotest.(check int) "bumped" 1 e2.Registry.bumps;
  Alcotest.(check bool) "unknown id errors" true
    (Result.is_error (Registry.set_xtalk registry ~id:"nope" Core.Crosstalk.empty))

let registry_snapshots_and_refresh () =
  let device = Core.Presets.example_6q () in
  let dir = tmp (Printf.sprintf "qcx_test_registry_%d" (Unix.getpid ())) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let old_path = Filename.concat dir "old.json" in
  let new_path = Filename.concat dir "new.json" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ old_path; new_path ];
  let old_xtalk =
    Core.Crosstalk.set Core.Crosstalk.empty ~target:(0, 1) ~spectator:(2, 3) 0.05
  in
  (match Core.Store.save_crosstalk ~path:old_path old_xtalk with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Newest-first walk: the (missing) new path is skipped silently. *)
  let registry = Registry.create () in
  let e0 = Registry.add_from_paths registry ~id:"dev" ~device ~paths:[ new_path; old_path ] in
  Alcotest.(check (option string)) "served from old snapshot" (Some old_path)
    e0.Registry.source;
  Alcotest.(check string) "epoch is data digest" (Registry.epoch_of_xtalk old_xtalk)
    e0.Registry.epoch;
  (* Characterization writes a fresh snapshot; bump picks it up. *)
  (match Core.Store.save_crosstalk ~path:new_path (Device.ground_truth device) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Registry.refresh registry ~id:"dev" with
  | Error m -> Alcotest.fail m
  | Ok (e1, _) ->
    Alcotest.(check (option string)) "now serves new snapshot" (Some new_path)
      e1.Registry.source;
    Alcotest.(check bool) "epoch changed" false (e1.Registry.epoch = e0.Registry.epoch);
    Alcotest.(check int) "bump recorded" 1 e1.Registry.bumps);
  (* Corrupt the new snapshot: refresh quarantines it and falls back. *)
  let oc = open_out new_path in
  output_string oc "{ truncated";
  close_out oc;
  match Registry.refresh registry ~id:"dev" with
  | Error m -> Alcotest.fail m
  | Ok (e2, _) ->
    Alcotest.(check (option string)) "fell back to old snapshot" (Some old_path)
      e2.Registry.source;
    Alcotest.(check bool) "corruption recorded" true (e2.Registry.quarantined <> []);
    Alcotest.(check bool) "corrupt file moved aside" false (Sys.file_exists new_path)

(* ---- service ---- *)

let example_service ?(config = Service.default_config) () =
  let device = Core.Presets.example_6q () in
  let registry = Registry.create () in
  ignore
    (Registry.add_static registry ~id:"example6q" ~device
       ~xtalk:(Device.ground_truth device));
  Service.create ~config registry

let sched_json o = Json.to_string (Wire.schedule_to_json o.Service.schedule)

let service_hit_is_cold_compile () =
  let service = example_service () in
  let a = bell_with_measures ~order:[ 1; 0 ] 6 in
  let b = bell_with_measures ~order:[ 0; 1 ] 6 in
  let o1 =
    match Service.compile service ~device:"example6q" a with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "first compile is cold" false o1.Service.cached;
  let o2 =
    match Service.compile service ~device:"example6q" b with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "canonicalized variant hits" true o2.Service.cached;
  Alcotest.(check string) "same key" o1.Service.key o2.Service.key;
  Alcotest.(check string) "bit-identical schedule" (sched_json o1) (sched_json o2)

let service_epoch_bump_invalidates () =
  let service = example_service () in
  let circuit = bell_with_measures ~order:[ 0; 1 ] 6 in
  let o1 =
    match Service.compile service ~device:"example6q" circuit with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  (match Registry.set_xtalk (Service.registry service) ~id:"example6q" Core.Crosstalk.empty with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let o2 =
    match Service.compile service ~device:"example6q" circuit with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "epoch bump misses" false o2.Service.cached;
  Alcotest.(check bool) "key changed with epoch" false (o1.Service.key = o2.Service.key)

(* The snapshot is the journal's own format: after inserts, LRU
   evictions, an epoch purge and the re-insert of an evicted key, a
   checkpoint holds exactly the live entries, least recent first, each
   the byte-identical journal line of the live entry — and recovery
   reproduces the cache's recency and every entry. *)
let cache_persistence_roundtrip () =
  let device = Core.Presets.example_6q () in
  let make_service () =
    let registry = Registry.create () in
    ignore (Registry.add_static registry ~id:"a" ~device ~xtalk:(Device.ground_truth device));
    ignore (Registry.add_static registry ~id:"b" ~device ~xtalk:Core.Crosstalk.empty);
    Service.create ~config:{ Service.default_config with Service.cache_capacity = 3 } registry
  in
  let cache_file = tmp (Printf.sprintf "qcx_test_snapshot_%d.json" (Unix.getpid ())) in
  let files = [ cache_file; cache_file ^ ".journal" ] in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files;
  Fun.protect ~finally:(fun () -> List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files)
  @@ fun () ->
  let service = make_service () in
  (match Service.enable_persistence service ~cache_file ~fsync:false () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let circuit i = bell_with_measures ~order:(List.init (i + 1) Fun.id) 6 in
  let compile device i =
    match Service.compile service ~device (circuit i) with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let c0 = compile "a" 0 in
  ignore (compile "b" 1);
  ignore (compile "a" 2);
  ignore (compile "b" 3);
  Alcotest.(check bool) "c0 evicted" false (Cache.mem (Service.cache service) c0.Service.key);
  Alcotest.(check bool) "b's entry hits" true (compile "b" 1).Service.cached;
  let bumped = Core.Crosstalk.set Core.Crosstalk.empty ~target:(0, 1) ~spectator:(2, 3) 0.05 in
  (match Registry.set_xtalk (Service.registry service) ~id:"b" bumped with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "bump purges b's two entries" 2 (Service.purge_stale service);
  Alcotest.(check bool) "evicted key re-inserted cold" false (compile "a" 0).Service.cached;
  ignore (compile "b" 4);
  (match Service.checkpoint service with Ok () -> () | Error e -> Alcotest.fail e);
  let cache = Service.cache service in
  let keys = Cache.keys_newest_first cache in
  Alcotest.(check int) "three live entries" 3 (List.length keys);
  let entries = List.map (fun key -> (key, Option.get (Cache.find cache key))) keys in
  let snapshot =
    let ic = open_in_bin cache_file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text
  in
  Alcotest.(check string) "snapshot = live entries' journal lines, oldest first"
    (String.concat ""
       (List.rev_map (fun (key, entry) -> Core.Journal.line_of_record { Core.Journal.key; entry } ^ "\n") entries))
    snapshot;
  let service2 = make_service () in
  match Service.recover service2 ~cache_file ~fsync:false () with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "all restored from the snapshot" 3 r.Service.snapshot_entries;
    Alcotest.(check int) "nothing dropped" 0 r.Service.snapshot_dropped;
    Alcotest.(check int) "journal empty after the checkpoint" 0 r.Service.journal_entries;
    let cache2 = Service.cache service2 in
    Alcotest.(check (list string)) "recency reproduced" keys (Cache.keys_newest_first cache2);
    List.iter
      (fun (key, entry) ->
        Alcotest.(check string) "entry identical"
          (Json.to_string (Cache.entry_to_json entry))
          (Json.to_string (Cache.entry_to_json (Option.get (Cache.find cache2 key)))))
      entries

let service_rejects_bad_requests () =
  let service = example_service () in
  let circuit = bell_with_measures ~order:[ 0 ] 6 in
  Alcotest.(check bool) "unknown device" true
    (Result.is_error (Service.compile service ~device:"nope" circuit));
  let wide = Circuit.measure_all (Circuit.h (Circuit.create 9) 8) in
  Alcotest.(check bool) "circuit wider than device" true
    (Result.is_error (Service.compile service ~device:"example6q" wide))

let compile_req id circuit =
  Wire.Compile
    { id; device = "example6q"; circuit; params = Wire.default_params }

let service_admission_control () =
  let config = { Service.default_config with Service.queue_bound = 2 } in
  let service = example_service ~config () in
  let circuits =
    List.init 4 (fun i ->
        Circuit.measure_all (Circuit.x (Circuit.h (Circuit.create 6) 0) i))
  in
  let reqs =
    List.mapi (fun i c -> compile_req (Printf.sprintf "c%d" i) c) circuits
    @ [ Wire.Ping { id = "p" } ]
  in
  let responses = Service.handle_batch service reqs in
  let statuses =
    List.map (fun r -> match Json.find_str "status" r with Ok s -> s | Error e -> e) responses
  in
  Alcotest.(check (list string)) "two admitted, two overloaded, ping served"
    [ "ok"; "ok"; "overloaded"; "overloaded"; "ok" ]
    statuses

let strip_timing json =
  (* solve_seconds/cpu_seconds are timing measurements; everything
     else in a compile response is deterministic. *)
  match json with
  | Json.Object fields ->
    Json.Object
      (List.map
         (function
           | "stats", Json.Object s ->
             ( "stats",
               Json.Object
                 (List.remove_assoc "cpu_seconds" (List.remove_assoc "solve_seconds" s)) )
           | kv -> kv)
         fields)
  | other -> other

let service_batch_jobs_determinism () =
  let circuits =
    List.init 6 (fun i ->
        let c = bell_with_measures ~order:[ 0; 1; 2; 3 ] 6 in
        if i mod 3 = 0 then c else Circuit.measure_all (Circuit.x (Circuit.h (Circuit.create 6) 0) (i mod 3)))
  in
  let reqs = List.mapi (fun i c -> compile_req (Printf.sprintf "c%d" i) c) circuits in
  let responses_for jobs =
    let config = { Service.default_config with Service.jobs } in
    let service = example_service ~config () in
    List.map
      (fun r -> Json.to_string (strip_timing r))
      (Service.handle_batch service reqs)
  in
  Alcotest.(check (list string)) "responses identical for jobs 1 and 4" (responses_for 1)
    (responses_for 4)

let service_batch_dedup () =
  let service = example_service () in
  let circuit = bell_with_measures ~order:[ 0; 1 ] 6 in
  let reqs = [ compile_req "a" circuit; compile_req "b" circuit ] in
  let responses = Service.handle_batch service reqs in
  let scheds =
    List.map
      (fun r -> match Json.member "schedule" r with Some s -> Json.to_string s | None -> "?")
      responses
  in
  (match scheds with
  | [ a; b ] -> Alcotest.(check string) "identical schedules" a b
  | _ -> Alcotest.fail "expected two responses");
  (match Json.member "served" (Service.stats_json service) with
  | Some served ->
    Alcotest.(check bool) "one cold compile for the pair" true
      (Json.find_float "cold_compiles" served = Ok 1.0)
  | None -> Alcotest.fail "missing served stats");
  (* A hit never consults the compile slot: next to one new circuit,
     the repeated key costs no compile attempt. *)
  let consulted = Atomic.make 0 in
  Service.set_compile_fault service
    (Some
       (fun ~nth:_ ->
         Atomic.incr consulted;
         None));
  let fresh = Circuit.measure_all (Circuit.h (Circuit.create 6) 3) in
  let responses = Service.handle_batch service [ compile_req "c" circuit; compile_req "d" fresh ] in
  Alcotest.(check int) "one compile attempt, for the new key" 1 (Atomic.get consulted);
  Alcotest.(check (list (option bool))) "repeat is cached, new key is not"
    [ Some true; Some false ]
    (List.map
       (fun r -> match Json.member "cached" r with Some (Json.Bool b) -> Some b | _ -> None)
       responses)

(* ---- server loop ---- *)

let server_handle_lines () =
  let service = example_service () in
  let lines =
    [
      {|{"op":"ping","id":"p1"}|};
      "this is not json";
      {|{"op":"shutdown","id":"s1"}|};
      "";
    ]
  in
  let responses, stop = Server.handle_lines service lines in
  Alcotest.(check int) "three responses (blank skipped)" 3 (List.length responses);
  Alcotest.(check bool) "shutdown noticed" true stop;
  let status line =
    match Json.of_string line with
    | Ok doc -> ( match Json.find_str "status" doc with Ok s -> s | Error e -> e)
    | Error e -> e
  in
  Alcotest.(check (list string)) "statuses" [ "ok"; "error"; "ok" ]
    (List.map status responses)

let server_once_roundtrip () =
  let service = example_service () in
  let circuit = bell_with_measures ~order:[ 1; 0 ] 6 in
  let req = Json.to_string ~indent:false (Wire.request_to_json (compile_req "r1" circuit)) in
  let in_path = tmp "qcx_test_serve_in.ndjson" in
  let out_path = tmp "qcx_test_serve_out.ndjson" in
  let oc = open_out in_path in
  output_string oc (req ^ "\n" ^ req ^ "\n");
  close_out oc;
  let ic = open_in in_path in
  let oc = open_out out_path in
  Server.serve_channels service ic oc;
  close_in ic;
  close_out oc;
  let ic = open_in out_path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  let parse line = match Json.of_string line with Ok d -> d | Error e -> Alcotest.fail e in
  let d1 = parse l1 and d2 = parse l2 in
  Alcotest.(check bool) "first ok" true (Json.find_str "status" d1 = Ok "ok");
  Alcotest.(check bool) "responses carry schedules" true
    (Json.member "schedule" d1 <> None && Json.member "schedule" d2 <> None);
  Alcotest.(check bool) "same key both rounds" true
    (Json.find_str "key" d1 = Json.find_str "key" d2)

let server_socket_roundtrip () =
  let path = tmp (Printf.sprintf "qcx_test_serve_%d.sock" (Unix.getpid ())) in
  if Sys.file_exists path then Sys.remove path;
  (* The server runs in its own domain (fork is off-limits once Pool
     domains have existed); the test plays the client. *)
  let service = example_service () in
  let server =
    Domain.spawn (fun () -> try Server.serve_socket service ~path with _ -> ())
  in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Domain.join server;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
        let rec connect tries =
          match Unix.connect sock (Unix.ADDR_UNIX path) with
          | () -> ()
          | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
            when tries > 0 ->
            Unix.sleepf 0.05;
            connect (tries - 1)
        in
        connect 100;
        Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.0;
        let msg = {|{"op":"ping","id":"p1"}|} ^ "\n" ^ {|{"op":"shutdown","id":"s1"}|} ^ "\n" in
        ignore (Unix.write_substring sock msg 0 (String.length msg));
        let buf = Bytes.create 4096 in
        let rec read_lines acc =
          if List.length (String.split_on_char '\n' acc) >= 3 then acc
          else
            match Unix.read sock buf 0 (Bytes.length buf) with
            | 0 -> acc
            | n -> read_lines (acc ^ Bytes.sub_string buf 0 n)
        in
        let text = read_lines "" in
        let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
        Alcotest.(check int) "two responses over the socket" 2 (List.length lines);
        List.iter
          (fun line ->
            match Json.of_string line with
            | Ok doc ->
              Alcotest.(check bool) "status ok" true (Json.find_str "status" doc = Ok "ok")
            | Error e -> Alcotest.fail e)
          lines)

(* ---- reactor concurrency semantics ---- *)

let connect_client path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect sock (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.sleepf 0.05;
      go (tries - 1)
  in
  go 100;
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 15.0;
  sock

let send_str sock s = ignore (Unix.write_substring sock s 0 (String.length s))

let read_lines sock n =
  let buf = Bytes.create 65536 in
  let rec go acc =
    let complete =
      List.length (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' acc))
    in
    if complete >= n then acc
    else
      match Unix.read sock buf 0 (Bytes.length buf) with
      | 0 -> acc
      | k -> go (acc ^ Bytes.sub_string buf 0 k)
  in
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (go ""))

(* A connection that stalls mid-frame must not delay other clients:
   under the old serial accept loop, B would wait behind A's open
   connection forever; the reactor serves B while A's partial frame
   sits in its read buffer. *)
let server_stalled_reader_no_hol () =
  let path = tmp (Printf.sprintf "qcx_test_hol_%d.sock" (Unix.getpid ())) in
  if Sys.file_exists path then Sys.remove path;
  let service = example_service () in
  let server = Domain.spawn (fun () -> try Server.serve_socket service ~path with _ -> ()) in
  let a = connect_client path in
  let b = connect_client path in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      (try Unix.close b with Unix.Unix_error _ -> ());
      Domain.join server;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* A opens a frame and stalls — no terminating newline. *)
      send_str a {|{"op":"ping","id":"a1"|};
      Unix.sleepf 0.1;
      (* B must be served while A is still stalled. *)
      send_str b ({|{"op":"ping","id":"b1"}|} ^ "\n");
      (match read_lines b 1 with
      | [ line ] ->
        let doc = match Json.of_string line with Ok d -> d | Error e -> Alcotest.fail e in
        Alcotest.(check bool) "b served while a stalls" true
          (Json.find_str "id" doc = Ok "b1" && Json.find_str "status" doc = Ok "ok")
      | other -> Alcotest.fail (Printf.sprintf "expected 1 line, got %d" (List.length other)));
      (* A completes its frame and is served normally. *)
      send_str a ("}\n" ^ {|{"op":"shutdown","id":"a2"}|} ^ "\n");
      match read_lines a 2 with
      | [ l1; _ ] ->
        let doc = match Json.of_string l1 with Ok d -> d | Error e -> Alcotest.fail e in
        Alcotest.(check bool) "a's late frame served" true (Json.find_str "id" doc = Ok "a1")
      | other -> Alcotest.fail (Printf.sprintf "expected 2 lines, got %d" (List.length other)))

(* Cold compiles from different connections coalesce into one shared
   batch — and the responses must be bit-identical (modulo measured
   timing) to each client talking to its own serial server, at every
   [jobs]. *)
let server_cross_connection_batching () =
  let distinct_circuit i =
    Circuit.measure_all (Circuit.x (Circuit.h (Circuit.create 6) 0) (1 + (i mod 5)))
  in
  let client_lines c =
    List.map
      (fun j ->
        let i = (2 * c) + j in
        let req = compile_req (Printf.sprintf "c%d-%d" c j) (distinct_circuit i) in
        Json.to_string ~indent:false (Wire.request_to_json req))
      [ 0; 1 ]
  in
  let strip line =
    match Json.of_string line with
    | Ok doc -> Json.to_string (strip_timing doc)
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun jobs ->
      let config = { Service.default_config with Service.jobs } in
      let path = tmp (Printf.sprintf "qcx_test_xconn_%d_%d.sock" (Unix.getpid ()) jobs) in
      if Sys.file_exists path then Sys.remove path;
      let service = example_service ~config () in
      let metrics = Server.create_metrics () in
      let server =
        Domain.spawn (fun () ->
            try Server.serve_socket service ~path ~batch_window:0.25 ~metrics with _ -> ())
      in
      let clients = List.init 3 (fun _ -> connect_client path) in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) clients;
          Domain.join server;
          if Sys.file_exists path then Sys.remove path)
        (fun () ->
          (* all three clients write before the collection window closes *)
          List.iteri
            (fun c sock ->
              List.iter (fun l -> send_str sock (l ^ "\n")) (client_lines c))
            clients;
          let got =
            List.map (fun sock -> List.map strip (read_lines sock 2)) clients
          in
          let want =
            List.map
              (fun c ->
                let serial = example_service ~config () in
                let responses, _ = Server.handle_lines serial (client_lines c) in
                List.map strip responses)
              (List.init 3 Fun.id)
          in
          List.iteri
            (fun c (g, w) ->
              Alcotest.(check (list string))
                (Printf.sprintf "client %d identical to serial at jobs %d" c jobs)
                w g)
            (List.combine got want);
          (* stop the reactor; the shutdown rides its own connection *)
          let s = connect_client path in
          send_str s ({|{"op":"shutdown","id":"x"}|} ^ "\n");
          ignore (read_lines s 1);
          Unix.close s);
      match Server.metrics_json metrics with
      | Json.Object fields ->
        Alcotest.(check bool) "reactor saw all 7 frames" true
          (List.assoc_opt "frames" fields = Some (Json.Number 7.0));
        Alcotest.(check bool) "frames were batched" true
          (match List.assoc_opt "batches" fields with
          | Some (Json.Number b) -> b >= 1.0 && b <= 7.0
          | _ -> false)
      | _ -> Alcotest.fail "metrics_json not an object")
    [ 1; 2; 4 ]

(* The rendered hit fast path (pre-rendered response tail spliced
   after the id) must be byte-identical to rendering the document —
   including ids that need JSON escaping. *)
let service_hit_render_identity () =
  let service = example_service () in
  let circuit = bell_with_measures ~order:[ 0; 1 ] 6 in
  let warm = compile_req "warm" circuit in
  ignore (Service.handle_batch_rendered service [ warm ]);
  List.iter
    (fun id ->
      let req =
        Wire.Compile { id; device = "example6q"; circuit; params = Wire.default_params }
      in
      let doc = match Service.handle_batch service [ req ] with [ d ] -> d | _ -> Alcotest.fail "one response" in
      Alcotest.(check bool) "request hit the cache" true
        (Json.member "cached" doc = Some (Json.Bool true));
      let line =
        match Service.handle_batch_rendered service [ req ] with
        | [ l ] -> l
        | _ -> Alcotest.fail "one rendered response"
      in
      Alcotest.(check string) "fast-rendered hit is byte-identical"
        (Json.to_string ~indent:false doc) line)
    [ "plain"; "needs \"escaping\"\\"; "tab\there"; "" ]

let wire_retag_roundtrip () =
  let circuit = bell_with_measures ~order:[ 0; 1 ] 6 in
  let line =
    Json.to_string ~indent:false (Wire.request_to_json (compile_req "orig \"id\"" circuit))
  in
  Alcotest.(check (option string)) "line_id reads the id" (Some "orig \"id\"")
    (Wire.line_id line);
  let tagged = Wire.retag_line line ~id:"qr-7" in
  Alcotest.(check (option string)) "retag replaces the id" (Some "qr-7") (Wire.line_id tagged);
  Alcotest.(check string) "retag out and back is byte-exact" line
    (Wire.retag_line tagged ~id:"orig \"id\"");
  Alcotest.(check string) "non-JSON passes through" "not json"
    (Wire.retag_line "not json" ~id:"x")

let suite =
  [
    ( "serve.canon",
      [
        Alcotest.test_case "measure order" `Quick canon_measure_order;
        Alcotest.test_case "symmetric operands" `Quick canon_symmetric_operands;
        Alcotest.test_case "swap expansion" `Quick canon_swap_expansion;
        Alcotest.test_case "width and difference" `Quick canon_width_and_difference;
        Alcotest.test_case "fused key serializer" `Quick canon_key_serialize_fused;
      ] );
    ( "serve.cache",
      [
        Alcotest.test_case "lru eviction" `Quick cache_lru_eviction;
        Alcotest.test_case "persistence roundtrip" `Quick cache_persistence_roundtrip;
      ] );
    ( "serve.registry",
      [
        Alcotest.test_case "epoch bumps" `Quick registry_epoch_bumps;
        Alcotest.test_case "snapshots and refresh" `Quick registry_snapshots_and_refresh;
      ] );
    ( "serve.service",
      [
        Alcotest.test_case "hit equals cold compile" `Quick service_hit_is_cold_compile;
        Alcotest.test_case "epoch bump invalidates" `Quick service_epoch_bump_invalidates;
        Alcotest.test_case "bad requests" `Quick service_rejects_bad_requests;
        Alcotest.test_case "admission control" `Quick service_admission_control;
        Alcotest.test_case "jobs determinism" `Quick service_batch_jobs_determinism;
        Alcotest.test_case "batch dedup" `Quick service_batch_dedup;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "handle_lines" `Quick server_handle_lines;
        Alcotest.test_case "once roundtrip" `Quick server_once_roundtrip;
        Alcotest.test_case "socket roundtrip" `Quick server_socket_roundtrip;
        Alcotest.test_case "stalled reader no HOL" `Quick server_stalled_reader_no_hol;
        Alcotest.test_case "cross-connection batching" `Quick server_cross_connection_batching;
        Alcotest.test_case "hit render identity" `Quick service_hit_render_identity;
        Alcotest.test_case "wire retag roundtrip" `Quick wire_retag_roundtrip;
      ] );
  ]
