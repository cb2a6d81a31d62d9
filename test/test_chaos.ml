(* Robustness tests for the hardened serving layer (DESIGN.md §9):
   wire-parser totality under fuzzed input, frame bounds, per-request
   deadlines, circuit breakers on a fake clock, write-ahead journal
   torn-tail recovery, checkpoint compaction, disk-full degradation,
   registry bumps over corrupt snapshots, and graceful socket drain. *)

module Wire = Core.Wire
module Cache = Core.Cache
module Registry = Core.Registry
module Service = Core.Service
module Server = Core.Server
module Breaker = Core.Breaker
module Journal = Core.Journal
module Json = Core.Json
module Circuit = Core.Circuit
module Device = Core.Device
module Store = Core.Store
module Crosstalk = Core.Crosstalk

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let example_service ?(config = Service.default_config) ?clock () =
  let device = Core.Presets.example_6q () in
  let registry = Registry.create () in
  ignore
    (Registry.add_static registry ~id:"example6q" ~device
       ~xtalk:(Device.ground_truth device));
  Service.create ~config ?clock registry

(* Distinct small circuits on real coupling-map edges, so
   multi-request batches occupy distinct compile slots (no dedup). *)
let circuit_no i =
  let device = Core.Presets.example_6q () in
  let edges = Array.of_list (Core.Topology.edges (Device.topology device)) in
  let a, b = edges.(i mod Array.length edges) in
  let c = Circuit.create (Device.nqubits device) in
  let c = Circuit.h c (i mod Device.nqubits device) in
  let c = Circuit.cnot c ~control:a ~target:b in
  Circuit.measure_all c

let compile_req ?(params = Wire.default_params) id circuit =
  Wire.Compile { id; device = "example6q"; circuit; params }

let encode req = Json.to_string ~indent:false (Wire.request_to_json req)

let status_of line =
  match Json.of_string line with
  | Error e -> Alcotest.fail ("response is not JSON: " ^ e)
  | Ok doc -> (
    match Json.find_str "status" doc with
    | Ok s -> s
    | Error _ -> Alcotest.fail ("response has no status: " ^ line))

(* ---- fuzz: arbitrary bytes never raise, always one typed response ---- *)

let fuzz_service = lazy (example_service ())

let one_typed_response_per_line lines =
  let service = Lazy.force fuzz_service in
  let expected =
    List.length (List.filter (fun l -> String.trim l <> "") lines)
  in
  match Server.handle_lines ~max_frame:4096 service lines with
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
  | out, _stop ->
    List.length out = expected
    && List.for_all
         (fun line ->
           match Json.of_string line with
           | Error _ -> false
           | Ok doc -> Result.is_ok (Json.find_str "status" doc))
         out

let prop_fuzz_random_bytes =
  QCheck.Test.make ~name:"random bytes get typed responses" ~count:300
    (QCheck.make QCheck.Gen.(string_size ~gen:char (int_bound 300)))
    (fun s -> one_typed_response_per_line [ s ])

(* Mutate a valid compile frame: truncate and/or flip bytes.  The
   server must answer every mutant with a typed response. *)
let prop_fuzz_mutated_frames =
  let base = encode (compile_req "m0" (circuit_no 0)) in
  let gen =
    QCheck.Gen.(
      pair (int_range 1 (String.length base)) (list_size (int_bound 6) (pair small_nat small_nat)))
  in
  QCheck.Test.make ~name:"truncated/bit-flipped frames get typed responses" ~count:300
    (QCheck.make gen) (fun (keep, flips) ->
      let s = Bytes.of_string (String.sub base 0 keep) in
      List.iter
        (fun (pos, bit) ->
          let i = pos mod Bytes.length s in
          Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor (1 lsl (bit mod 8)))))
        flips;
      one_typed_response_per_line [ Bytes.to_string s ])

(* An integral number outside the int range is refused as such, not
   wrapped by [int_of_float] into a "must be positive" answer. *)
let out_of_range_integers () =
  let service = example_service () in
  let request ~id nqubits =
    Printf.sprintf {|{"op":"compile",%s"device":"example6q","circuit":{"nqubits":%s,"gates":[]}}|}
      id nqubits
  in
  (* The rejection echoes a string id ("n") and answers null without one. *)
  let id_and_error line =
    match Json.of_string line with
    | Ok doc ->
      let id = Option.fold ~none:"absent" ~some:(Json.to_string ~indent:false) (Json.member "id" doc) in
      Result.map (fun e -> (id, e)) (Json.find_str "error" doc)
    | Error e -> Error e
  in
  List.iter
    (fun (id, nqubits, expected) ->
      match Server.handle_lines service [ request ~id nqubits ] with
      | [ line ], _ ->
        Alcotest.(check (result (pair string string) string)) nqubits (Ok expected)
          (id_and_error line)
      | _ -> Alcotest.fail "expected one response")
    [
      ({|"id":"n",|}, "1e300", ({|"n"|}, "integer out of range"));
      ({|"id":"n",|}, "4611686018427387903", ({|"n"|}, "integer out of range"));
      ({|"id":"n",|}, "-4611686018427387904", ({|"n"|}, "nqubits must be positive"));
      ("", "1e300", ("null", "integer out of range"));
    ]

(* ---- frame bound ---- *)

let frame_too_large () =
  let service = example_service () in
  let long = String.make 100 'x' in
  let responses, stop =
    Server.handle_lines ~max_frame:64 service [ long; {|{"op":"ping","id":"p1"}|} ]
  in
  Alcotest.(check bool) "no shutdown" false stop;
  Alcotest.(check int) "two responses" 2 (List.length responses);
  (match responses with
  | [ first; second ] ->
    Alcotest.(check string) "oversize is typed" "frame_too_large" (status_of first);
    (match Json.of_string first with
    | Ok doc ->
      Alcotest.(check bool) "carries the limit" true
        (match Json.member "limit" doc with Some (Json.Number 64.0) -> true | _ -> false)
    | Error e -> Alcotest.fail e);
    Alcotest.(check string) "pipelined ping unaffected" "ok" (status_of second)
  | _ -> Alcotest.fail "expected two responses")

(* ---- health op ---- *)

let health_op () =
  let service = example_service () in
  match Service.handle service (Wire.Health { id = "h1" }) with
  | Json.Object _ as doc ->
    Alcotest.(check bool) "status ok" true (Json.find_str "status" doc = Ok "ok");
    (match Json.member "health" doc with
    | Some health ->
      Alcotest.(check bool) "ready" true (Json.member "ready" health = Some (Json.Bool true));
      Alcotest.(check bool) "has breakers" true (Json.member "breakers" health <> None);
      Alcotest.(check bool) "has journal" true (Json.member "journal" health <> None);
      Service.set_draining service true;
      (match Service.handle service (Wire.Health { id = "h2" }) with
      | doc2 ->
        let health2 = Option.get (Json.member "health" doc2) in
        Alcotest.(check bool) "draining flips readiness" true
          (Json.member "ready" health2 = Some (Json.Bool false)))
    | None -> Alcotest.fail "no health payload")
  | _ -> Alcotest.fail "expected an object"

(* ---- deadlines ---- *)

let deadline_exceeded () =
  let config =
    { Service.default_config with Service.max_compile_seconds = Some 5.0; deadline_grace = 1.5 }
  in
  let service = example_service ~config () in
  (* Slot 0 stalls well past the 50 ms budget; slot 1 is healthy. *)
  Service.set_compile_fault service
    (Some (fun ~nth -> if nth = 0 then Some (Service.Stall_compile 0.3) else None));
  let params = { Wire.default_params with Wire.deadline = Some 0.05 } in
  let reqs = [ compile_req ~params "d0" (circuit_no 0); compile_req "d1" (circuit_no 1) ] in
  (match Service.handle_batch service reqs with
  | [ r0; r1 ] ->
    Alcotest.(check bool) "slow slot is typed deadline_exceeded" true
      (Json.find_str "status" r0 = Ok "deadline_exceeded");
    Alcotest.(check bool) "carries deadline and elapsed" true
      (Json.member "deadline" r0 <> None && Json.member "elapsed" r0 <> None);
    Alcotest.(check bool) "batch survives: healthy slot ok" true
      (Json.find_str "status" r1 = Ok "ok")
  | _ -> Alcotest.fail "expected two responses");
  (* The late-but-valid schedule was still cached: a retry is a hit. *)
  Service.set_compile_fault service None;
  match Service.handle_batch service [ compile_req ~params "d2" (circuit_no 0) ] with
  | [ r ] ->
    Alcotest.(check bool) "retry served from cache" true
      (Json.find_str "status" r = Ok "ok" && Json.member "cached" r = Some (Json.Bool true))
  | _ -> Alcotest.fail "expected one response"

(* ---- circuit breaker: unit state machine on a fake clock ---- *)

let breaker_state_machine () =
  let b =
    Breaker.create
      { Breaker.threshold = 2; cooloff_seconds = 10.0; min_rung = Core.Xtalk_sched.Parallel }
  in
  Alcotest.(check bool) "starts closed admitting" true (Breaker.check b ~now:0.0 = Breaker.Admit);
  Breaker.record_failure b ~now:0.0;
  Alcotest.(check bool) "one failure stays closed" true (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b ~now:1.0;
  Alcotest.(check bool) "threshold trips open" true (Breaker.state b = Breaker.Open);
  (match Breaker.check b ~now:2.0 with
  | Breaker.Reject retry -> Alcotest.(check bool) "retry_after bounded" true (retry <= 10.0)
  | _ -> Alcotest.fail "open breaker must reject");
  (match Breaker.check b ~now:12.0 with
  | Breaker.Probe -> ()
  | _ -> Alcotest.fail "cooloff elapsed: expected a probe");
  Alcotest.(check bool) "probing is half-open" true (Breaker.state b = Breaker.Half_open);
  (match Breaker.check b ~now:12.0 with
  | Breaker.Reject _ -> ()
  | _ -> Alcotest.fail "only one probe at a time");
  Breaker.record_failure b ~now:12.5;
  Alcotest.(check bool) "failed probe re-opens" true (Breaker.state b = Breaker.Open);
  (match Breaker.check b ~now:13.0 with
  | Breaker.Reject _ -> ()
  | _ -> Alcotest.fail "cooloff restarted after failed probe");
  (match Breaker.check b ~now:23.0 with
  | Breaker.Probe -> ()
  | _ -> Alcotest.fail "expected a second probe");
  Breaker.record_success b ~now:23.5;
  Alcotest.(check bool) "successful probe closes" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check int) "two trips" 2 (Breaker.trips b)

(* ---- circuit breaker: end to end through the service ---- *)

let breaker_trip_and_recover () =
  let now = ref 0.0 in
  let config =
    {
      Service.default_config with
      Service.breaker =
        { Breaker.threshold = 2; cooloff_seconds = 30.0; min_rung = Core.Xtalk_sched.Parallel };
    }
  in
  let service = example_service ~config ~clock:(fun () -> !now) () in
  Service.set_compile_fault service (Some (fun ~nth:_ -> Some (Service.Fail_compile "boom")));
  (* Two failing compiles trip the device's breaker... *)
  let reqs = [ compile_req "b0" (circuit_no 0); compile_req "b1" (circuit_no 1) ] in
  List.iter
    (fun r ->
      Alcotest.(check bool) "injected failures are typed" true
        (Json.find_str "status" r = Ok "internal_error"))
    (Service.handle_batch service reqs);
  let b = Service.breaker_for service "example6q" in
  Alcotest.(check bool) "breaker open" true (Breaker.state b = Breaker.Open);
  (* ...so the next compile is rejected without burning solver budget. *)
  (match Service.handle_batch service [ compile_req "b2" (circuit_no 2) ] with
  | [ r ] ->
    Alcotest.(check bool) "typed breaker_open" true
      (Json.find_str "status" r = Ok "breaker_open");
    Alcotest.(check bool) "carries retry_after" true (Json.member "retry_after" r <> None)
  | _ -> Alcotest.fail "expected one response");
  (* A cached hit is still served through the open breaker?  No hit
     exists yet, but ops other than compile must also flow. *)
  Alcotest.(check string) "ping flows through open breaker" "ok"
    (match Json.find_str "status" (Service.handle service (Wire.Ping { id = "p" })) with
    | Ok s -> s
    | Error e -> e);
  (* Cooloff elapses on the fake clock, the fault clears: the next
     request is the half-open probe, and its success closes the breaker. *)
  now := 100.0;
  Service.set_compile_fault service None;
  (match Service.handle_batch service [ compile_req "b3" (circuit_no 3) ] with
  | [ r ] ->
    Alcotest.(check bool) "probe succeeds" true (Json.find_str "status" r = Ok "ok")
  | _ -> Alcotest.fail "expected one response");
  Alcotest.(check bool) "breaker closed again" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check int) "exactly one trip" 1 (Breaker.trips b);
  Alcotest.(check bool) "rejections surfaced" true (Breaker.rejections b >= 1)

(* A hit present in the cache is served even while the breaker is open. *)
let breaker_serves_cache_hits () =
  let now = ref 0.0 in
  let config =
    {
      Service.default_config with
      Service.breaker =
        { Breaker.threshold = 1; cooloff_seconds = 1000.0; min_rung = Core.Xtalk_sched.Parallel };
    }
  in
  let service = example_service ~config ~clock:(fun () -> !now) () in
  (match Service.handle_batch service [ compile_req "w0" (circuit_no 0) ] with
  | [ r ] -> Alcotest.(check bool) "warm compile ok" true (Json.find_str "status" r = Ok "ok")
  | _ -> Alcotest.fail "expected one response");
  Service.set_compile_fault service (Some (fun ~nth:_ -> Some (Service.Fail_compile "boom")));
  ignore (Service.handle_batch service [ compile_req "w1" (circuit_no 1) ]);
  Alcotest.(check bool) "breaker open" true
    (Breaker.state (Service.breaker_for service "example6q") = Breaker.Open);
  match Service.handle_batch service [ compile_req "w2" (circuit_no 0) ] with
  | [ r ] ->
    Alcotest.(check bool) "hit served through open breaker" true
      (Json.find_str "status" r = Ok "ok" && Json.member "cached" r = Some (Json.Bool true))
  | _ -> Alcotest.fail "expected one response"

(* ---- journal: record codec rejects damage ---- *)

let with_persistent_service ?(checkpoint_every = 1000) ~tag k =
  let cache_file = tmp (Printf.sprintf "qcx_chaos_%s_%d.json" tag (Unix.getpid ())) in
  let journal_file = cache_file ^ ".journal" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ cache_file; journal_file ];
  let config = { Service.default_config with Service.checkpoint_every } in
  let service = example_service ~config () in
  (match Service.enable_persistence service ~cache_file ~fsync:false () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ cache_file; journal_file ])
    (fun () -> k service ~cache_file ~journal_file ~config)

let journal_codec_rejects_damage () =
  with_persistent_service ~tag:"codec" (fun service ~cache_file:_ ~journal_file:_ ~config:_ ->
      (match Service.compile service ~device:"example6q" (circuit_no 0) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let key = List.hd (Cache.keys_newest_first (Service.cache service)) in
      let entry = Option.get (Cache.find (Service.cache service) key) in
      let line = Journal.line_of_record { Journal.key; entry } in
      (match Journal.record_of_line line with
      | Ok r ->
        Alcotest.(check string) "roundtrip preserves key" key r.Journal.key;
        Alcotest.(check string) "roundtrip preserves entry"
          (Json.to_string (Cache.entry_to_json entry))
          (Json.to_string (Cache.entry_to_json r.Journal.entry))
      | Error e -> Alcotest.fail e);
      (* Any single flipped byte fails the crc. *)
      List.iter
        (fun i ->
          let s = Bytes.of_string line in
          Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
          match Journal.record_of_line (Bytes.to_string s) with
          | Ok _ -> Alcotest.failf "bit flip at %d went undetected" i
          | Error _ -> ())
        [ 0; String.length line / 3; String.length line / 2; String.length line - 1 ])

(* ---- journal: replay of a torn file is the longest valid prefix ---- *)

let journal_torn_replay () =
  with_persistent_service ~tag:"torn" (fun service ~cache_file:_ ~journal_file ~config:_ ->
      List.iter
        (fun i ->
          match Service.compile service ~device:"example6q" (circuit_no i) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
        [ 0; 1; 2 ];
      let full = Journal.replay ~path:journal_file in
      Alcotest.(check int) "three records journaled" 3 (List.length full.Journal.records);
      Alcotest.(check bool) "full replay is clean" false full.Journal.torn;
      let bytes =
        let ic = open_in_bin journal_file in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let len = String.length bytes in
      let line_of r = Journal.line_of_record r in
      let full_lines = List.map line_of full.Journal.records in
      (* Truncate at a spread of offsets, including every record
         boundary: replay never raises and yields a clean prefix. *)
      let offsets =
        List.sort_uniq compare
          (0 :: len
          :: List.concat_map (fun k -> [ k * len / 17; (k * len / 17) + 1 ]) (List.init 17 Fun.id)
          )
      in
      List.iter
        (fun off ->
          let off = min off len in
          let path = tmp (Printf.sprintf "qcx_chaos_torn_%d_%d.journal" (Unix.getpid ()) off) in
          let oc = open_out_bin path in
          output_string oc (String.sub bytes 0 off);
          close_out oc;
          let r = Journal.replay ~path in
          Sys.remove path;
          let got = List.map line_of r.Journal.records in
          let want = List.filteri (fun i _ -> i < List.length got) full_lines in
          Alcotest.(check (list string))
            (Printf.sprintf "offset %d replays a valid prefix" off)
            want got;
          if off = len then
            Alcotest.(check int) "full offset replays everything" 3 r.Journal.read)
        offsets)

(* ---- journal: checkpoint compaction and crash-consistent recover ---- *)

let checkpoint_compaction () =
  with_persistent_service ~tag:"ckpt" ~checkpoint_every:2
    (fun service ~cache_file ~journal_file ~config ->
      List.iter
        (fun i -> ignore (Service.compile service ~device:"example6q" (circuit_no i)))
        [ 0; 1; 2 ];
      (* Two inserts triggered a checkpoint; the third is journaled. *)
      let replay = Journal.replay ~path:journal_file in
      Alcotest.(check int) "journal holds only post-checkpoint records" 1
        (List.length replay.Journal.records);
      Alcotest.(check bool) "snapshot exists" true (Sys.file_exists cache_file);
      let service2 = example_service ~config () in
      (match Service.recover service2 ~cache_file ~fsync:false () with
      | Ok r ->
        Alcotest.(check int) "snapshot entries" 2 r.Service.snapshot_entries;
        Alcotest.(check int) "journal entries" 1 r.Service.journal_entries;
        Alcotest.(check bool) "no torn tail" false r.Service.torn
      | Error e -> Alcotest.fail e);
      (* Recovery itself checkpointed: the journal is compacted... *)
      Alcotest.(check int) "journal truncated after recover" 0
        (List.length (Journal.replay ~path:journal_file).Journal.records);
      (* ...and every entry is bit-identical to the original cache's. *)
      List.iter
        (fun key ->
          let original = Option.get (Cache.find (Service.cache service) key) in
          match Cache.find (Service.cache service2) key with
          | None -> Alcotest.failf "recovered cache lost %s" key
          | Some entry ->
            Alcotest.(check string) "entry identical"
              (Json.to_string (Cache.entry_to_json original))
              (Json.to_string (Cache.entry_to_json entry)))
        (Cache.keys_newest_first (Service.cache service)))

let recover_truncated_journal () =
  with_persistent_service ~tag:"recover" (fun service ~cache_file ~journal_file ~config ->
      List.iter
        (fun i -> ignore (Service.compile service ~device:"example6q" (circuit_no i)))
        [ 0; 1; 2 ];
      (* kill -9 mid-append: cut the journal mid-record. *)
      let len =
        let ic = open_in_bin journal_file in
        let n = in_channel_length ic in
        close_in ic;
        n
      in
      let fd = Unix.openfile journal_file [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (len - 7);
      Unix.close fd;
      let service2 = example_service ~config () in
      match Service.recover service2 ~cache_file ~fsync:false () with
      | Ok r ->
        Alcotest.(check bool) "torn tail detected" true r.Service.torn;
        Alcotest.(check int) "valid prefix replayed" 2 r.Service.journal_entries;
        List.iter
          (fun key ->
            let original = Option.get (Cache.find (Service.cache service) key) in
            match Cache.find (Service.cache service2) key with
            | None -> Alcotest.failf "recovered cache lost %s" key
            | Some entry ->
              Alcotest.(check string) "recovered entry identical"
                (Json.to_string (Cache.entry_to_json original))
                (Json.to_string (Cache.entry_to_json entry)))
          (Cache.keys_newest_first (Service.cache service2))
      | Error e -> Alcotest.fail e)

(* ---- journal: a full disk degrades durability, not availability ---- *)

let journal_full_disk_degrades () =
  with_persistent_service ~tag:"full" (fun service ~cache_file:_ ~journal_file:_ ~config:_ ->
      let journal = Option.get (Service.persistence_journal service) in
      Journal.set_fault journal (Some (fun ~nth:_ -> true));
      (match Service.handle_batch service [ compile_req "f0" (circuit_no 0) ] with
      | [ r ] ->
        Alcotest.(check bool) "compile still serves" true (Json.find_str "status" r = Ok "ok")
      | _ -> Alcotest.fail "expected one response");
      Alcotest.(check bool) "failed appends counted" true (Journal.failed_appends journal >= 1);
      let stats = Service.stats_json service in
      match Json.member "journal" stats with
      | Some j ->
        Alcotest.(check bool) "degradation surfaced in stats" true
          (match Json.member "failed_appends" j with
          | Some (Json.Number n) -> n >= 1.0
          | _ -> false)
      | None -> Alcotest.fail "stats carry no journal block")

(* ---- registry: a bump over corrupt snapshots keeps the epoch ---- *)

let bump_over_corrupt_snapshot () =
  let device = Core.Presets.example_6q () in
  let snapshot = tmp (Printf.sprintf "qcx_chaos_bump_%d.xtalk.json" (Unix.getpid ())) in
  let xtalk = Crosstalk.set Crosstalk.empty ~target:(0, 1) ~spectator:(2, 3) 0.12 in
  (match Store.save_crosstalk ~path:snapshot xtalk with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists snapshot then Sys.remove snapshot)
    (fun () ->
      let registry = Registry.create () in
      let entry =
        Registry.add_from_paths registry ~id:"example6q" ~device ~paths:[ snapshot ]
      in
      let epoch0 = entry.Registry.epoch in
      let service = Service.create registry in
      (match Service.handle_batch service [ compile_req "r0" (circuit_no 0) ] with
      | [ r ] -> Alcotest.(check bool) "warm compile" true (Json.find_str "status" r = Ok "ok")
      | _ -> Alcotest.fail "expected one response");
      (* The characterizer crashes mid-write: the snapshot is garbage. *)
      let oc = open_out snapshot in
      output_string oc "{\"format\": \"qcx-crosstalk\", \"entries\": [[0.3";
      close_out oc;
      (match Service.handle service (Wire.Bump { id = "b0"; device = "example6q" }) with
      | doc ->
        Alcotest.(check bool) "bump is typed ok" true (Json.find_str "status" doc = Ok "ok");
        Alcotest.(check bool) "bump reports the degradation" true
          (Json.member "warning" doc <> None);
        Alcotest.(check bool) "epoch did not advance" true
          (Json.find_str "epoch" doc = Ok epoch0));
      Alcotest.(check string) "registry kept the old epoch" epoch0
        (Option.get (Registry.find registry "example6q")).Registry.epoch;
      (* Cached schedules stay addressable and valid. *)
      match Service.handle_batch service [ compile_req "r1" (circuit_no 0) ] with
      | [ r ] ->
        Alcotest.(check bool) "cache still hits under the kept epoch" true
          (Json.find_str "status" r = Ok "ok" && Json.member "cached" r = Some (Json.Bool true))
      | _ -> Alcotest.fail "expected one response")

(* ---- server: SIGTERM-style drain stops the accept loop ---- *)

let socket_drain () =
  let path = tmp (Printf.sprintf "qcx_chaos_drain_%d.sock" (Unix.getpid ())) in
  if Sys.file_exists path then Sys.remove path;
  let service = example_service () in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        try
          Server.serve_socket service ~path ~stop:(fun () -> Atomic.get stop);
          true
        with _ -> false)
  in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let rec connect tries =
        match Unix.connect sock (Unix.ADDR_UNIX path) with
        | () -> ()
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0
          ->
          Unix.sleepf 0.05;
          connect (tries - 1)
      in
      connect 100;
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.0;
      let msg = {|{"op":"ping","id":"p1"}|} ^ "\n" in
      ignore (Unix.write_substring sock msg 0 (String.length msg));
      let buf = Bytes.create 4096 in
      let n = Unix.read sock buf 0 (Bytes.length buf) in
      Alcotest.(check bool) "served before the drain" true
        (String.length (Bytes.sub_string buf 0 n) > 0);
      Unix.close sock;
      (* Flip the drain flag with no shutdown request in flight: the
         accept loop must notice on its tick and return. *)
      Atomic.set stop true;
      let clean = Domain.join server in
      Alcotest.(check bool) "accept loop drained cleanly" true clean;
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists path))

(* ---- journal: a failed checkpoint waits a full period ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let journal_counter service name =
  match Json.member "journal" (Service.stats_json service) with
  | Some j -> (
    match Json.member name j with
    | Some v -> Result.get_ok (Json.to_int v)
    | None -> Alcotest.failf "stats.journal has no %s" name)
  | None -> Alcotest.fail "stats carry no journal block"

let failed_checkpoint_waits_a_period () =
  with_persistent_service ~tag:"ckptfail" ~checkpoint_every:2
    (fun service ~cache_file ~journal_file ~config:_ ->
      (* A directory squatting on the temp name fails every snapshot
         write, while journal appends keep succeeding. *)
      let tmp_dir = cache_file ^ ".tmp" in
      Unix.mkdir tmp_dir 0o755;
      Fun.protect ~finally:(fun () -> if Sys.file_exists tmp_dir then Unix.rmdir tmp_dir)
      @@ fun () ->
      List.iter (fun i -> ignore (Service.compile service ~device:"example6q" (circuit_no i))) [ 0; 1; 2; 3; 4; 5 ];
      Alcotest.(check int) "one attempt per period" 3 (journal_counter service "checkpoint_failures");
      Alcotest.(check int) "no checkpoint landed" 0 (journal_counter service "checkpoints");
      Alcotest.(check int) "the journal still holds every record" 6
        (List.length (Journal.replay ~path:journal_file).Journal.records);
      Unix.rmdir tmp_dir;
      (* circuit_no cycles after six; two more distinct circuits *)
      List.iter
        (fun q ->
          let c = Circuit.measure_all (Circuit.x (Circuit.create 6) q) in
          ignore (Service.compile service ~device:"example6q" c))
        [ 0; 1 ];
      Alcotest.(check int) "the next period checkpoints" 1 (journal_counter service "checkpoints");
      Alcotest.(check int) "failures stay counted" 3 (journal_counter service "checkpoint_failures");
      Alcotest.(check int) "snapshot holds all eight" 8
        (List.length (Journal.replay ~path:cache_file).Journal.records))

(* ---- snapshot: a damaged line keeps the valid prefix, reported ---- *)

let damaged_snapshot_keeps_prefix () =
  with_persistent_service ~tag:"snapflip" (fun service ~cache_file ~journal_file:_ ~config ->
      List.iter (fun i -> ignore (Service.compile service ~device:"example6q" (circuit_no i))) [ 0; 1; 2; 3; 4 ];
      (match Service.checkpoint service with Ok () -> () | Error e -> Alcotest.fail e);
      let lines = String.split_on_char '\n' (read_file cache_file) |> List.filter (( <> ) "") in
      Alcotest.(check int) "five snapshot lines" 5 (List.length lines);
      let flipped =
        List.mapi
          (fun i line ->
            if i <> 2 then line
            else
              String.mapi
                (fun j c -> if j = String.length line / 2 then Char.chr (Char.code c lxor 1) else c)
                line)
          lines
      in
      let oc = open_out_bin cache_file in
      List.iter (fun l -> output_string oc (l ^ "\n")) flipped;
      close_out oc;
      let service2 = example_service ~config () in
      match Service.recover service2 ~cache_file ~fsync:false () with
      | Error e -> Alcotest.fail e
      | Ok r ->
        Alcotest.(check int) "valid prefix restored" 2 r.Service.snapshot_entries;
        Alcotest.(check int) "drop reported" 3 r.Service.snapshot_dropped;
        Alcotest.(check bool) "damage reported" true r.Service.snapshot_torn;
        let oldest_two =
          List.filteri (fun i _ -> i < 2) (List.rev (Cache.keys_newest_first (Service.cache service)))
        in
        Alcotest.(check (list string)) "the two oldest entries survive" (List.rev oldest_two)
          (Cache.keys_newest_first (Service.cache service2)))

(* ---- sealed lines: one-pass seal equals the two-pass codec ---- *)

(* The codec before sealing went single-pass: render the payload,
   digest it, then render the object again with the crc appended. *)
let two_pass_line fields =
  let crc = Digest.to_hex (Digest.string (Json.to_string ~indent:false (Json.Object fields))) in
  Json.to_string ~indent:false (Json.Object (fields @ [ ("crc", Json.String crc) ]))

let gen_record =
  let device = Core.Presets.example_6q () in
  let edges = Array.of_list (Core.Topology.edges (Device.topology device)) in
  QCheck.Gen.(
    let special = oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 5e-324; Float.max_float ] in
    let num = frequency [ (3, float); (2, special) ] in
    let gate =
      map3
        (fun kind q angle c ->
          match kind with
          | 0 -> Circuit.h c (q mod 6)
          | 1 -> Circuit.rz c angle (q mod 6)
          | _ ->
            let a, b = edges.(q mod Array.length edges) in
            Circuit.cnot c ~control:a ~target:b)
        (int_bound 2) (int_bound 50) (float_range (-10.0) 10.0)
    in
    let* gates = list_size (int_range 1 12) gate in
    let circuit = Circuit.measure_all (List.fold_left (fun c g -> g c) (Circuit.create 6) gates) in
    let* key = string_size ~gen:printable (int_range 0 40) in
    let* epoch = string_size ~gen:char (int_range 0 12) in
    let* objective = num and* solve_seconds = num and* idle_total = num and* idle_max = num in
    let* pairs = int_bound 1000 and* nodes = int and* optimal = bool in
    let* rung = oneofl Core.Xtalk_sched.all_rungs in
    let stats =
      {
        Core.Xtalk_sched.pairs;
        clusters = pairs / 3;
        windows = 0;
        nodes;
        optimal;
        objective;
        solve_seconds;
        cpu_seconds = solve_seconds;
        idle_total;
        idle_max;
        rung;
      }
    in
    let schedule = Core.Par_sched.schedule device circuit in
    return { Journal.key; entry = { Cache.schedule; stats; epoch } })

let prop_seal_matches_two_pass =
  QCheck.Test.make ~name:"sealed journal and replica lines match the two-pass codec" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_record (pair (int_bound 8) (int_bound 100000))))
    (fun (record, (shard, seq)) ->
      let e = record.Journal.entry in
      let entry_fields =
        [
          ("epoch", Json.String e.Cache.epoch);
          ("stats", Wire.stats_to_json e.Cache.stats);
          ("schedule", Wire.schedule_to_json e.Cache.schedule);
        ]
      in
      let key = ("key", Json.String record.Journal.key) in
      let journal = Journal.line_of_record record in
      let replica = Core.Replica.line_of_record ~shard ~seq record in
      let same_entry (r : Journal.record) =
        r.Journal.key = record.Journal.key
        && Json.to_string (Cache.entry_to_json r.Journal.entry) = Json.to_string (Cache.entry_to_json e)
      in
      journal = two_pass_line (("op", Json.String "add") :: key :: entry_fields)
      && replica
         = two_pass_line
             (("op", Json.String "rep")
             :: ("shard", Json.Number (float_of_int shard))
             :: ("seq", Json.Number (float_of_int seq))
             :: key :: entry_fields)
      && (match Journal.record_of_line journal with Ok r -> same_entry r | Error _ -> false)
      &&
      match Core.Replica.record_of_line replica with
      | Ok (s, q, r) -> s = shard && q = seq && same_entry r
      | Error _ -> false)

let suite =
  [
    ( "chaos.wire",
      [
        QCheck_alcotest.to_alcotest prop_fuzz_random_bytes;
        QCheck_alcotest.to_alcotest prop_fuzz_mutated_frames;
        Alcotest.test_case "out-of-range integers" `Quick out_of_range_integers;
        Alcotest.test_case "frame too large" `Quick frame_too_large;
        Alcotest.test_case "health op" `Quick health_op;
      ] );
    ( "chaos.deadline",
      [ Alcotest.test_case "stalled compile is typed" `Quick deadline_exceeded ] );
    ( "chaos.breaker",
      [
        Alcotest.test_case "state machine" `Quick breaker_state_machine;
        Alcotest.test_case "trip and recover" `Quick breaker_trip_and_recover;
        Alcotest.test_case "open breaker serves hits" `Quick breaker_serves_cache_hits;
      ] );
    ( "chaos.journal",
      [
        Alcotest.test_case "codec rejects damage" `Quick journal_codec_rejects_damage;
        Alcotest.test_case "torn replay is a valid prefix" `Quick journal_torn_replay;
        Alcotest.test_case "checkpoint compaction" `Quick checkpoint_compaction;
        Alcotest.test_case "recover truncated journal" `Quick recover_truncated_journal;
        Alcotest.test_case "full disk degrades gracefully" `Quick journal_full_disk_degrades;
        Alcotest.test_case "failed checkpoint waits a period" `Quick failed_checkpoint_waits_a_period;
        Alcotest.test_case "damaged snapshot keeps valid prefix" `Quick damaged_snapshot_keeps_prefix;
        QCheck_alcotest.to_alcotest prop_seal_matches_two_pass;
      ] );
    ( "chaos.registry",
      [ Alcotest.test_case "bump over corrupt snapshot" `Quick bump_over_corrupt_snapshot ] );
    ( "chaos.server", [ Alcotest.test_case "drain stops accept loop" `Quick socket_drain ] );
  ]
