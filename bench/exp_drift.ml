(* Drift campaign over the self-healing calibration data plane
   (DESIGN.md section 12): a multi-week simulated campaign on a
   drifting device, driven entirely through the service's wire ops.
   Each day compiles a fixed workload (availability must stay 1.0),
   then runs one calibration cycle — drift detection, Opt-3
   incremental re-characterization, canary gate, crash-consistent
   promotion — under injected calibration faults: drift spikes,
   truncated merges, canary flakes, and crashes on both sides of the
   ring-pointer commit (each crash simulates a restart + recovery
   from the calibration directory).

   Gates, aggregated into BENCH_drift.json:
     - availability 1.0: every compile request answers ok, every day;
     - zero epochs promoted without a real canary pass (flaked
       promotions must be revoked by the automatic rollback);
     - every rollback (automatic or operator-initiated) restores the
       prior epoch bit-identically — the reinstalled crosstalk
       serializes to the exact bytes it had when it last served;
     - no cache entry ever outlives its epoch (purge-on-promote);
     - a crash mid-promotion recovers onto exactly the old or exactly
       the new epoch, never a mix;
     - Opt-3 incremental cycles cost < 25% of the full
       re-characterization trial budget, with canary inflation inside
       the gate (periodic full cycles are the control);
     - the whole campaign report is bit-identical at every --jobs. *)

module Service = Core.Service
module Wire = Core.Wire
module Registry = Core.Registry
module Calibrator = Core.Calibrator
module Cache = Core.Cache
module Json = Core.Json
module Faults = Core.Service_faults

let dev_id = "example6q"
let nc = 6 (* compile requests per day *)

let build_circuit device i =
  let topo = Core.Device.topology device in
  let edges = Array.of_list (Core.Topology.edges topo) in
  let nq = Core.Device.nqubits device in
  let a, b = edges.(i mod Array.length edges) in
  let c = Core.Circuit.create nq in
  let c = Core.Circuit.add c Core.Gate.H [ a ] in
  let c = Core.Circuit.add c Core.Gate.Cnot [ a; b ] in
  let c =
    if i mod 2 = 0 then Core.Circuit.add c (Core.Gate.Rz (0.1 +. (0.07 *. float_of_int i))) [ b ]
    else c
  in
  Core.Circuit.measure_all c

let compile_request device ~day i =
  Wire.Compile
    {
      id = Printf.sprintf "d%d-c%d" day i;
      device = dev_id;
      circuit = build_circuit device i;
      params = Wire.default_params;
    }

(* ---- JSON plumbing ---- *)

let str k doc = Result.value ~default:"" (Json.find_str k doc)
let flt k doc = Result.value ~default:nan (Json.find_float k doc)
let booly k doc = match Json.member k doc with Some (Json.Bool b) -> b | _ -> false
let obj k doc = Json.member k doc

(* ---- campaign state ---- *)

type campaign = {
  mutable compiles : int;
  mutable compile_ok : int;
  mutable op_errors : int;  (* non-ok answers to calibration/status ops *)
  mutable promotions : int;
  mutable promotions_full : int;  (* from the periodic full control cycles *)
  mutable unverified : int;  (* promoted with real_pass = false: must stay 0 *)
  mutable rejections : int;
  mutable no_drift : int;
  mutable auto_rollbacks : int;
  mutable op_rollbacks : int;
  mutable op_rollback_empty : int;  (* drill hit an empty ring *)
  mutable crashes : int;
  mutable restarts : int;
  mutable crash_bad : int;  (* recovered epoch neither old nor new *)
  mutable rb_mismatch : int;  (* rollback not bit-identical *)
  mutable stale_cache : int;  (* cache entries keyed under a retired epoch *)
  mutable purged : int;
  mutable inc_fractions : float list;  (* flagged-only cycles, newest first *)
  mutable fallbacks : int;  (* forced cycles with nothing flagged *)
  mutable inc_inflations : float list;
  mutable full_inflations : float list;
  mutable timeline : Json.t list;  (* newest first *)
}

let fresh_campaign () =
  {
    compiles = 0;
    compile_ok = 0;
    op_errors = 0;
    promotions = 0;
    promotions_full = 0;
    unverified = 0;
    rejections = 0;
    no_drift = 0;
    auto_rollbacks = 0;
    op_rollbacks = 0;
    op_rollback_empty = 0;
    crashes = 0;
    restarts = 0;
    crash_bad = 0;
    rb_mismatch = 0;
    stale_cache = 0;
    purged = 0;
    inc_fractions = [];
    fallbacks = 0;
    inc_inflations = [];
    full_inflations = [];
    timeline = [];
  }

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let maxf = List.fold_left max 0.0

let clean_dir d =
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Sys.mkdir d 0o755

(* ---- one seeded campaign at one jobs setting ---- *)

let run_campaign ~days ~seed ~jobs ~dir =
  let caldir = Filename.concat dir (Printf.sprintf "drift-cal-j%d" jobs) in
  clean_dir caldir;
  let device = Core.Presets.example_6q () in
  let xtalk0 = Core.Device.ground_truth device in
  let ccfg = { Calibrator.default_config with Calibrator.jobs; seed } in
  let scfg = { Service.default_config with Service.jobs } in
  let plan = Faults.create ~seed () in
  (* Deterministic crash drills on top of the seeded plan: one on each
     side of the ring-pointer commit (they only fire if that day's
     cycle reaches promotion, which is why those days are forced). *)
  let hook ~id ~day =
    let extra =
      if day = 9 then [ Calibrator.Crash_before_commit ]
      else if day = 15 then [ Calibrator.Crash_after_commit ]
      else []
    in
    extra @ Faults.calibration_faults plan ~id ~day
  in
  let st = fresh_campaign () in
  let registry = ref (Registry.create ()) in
  let calibrator = ref (Calibrator.create !registry) in
  let service = ref (Service.create !registry) in
  let boot () =
    registry := Registry.create ();
    ignore (Registry.add_static !registry ~id:dev_id ~device ~xtalk:xtalk0);
    calibrator := Calibrator.create ~config:ccfg ~dir:caldir !registry;
    Calibrator.set_fault !calibrator (Some hook);
    let recovered = Calibrator.recover !calibrator in
    service := Service.create ~config:scfg !registry;
    Service.set_calibrator !service (Some !calibrator);
    List.length recovered
  in
  ignore (boot ());
  let entry () = Option.get (Registry.find !registry dev_id) in
  let xtalk_bytes x = Json.to_string (Core.Store.crosstalk_to_json x) in
  (* digest -> exact serialized bytes the epoch had while serving *)
  let epoch_bytes = Hashtbl.create 16 in
  let note_epoch () =
    let e = entry () in
    Hashtbl.replace epoch_bytes e.Registry.epoch (xtalk_bytes e.Registry.xtalk)
  in
  note_epoch ();
  let check_restored ~epoch =
    let e = entry () in
    let ok =
      e.Registry.epoch = epoch
      &&
      match Hashtbl.find_opt epoch_bytes epoch with
      | Some bytes -> bytes = xtalk_bytes e.Registry.xtalk
      | None -> false
    in
    if not ok then st.rb_mismatch <- st.rb_mismatch + 1
  in
  let check_cache () =
    let live = (entry ()).Registry.epoch in
    List.iter
      (fun key ->
        match Cache.find (Service.cache !service) key with
        | Some e when e.Cache.epoch <> "" && e.Cache.epoch <> live ->
          st.stale_cache <- st.stale_cache + 1
        | _ -> ())
      (Cache.keys_newest_first (Service.cache !service))
  in
  let op req =
    let doc = Service.handle !service req in
    if str "status" doc <> "ok" then st.op_errors <- st.op_errors + 1;
    doc
  in
  for day = 1 to days do
    (* morning workload: availability must hold every day *)
    let reqs = List.init nc (fun i -> compile_request device ~day i) in
    List.iter
      (fun doc ->
        st.compiles <- st.compiles + 1;
        if str "status" doc = "ok" then st.compile_ok <- st.compile_ok + 1)
      (Service.handle_batch !service reqs);
    (* calibration cycle: every 7th day is a full control pass, every
       3rd (and the crash-drill days) a forced incremental one *)
    let full = day mod 7 = 0 in
    let force = full || day mod 3 = 0 || day = 9 || day = 15 in
    let poison = day = 5 in
    let pre_epoch = (entry ()).Registry.epoch in
    let doc =
      op
        (Wire.Calibrate
           { id = Printf.sprintf "cal%d" day; device = dev_id; day = Some day; force; full; poison })
    in
    st.purged <- st.purged + int_of_float (flt "purged" doc);
    let result = Option.value ~default:Json.Null (obj "result" doc) in
    let action = str "action" result in
    let record_cost () =
      match str "mode" result with
      | "flagged-only" when not full ->
        st.inc_fractions <- flt "cost_fraction" result :: st.inc_fractions
      | "full-fallback" -> st.fallbacks <- st.fallbacks + 1
      | _ -> ()
    in
    (match action with
    | "no-drift" -> st.no_drift <- st.no_drift + 1
    | "rejected" ->
      st.rejections <- st.rejections + 1;
      record_cost ();
      if (entry ()).Registry.epoch <> pre_epoch then st.rb_mismatch <- st.rb_mismatch + 1
    | "promoted" ->
      st.promotions <- st.promotions + 1;
      if full then st.promotions_full <- st.promotions_full + 1;
      record_cost ();
      (match obj "canary" result with
      | Some c ->
        if not (booly "real_pass" c) then st.unverified <- st.unverified + 1;
        if full then st.full_inflations <- flt "inflation" c :: st.full_inflations
        else st.inc_inflations <- flt "inflation" c :: st.inc_inflations
      | None -> st.unverified <- st.unverified + 1)
    | "rolled-back" ->
      st.auto_rollbacks <- st.auto_rollbacks + 1;
      record_cost ();
      check_restored ~epoch:(str "restored_epoch" result)
    | "crashed" ->
      st.crashes <- st.crashes + 1;
      let candidate = str "candidate_epoch" result in
      st.restarts <- st.restarts + 1;
      ignore (boot ());
      let post = (entry ()).Registry.epoch in
      if post <> pre_epoch && post <> candidate then st.crash_bad <- st.crash_bad + 1
    | _ -> st.op_errors <- st.op_errors + 1);
    note_epoch ();
    check_cache ();
    (* operator rollback drill twice in the campaign *)
    if day = (days / 2) + 1 || day = days - 1 then begin
      let doc = Service.handle !service (Wire.Rollback { id = Printf.sprintf "rb%d" day; device = dev_id }) in
      match str "status" doc with
      | "ok" ->
        st.op_rollbacks <- st.op_rollbacks + 1;
        st.purged <- st.purged + int_of_float (flt "purged" doc);
        check_restored ~epoch:(str "epoch" doc);
        check_cache ();
        note_epoch ()
      | "rollback_failed" -> st.op_rollback_empty <- st.op_rollback_empty + 1
      | _ -> st.op_errors <- st.op_errors + 1
    end;
    st.timeline <-
      Json.Object
        [
          ("day", Json.Number (float_of_int day));
          ("action", Json.String action);
          ("epoch", Json.String (entry ()).Registry.epoch);
        ]
      :: st.timeline
  done;
  (* the health op must surface staleness + warnings (DESIGN 12) *)
  (* Minus the per-op-class latency percentiles: they are wall clock,
     and the report is digested across --jobs. *)
  let health =
    match op (Wire.Health { id = "h-final" }) with
    | Json.Object fields ->
      Json.Object
        (List.map
           (function
             | "health", Json.Object h -> ("health", Json.Object (List.remove_assoc "latency" h))
             | field -> field)
           fields)
    | other -> other
  in
  let status = op (Wire.Epoch_status { id = "es-final"; device = Some dev_id }) in
  let availability = float_of_int st.compile_ok /. float_of_int (max 1 st.compiles) in
  Json.Object
    [
      ("days", Json.Number (float_of_int days));
      ("seed", Json.Number (float_of_int seed));
      ("compiles", Json.Number (float_of_int st.compiles));
      ("compile_ok", Json.Number (float_of_int st.compile_ok));
      ("availability", Json.Number availability);
      ("op_errors", Json.Number (float_of_int st.op_errors));
      ("promotions", Json.Number (float_of_int st.promotions));
      ("promotions_full", Json.Number (float_of_int st.promotions_full));
      ("promoted_without_canary", Json.Number (float_of_int st.unverified));
      ("rejections", Json.Number (float_of_int st.rejections));
      ("no_drift", Json.Number (float_of_int st.no_drift));
      ("auto_rollbacks", Json.Number (float_of_int st.auto_rollbacks));
      ("operator_rollbacks", Json.Number (float_of_int st.op_rollbacks));
      ("operator_rollback_empty", Json.Number (float_of_int st.op_rollback_empty));
      ("rollback_mismatches", Json.Number (float_of_int st.rb_mismatch));
      ("crashes", Json.Number (float_of_int st.crashes));
      ("restarts", Json.Number (float_of_int st.restarts));
      ("crash_inconsistencies", Json.Number (float_of_int st.crash_bad));
      ("stale_cache_entries", Json.Number (float_of_int st.stale_cache));
      ("cache_purged", Json.Number (float_of_int st.purged));
      ( "incremental",
        Json.Object
          [
            ("cycles", Json.Number (float_of_int (List.length st.inc_fractions)));
            ("mean_cost_fraction", Json.Number (mean st.inc_fractions));
            ("max_cost_fraction", Json.Number (maxf st.inc_fractions));
            ("full_fallbacks", Json.Number (float_of_int st.fallbacks));
            ("max_inflation", Json.Number (maxf st.inc_inflations));
          ] );
      ( "full_control",
        Json.Object
          [
            ("cycles", Json.Number (float_of_int (List.length st.full_inflations)));
            ("max_inflation", Json.Number (maxf st.full_inflations));
          ] );
      ("canary_gate", Json.Number ccfg.Calibrator.canary_inflation);
      ("health", health);
      ("epoch_status", status);
      ("timeline", Json.Array (List.rev st.timeline));
    ]

(* ---- the jobs-sweep bench entry point ---- *)

let run ~days ~seed ~dir ~out ~smoke =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let days = if smoke then min days 6 else days in
  let jobs_list = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  Printf.printf "drift bench: %d-day campaign on %s, seed %d, jobs sweep %s\n%!" days dev_id
    seed
    (String.concat "/" (List.map string_of_int jobs_list));
  let t0 = Sys.time () in
  let runs =
    List.map
      (fun jobs ->
        let report = run_campaign ~days ~seed ~jobs ~dir in
        let digest = Digest.to_hex (Digest.string (Json.to_string report)) in
        Printf.printf "  jobs %d: digest %s\n%!" jobs digest;
        (jobs, report, digest))
      jobs_list
  in
  Printf.printf "campaign sweep done in %.1f s (CPU)\n%!" (Sys.time () -. t0);
  let _, report, digest0 = List.hd runs in
  let identical = List.for_all (fun (_, _, d) -> d = digest0) runs in
  let g k = match Json.member k report with Some (Json.Number n) -> n | _ -> nan in
  let sub o k =
    match Json.member o report with
    | Some inner -> ( match Json.member k inner with Some (Json.Number n) -> n | _ -> nan)
    | None -> nan
  in
  let availability = g "availability" in
  let inc_cycles = sub "incremental" "cycles" in
  let inc_mean = sub "incremental" "mean_cost_fraction" in
  let inc_inflation = sub "incremental" "max_inflation" in
  let gate = g "canary_gate" in
  let failures =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [
        (availability >= 1.0, "compile availability < 1.0");
        (g "op_errors" = 0.0, "a calibration/status op answered non-ok");
        (g "promoted_without_canary" = 0.0, "an epoch was promoted without a real canary pass");
        (g "rollback_mismatches" = 0.0, "a rollback was not bit-identical");
        (g "crash_inconsistencies" = 0.0, "a crash recovered onto a mixed epoch");
        (g "stale_cache_entries" = 0.0, "a cache entry outlived its epoch");
        (g "promotions" >= 1.0, "no epoch was ever promoted");
        ( g "auto_rollbacks" +. g "operator_rollbacks" >= 1.0,
          "no rollback was ever exercised" );
        (inc_cycles >= 1.0, "no Opt-3 incremental cycle ran");
        ( inc_mean < 0.25,
          Printf.sprintf "incremental cost fraction %.3f >= 0.25" inc_mean );
        ( inc_inflation <= gate +. 1e-9,
          Printf.sprintf "incremental canary inflation %.3f beyond the %.2f gate" inc_inflation
            gate );
        (identical, "campaign reports differ across --jobs");
      ]
  in
  let doc =
    Json.Object
      [
        ("jobs_swept", Json.Array (List.map (fun (j, _, _) -> Json.Number (float_of_int j)) runs));
        ("digests", Json.Array (List.map (fun (_, _, d) -> Json.String d) runs));
        ("jobs_identical", Json.Bool identical);
        ("pass", Json.Bool (failures = []));
        ("failures", Json.Array (List.map (fun m -> Json.String m) failures));
        ("campaign", report);
      ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf
    "availability %.4f, %d promotions (%d full control), %d rejections, %d+%d rollbacks, %d crashes\n"
    availability (int_of_float (g "promotions"))
    (int_of_float (g "promotions_full"))
    (int_of_float (g "rejections"))
    (int_of_float (g "auto_rollbacks"))
    (int_of_float (g "operator_rollbacks"))
    (int_of_float (g "crashes"));
  Printf.printf "incremental: %d cycles, mean cost %.3f of full, max canary inflation %.3f (gate %.2f)\n"
    (int_of_float inc_cycles) inc_mean inc_inflation gate;
  Printf.printf "wrote %s\n" out;
  if failures <> [] then begin
    List.iter (fun m -> Printf.eprintf "drift bench FAILED: %s\n" m) failures;
    exit 1
  end

(* ---- out-of-process poisoned-epoch drill (ci.sh) ----

   Against a live daemon: record the serving epoch, inject a poisoned
   calibration cycle (truncated merge) through the wire op, and assert
   the canary/merge gate rejected it — same epoch, compiles still ok,
   cache intact.  The socket client is the chaos drill's. *)

let roundtrip fd req =
  Exp_chaos.send_all fd (Exp_chaos.encode req ^ "\n");
  let buf = Bytes.create 65536 in
  let acc = Buffer.create 4096 in
  let rec read_line () =
    match String.index_opt (Buffer.contents acc) '\n' with
    | Some i -> String.sub (Buffer.contents acc) 0 i
    | None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 ->
        Printf.eprintf "drift drill: connection closed mid-response\n";
        exit 1
      | n ->
        Buffer.add_subbytes acc buf 0 n;
        read_line ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Printf.eprintf "drift drill: timed out waiting for a response\n";
        exit 1)
  in
  match Json.of_string (read_line ()) with
  | Ok doc -> doc
  | Error e ->
    Printf.eprintf "drift drill: unparseable response: %s\n" e;
    exit 1

let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "drift drill: %s\n" m; exit 1) fmt

let drill ~socket ~device_name =
  let device =
    match String.lowercase_ascii device_name with
    | "example6q" | "example" -> Core.Presets.example_6q ()
    | name -> (
      match Core.Presets.by_name name with
      | Some d -> d
      | None -> fail "unknown device %s" name)
  in
  match Exp_chaos.connect ~socket ~retries:50 with
  | None -> fail "cannot connect to %s" socket
  | Some fd ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
    let status_of doc = str "status" doc in
    (* 1. the serving epoch before the attack *)
    let es = roundtrip fd (Wire.Epoch_status { id = "es0"; device = Some device_name }) in
    if status_of es <> "ok" then fail "epoch_status answered %s" (status_of es);
    let epoch0 =
      match Json.find_list "devices" es with
      | Ok (d :: _) -> str "epoch" d
      | _ -> fail "epoch_status returned no devices"
    in
    (* 2. warm the cache under that epoch *)
    let compile i =
      roundtrip fd
        (Wire.Compile
           {
             id = Printf.sprintf "dc%d" i;
             device = device_name;
             circuit = build_circuit device i;
             params = Wire.default_params;
           })
    in
    for i = 0 to 2 do
      let doc = compile i in
      if status_of doc <> "ok" then fail "warmup compile %d answered %s" i (status_of doc)
    done;
    (* 3. poisoned calibration cycle: must be rejected *)
    let cal =
      roundtrip fd
        (Wire.Calibrate
           { id = "poison"; device = device_name; day = None; force = true; full = false; poison = true })
    in
    if status_of cal <> "ok" then fail "calibrate answered %s" (status_of cal);
    if booly "promoted" cal then fail "poisoned epoch was PROMOTED";
    let action =
      match obj "result" cal with Some r -> str "action" r | None -> ""
    in
    if action <> "rejected" then fail "poisoned cycle ended as %s, expected rejected" action;
    (* 4. epoch unchanged, compiles still served (cache intact) *)
    let es2 = roundtrip fd (Wire.Epoch_status { id = "es1"; device = Some device_name }) in
    let epoch1 =
      match Json.find_list "devices" es2 with
      | Ok (d :: _) -> str "epoch" d
      | _ -> fail "epoch_status (post) returned no devices"
    in
    if epoch1 <> epoch0 then fail "epoch changed across a rejected cycle";
    let post = compile 0 in
    if status_of post <> "ok" then fail "post-drill compile answered %s" (status_of post);
    if not (booly "cached" post) then fail "cache was lost across a rejected cycle";
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Printf.printf "drift drill: poisoned epoch rejected (%s), epoch %s intact, cache warm\n"
      action epoch0;
    exit 0
