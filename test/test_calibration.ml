(* Tests for the self-healing calibration data plane (DESIGN.md
   section 12): Opt-3 incremental re-characterization, the registry's
   rollback ring, purge-on-bump cache hygiene, the canary gate, crash
   consistency across the ring-pointer commit, and the health op's
   staleness/warning surfacing. *)

module Registry = Core.Registry
module Calibrator = Core.Calibrator
module Service = Core.Service
module Cache = Core.Cache
module Wire = Core.Wire
module Json = Core.Json
module Policy = Core.Policy
module Crosstalk = Core.Crosstalk
module Device = Core.Device
module Store = Core.Store
module Circuit = Core.Circuit
module Fault_plan = Core.Fault_plan

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name
let device () = Core.Presets.example_6q ()
let xbytes x = Json.to_string (Store.crosstalk_to_json x)

let fresh_dir name =
  let d = tmp name in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Sys.mkdir d 0o755;
  d

let test_circuit device i =
  let topo = Device.topology device in
  let edges = Array.of_list (Core.Topology.edges topo) in
  let a, b = edges.(i mod Array.length edges) in
  let c = Circuit.create (Device.nqubits device) in
  let c = Circuit.h c a in
  let c = Circuit.cnot c ~control:a ~target:b in
  Circuit.measure_all c

(* Crosstalk data that differs from [x] on every rate — a cheap way to
   mint distinct epochs for ring tests. *)
let scaled factor x =
  let entries = Crosstalk.entries x in
  List.fold_left
    (fun acc (t, s, r) -> Crosstalk.set acc ~target:t ~spectator:s (min 0.6 (r *. factor)))
    Crosstalk.empty entries

(* ---- Opt-3 incremental characterization ---- *)

let incremental_flagged_only () =
  let device = device () in
  (* seed the snapshot with one benign rate on a pair disjoint from the
     real crosstalk — its ratio is far below the flagging threshold, so
     Opt-3 must leave it alone and the merge must carry it through *)
  let benign = 1.2 *. Device.cnot_error device (0, 4) in
  let previous =
    Crosstalk.set (Device.ground_truth device) ~target:(0, 4) ~spectator:(3, 5)
      benign
  in
  let rng = Core.Rng.create 11 in
  let inc = Policy.characterize_incremental ~rng device ~previous in
  Alcotest.(check string) "flagged-only mode" "flagged-only"
    (Policy.incremental_mode_name inc.Policy.mode);
  Alcotest.(check bool) "at least one pair flagged" true (inc.Policy.flagged <> []);
  Alcotest.(check bool)
    (Printf.sprintf "cost fraction %.3f under 0.25" inc.Policy.cost_fraction)
    true
    (inc.Policy.cost_fraction < 0.25);
  Alcotest.(check int) "merge keeps every rate"
    (List.length (Crosstalk.entries previous))
    (List.length (Crosstalk.entries inc.Policy.merged));
  (* rates the incremental pass did not re-measure survive the merge
     byte for byte *)
  let remeasured = Crosstalk.entries inc.Policy.resilient.Policy.outcome.Policy.xtalk in
  let untouched =
    List.filter
      (fun (t, s, _) ->
        not (List.exists (fun (t', s', _) -> t = t' && s = s') remeasured))
      (Crosstalk.entries previous)
  in
  Alcotest.(check bool) "some rates were not re-measured" true (untouched <> []);
  List.iter
    (fun (t, s, r) ->
      match Crosstalk.conditional inc.Policy.merged ~target:t ~spectator:s with
      | Some r' -> Alcotest.(check (float 1e-12)) "unmeasured rate unchanged" r r'
      | None -> Alcotest.fail "unmeasured rate dropped by the merge")
    untouched

let incremental_remeasures_flagged () =
  (* On a drifted day, every pair the previous (ground-truth) snapshot
     flags gets a fresh rate in the merge, differing from the old one. *)
  let pough = Core.Presets.poughkeepsie () in
  let previous = Device.ground_truth pough in
  let day = Core.Drift.on_day pough ~day:2 in
  let inc = Policy.characterize_incremental ~rng:(Core.Rng.create 91) day ~previous in
  Alcotest.(check string) "flagged-only mode" "flagged-only"
    (Policy.incremental_mode_name inc.Policy.mode);
  List.iter
    (fun (e1, e2) ->
      let before = Crosstalk.conditional previous ~target:e1 ~spectator:e2 in
      let after = Crosstalk.conditional inc.Policy.merged ~target:e1 ~spectator:e2 in
      Alcotest.(check bool) "entry present" true (after <> None);
      Alcotest.(check bool) "entry re-measured" true (after <> before))
    inc.Policy.flagged

let incremental_full_fallback () =
  let device = device () in
  let rng = Core.Rng.create 12 in
  (* empty previous flags nothing -> full pass *)
  let inc = Policy.characterize_incremental ~rng device ~previous:Crosstalk.empty in
  Alcotest.(check string) "full-fallback mode" "full-fallback"
    (Policy.incremental_mode_name inc.Policy.mode);
  Alcotest.(check (float 1e-9)) "full cost" 1.0 inc.Policy.cost_fraction;
  Alcotest.(check bool) "fallback measures rates" true
    (Crosstalk.entries inc.Policy.merged <> [])

(* ---- the registry's rollback ring ---- *)

let registry_ring_rollback () =
  let device = device () in
  let a = Device.ground_truth device in
  let b = scaled 1.5 a in
  let c = scaled 2.0 a in
  let reg = Registry.create () in
  let e0 = Registry.add_static reg ~id:"dev" ~device ~xtalk:a in
  let eb = Result.get_ok (Registry.promote ~day:3 reg ~id:"dev" b) in
  let ec = Result.get_ok (Registry.promote ~day:5 reg ~id:"dev" c) in
  Alcotest.(check int) "ring depth" 2 (List.length ec.Registry.ring);
  Alcotest.(check (option int)) "promoted day" (Some 5) ec.Registry.promoted_day;
  let r1 = Result.get_ok (Registry.rollback ~day:6 reg ~id:"dev") in
  Alcotest.(check string) "rollback restores previous epoch" eb.Registry.epoch
    r1.Registry.epoch;
  Alcotest.(check string) "restored data is bit-identical" (xbytes b)
    (xbytes r1.Registry.xtalk);
  let r2 = Result.get_ok (Registry.rollback reg ~id:"dev") in
  Alcotest.(check string) "second rollback reaches the original" e0.Registry.epoch
    r2.Registry.epoch;
  Alcotest.(check string) "original data is bit-identical" (xbytes a)
    (xbytes r2.Registry.xtalk);
  Alcotest.(check bool) "empty ring refuses" true
    (Result.is_error (Registry.rollback reg ~id:"dev"));
  (* promoting identical data never pushes a self-copy *)
  let same = Result.get_ok (Registry.promote ~day:9 reg ~id:"dev" a) in
  Alcotest.(check int) "no self-copy on the ring" 0 (List.length same.Registry.ring);
  Alcotest.(check (option int)) "but the day advances" (Some 9) same.Registry.promoted_day

let registry_ring_bounded () =
  let device = device () in
  let a = Device.ground_truth device in
  let reg = Registry.create () in
  ignore (Registry.add_static reg ~id:"dev" ~device ~xtalk:a);
  let last =
    List.fold_left
      (fun _ i ->
        Result.get_ok
          (Registry.promote reg ~id:"dev" (scaled (1.0 +. (0.11 *. float_of_int i)) a)))
      (Registry.find reg "dev" |> Option.get)
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  Alcotest.(check int) "ring is bounded" Registry.ring_limit
    (List.length last.Registry.ring)

(* ---- purge-on-bump: cache entries die with their epoch ---- *)

let purge_on_epoch_change () =
  let device = device () in
  let reg = Registry.create () in
  ignore (Registry.add_static reg ~id:"dev" ~device ~xtalk:(Device.ground_truth device));
  let service = Service.create reg in
  (match Service.compile service ~device:"dev" (test_circuit device 0) with
  | Ok o -> Alcotest.(check bool) "cold compile" false o.Service.cached
  | Error e -> Alcotest.fail e);
  (match Service.compile service ~device:"dev" (test_circuit device 1) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "two entries cached" 2
    (Cache.counters (Service.cache service)).Cache.size;
  (* a legacy entry with an unknown epoch must survive any purge *)
  let legacy =
    match Cache.find (Service.cache service) (List.hd (Cache.keys_newest_first (Service.cache service))) with
    | Some e -> { e with Cache.epoch = "" }
    | None -> Alcotest.fail "cached entry vanished"
  in
  Cache.add (Service.cache service) "legacy-key" legacy;
  ignore
    (Result.get_ok
       (Registry.promote reg ~id:"dev" (scaled 1.7 (Device.ground_truth device))));
  let purged = Service.purge_stale service in
  Alcotest.(check int) "both stale entries purged" 2 purged;
  Alcotest.(check int) "legacy entry survives" 1
    (Cache.counters (Service.cache service)).Cache.size;
  Alcotest.(check int) "purges are counted" 2
    (Cache.counters (Service.cache service)).Cache.purged;
  (* recompile under the new epoch: a miss, then cached *)
  (match Service.compile service ~device:"dev" (test_circuit device 0) with
  | Ok o -> Alcotest.(check bool) "stale schedule not served" false o.Service.cached
  | Error e -> Alcotest.fail e);
  match Service.compile service ~device:"dev" (test_circuit device 0) with
  | Ok o -> Alcotest.(check bool) "fresh epoch caches again" true o.Service.cached
  | Error e -> Alcotest.fail e

(* ---- canary gate ---- *)

let canary_rejects_truncated_merge () =
  let device = device () in
  let reg = Registry.create () in
  let e0 = Registry.add_static reg ~id:"dev" ~device ~xtalk:(Device.ground_truth device) in
  let cal = Calibrator.create reg in
  match
    Calibrator.calibrate ~force:true
      ~extra_faults:[ Calibrator.Truncate_merge 0.85 ]
      cal ~id:"dev" ~day:2
  with
  | Error e -> Alcotest.fail e
  | Ok (Calibrator.Rejected { reason; _ }) ->
    Alcotest.(check string) "guard catches the torn merge" "truncated-merge-guard" reason;
    let e = Option.get (Registry.find reg "dev") in
    Alcotest.(check string) "incumbent epoch keeps serving" e0.Registry.epoch
      e.Registry.epoch
  | Ok a -> Alcotest.fail ("expected a rejection, got " ^ Calibrator.action_name a)

let canary_flake_never_strands_bad_epoch () =
  let device = device () in
  let reg = Registry.create () in
  ignore (Registry.add_static reg ~id:"dev" ~device ~xtalk:(Device.ground_truth device));
  let cal = Calibrator.create reg in
  (* A flaked verdict inverts the gate.  Whichever side the real
     verdict lands on, the registry must end the cycle on a
     canary-approved epoch: a spuriously rejected good candidate keeps
     the incumbent; a promoted bad one must be revoked on the spot. *)
  List.iter
    (fun day ->
      let before = Option.get (Registry.find reg "dev") in
      match
        Calibrator.calibrate ~force:true
          ~extra_faults:[ Calibrator.Canary_flake; Calibrator.Truncate_merge 0.4 ]
          cal ~id:"dev" ~day
      with
      | Error e -> Alcotest.fail e
      | Ok (Calibrator.Rejected _) ->
        let e = Option.get (Registry.find reg "dev") in
        Alcotest.(check string) "rejected cycle leaves the epoch alone"
          before.Registry.epoch e.Registry.epoch
      | Ok (Calibrator.Rolled_back { restored_epoch; bad_epoch; _ }) ->
        let e = Option.get (Registry.find reg "dev") in
        Alcotest.(check string) "rollback restores the incumbent"
          before.Registry.epoch restored_epoch;
        Alcotest.(check string) "registry is back on it" restored_epoch e.Registry.epoch;
        Alcotest.(check string) "bit-identical restoration"
          (xbytes before.Registry.xtalk) (xbytes e.Registry.xtalk);
        Alcotest.(check bool) "the bad epoch is gone" true (bad_epoch <> e.Registry.epoch)
      | Ok a ->
        Alcotest.fail ("flaked cycle must reject or roll back, got " ^ Calibrator.action_name a))
    [ 2; 5; 8 ]

(* ---- crash mid-promotion: satellite 3 ---- *)

(* A process start: register "dev" on the device's ground truth, then
   rebuild its epoch and ring from the calibration directory. *)
let boot ~dir device =
  let reg = Registry.create () in
  ignore (Registry.add_static reg ~id:"dev" ~device ~xtalk:(Device.ground_truth device));
  let cal = Calibrator.create ~dir reg in
  let recovered = Calibrator.recover cal in
  (reg, cal, recovered)

(* Force calibration cycles from [day] on until one promotes; returns
   the new epoch and the day after it. *)
let rec promote_from cal ~day ~last =
  if day > last then Alcotest.failf "no forced cycle promoted by day %d" last
  else
    match Calibrator.calibrate ~force:true cal ~id:"dev" ~day with
    | Ok (Calibrator.Promoted { new_epoch; _ }) -> (new_epoch, day + 1)
    | Ok _ -> promote_from cal ~day:(day + 1) ~last
    | Error e -> Alcotest.fail e

let crash_mid_promotion () =
  let device = device () in
  let dir = fresh_dir "qcx-test-calib-crash" in
  let cache_file = tmp "qcx-test-calib-cache.json" in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ cache_file; cache_file ^ ".journal" ];
  let reg, cal, _ = boot ~dir device in
  (* establish a promoted epoch so the ring pointer exists on disk *)
  let promoted_epoch, _ = promote_from cal ~day:1 ~last:6 in
  (* warm a journaled cache under that epoch *)
  let service = Service.create reg in
  Result.get_ok (Service.enable_persistence service ~cache_file ~fsync:false ());
  (match Service.compile service ~device:"dev" (test_circuit device 0) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let key0 =
    match Cache.keys_newest_first (Service.cache service) with
    | k :: _ -> k
    | [] -> Alcotest.fail "nothing cached"
  in
  (* crash BEFORE the ring-pointer commit: recovery must land on the
     old epoch with the cache fully valid *)
  (match
     Calibrator.calibrate ~force:true
       ~extra_faults:[ Calibrator.Crash_before_commit ]
       cal ~id:"dev" ~day:7
   with
  | Ok (Calibrator.Crashed { stage = Calibrator.Before_commit; candidate_epoch }) ->
    let reg2, cal2, _ = boot ~dir device in
    let e = Option.get (Registry.find reg2 "dev") in
    Alcotest.(check string) "pre-commit crash recovers the old epoch" promoted_epoch
      e.Registry.epoch;
    Alcotest.(check bool) "not the candidate" true (e.Registry.epoch <> candidate_epoch);
    let service2 = Service.create reg2 in
    ignore (Result.get_ok (Service.recover service2 ~cache_file ~fsync:false ()));
    Alcotest.(check int) "no entry purged: epoch unchanged" 0 (Service.purge_stale service2);
    Alcotest.(check bool) "journal-replayed entry still served" true
      (Cache.find (Service.cache service2) key0 <> None);
    (* crash AFTER the commit: recovery must land on exactly the new
       epoch, and every old-epoch cache entry must be purged *)
    (match
       Calibrator.calibrate ~force:true
         ~extra_faults:[ Calibrator.Crash_after_commit ]
         cal2 ~id:"dev" ~day:8
     with
    | Ok (Calibrator.Crashed { stage = Calibrator.After_commit; candidate_epoch }) ->
      let reg3, _, _ = boot ~dir device in
      let e3 = Option.get (Registry.find reg3 "dev") in
      Alcotest.(check string) "post-commit crash recovers the new epoch" candidate_epoch
        e3.Registry.epoch;
      Alcotest.(check bool) "old epoch retired onto the ring" true
        (List.mem_assoc promoted_epoch e3.Registry.ring);
      let service3 = Service.create reg3 in
      ignore (Result.get_ok (Service.recover service3 ~cache_file ~fsync:false ()));
      Alcotest.(check bool) "stale entries purged on recovery" true
        (Service.purge_stale service3 >= 1);
      Alcotest.(check bool) "no stale schedule survives" true
        (Cache.find (Service.cache service3) key0 = None)
    | Ok a -> Alcotest.fail ("expected a post-commit crash, got " ^ Calibrator.action_name a)
    | Error e -> Alcotest.fail e)
  | Ok a -> Alcotest.fail ("expected a pre-commit crash, got " ^ Calibrator.action_name a)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ cache_file; cache_file ^ ".journal" ]

(* ---- recovery never ingests a damaged epoch file ---- *)

let recover_skips_damaged_epoch_files () =
  let device = device () in
  let dir = fresh_dir "qcx-test-calib-damaged" in
  let reg, cal, _ = boot ~dir device in
  let registration_epoch = (Option.get (Registry.find reg "dev")).Registry.epoch in
  (* two promotions, so the ring holds the first promoted epoch and the
     registration epoch *)
  let _, day = promote_from cal ~day:1 ~last:8 in
  let current, _ = promote_from cal ~day ~last:(day + 8) in
  let before = Option.get (Registry.find reg "dev") in
  Alcotest.(check string) "registry on the second promotion" current before.Registry.epoch;
  Alcotest.(check int) "two ring epochs" 2 (List.length before.Registry.ring);
  let epoch_path digest = Filename.concat dir ("dev.epoch-" ^ digest ^ ".json") in
  let with_damaged digest damage check =
    let path = epoch_path digest in
    let ic = open_in_bin path in
    let intact = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let write contents =
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc
    in
    write (damage intact);
    Fun.protect ~finally:(fun () -> write intact) check
  in
  let damagers =
    [
      ("truncated", Fault_plan.truncate_string ~rng:(Core.Rng.create 21));
      ("bit-flipped", Fault_plan.bitflip_string ~rng:(Core.Rng.create 22));
    ]
  in
  List.iter
    (fun (how, damage) ->
      (* current epoch damaged: the device is not recovered and stays on
         its registration epoch with an empty ring *)
      with_damaged current damage (fun () ->
          let reg2, _, recovered = boot ~dir device in
          Alcotest.(check bool)
            (how ^ " current epoch: device not recovered")
            false
            (List.exists (fun (r : Calibrator.recovered) -> r.Calibrator.id = "dev") recovered);
          let e = Option.get (Registry.find reg2 "dev") in
          Alcotest.(check string)
            (how ^ " current epoch: registration epoch kept")
            registration_epoch e.Registry.epoch;
          Alcotest.(check int) (how ^ " current epoch: empty ring") 0
            (List.length e.Registry.ring));
      (* a ring epoch damaged: that epoch is dropped, the current epoch
         and the other ring epoch come back bit-identically *)
      List.iter
        (fun (victim, _) ->
          with_damaged victim damage (fun () ->
              let reg2, _, recovered = boot ~dir device in
              Alcotest.(check (list string))
                (how ^ " ring epoch: device recovered")
                [ "dev" ]
                (List.map (fun (r : Calibrator.recovered) -> r.Calibrator.id) recovered);
              let e = Option.get (Registry.find reg2 "dev") in
              Alcotest.(check string) (how ^ " ring epoch: current epoch kept") current
                e.Registry.epoch;
              Alcotest.(check string) (how ^ " ring epoch: current bytes")
                (xbytes before.Registry.xtalk) (xbytes e.Registry.xtalk);
              let survivors = List.filter (fun (d, _) -> d <> victim) before.Registry.ring in
              Alcotest.(check (list string))
                (how ^ " ring epoch: damaged epoch dropped")
                (List.map fst survivors) (List.map fst e.Registry.ring);
              List.iter2
                (fun (_, x) (_, x') ->
                  Alcotest.(check string) (how ^ " ring epoch: survivor bytes") (xbytes x)
                    (xbytes x'))
                survivors e.Registry.ring))
        before.Registry.ring)
    damagers

(* ---- health surfacing: satellite 2 ---- *)

let member_exn k doc =
  match Json.member k doc with Some v -> v | None -> Alcotest.fail ("missing field " ^ k)

let health_surfaces_staleness_and_warnings () =
  let device = device () in
  let path = tmp "qcx-test-calib-health.xtalk.json" in
  Result.get_ok (Store.save_crosstalk ~path (Device.ground_truth device));
  let reg = Registry.create () in
  ignore (Registry.add_from_paths reg ~id:"dev" ~device ~paths:[ path ]);
  ignore
    (Result.get_ok (Registry.promote ~day:2 reg ~id:"dev" (scaled 1.6 (Device.ground_truth device))));
  (* damage the snapshot on disk: the next refresh keeps serving but
     must surface the warning through health, not just stderr *)
  let oc = open_out path in
  output_string oc "{ truncated";
  close_out oc;
  let _, warning = Result.get_ok (Registry.refresh reg ~id:"dev") in
  Alcotest.(check bool) "refresh reports the warning" true (warning <> None);
  (* a second registered device absorbs the calibrate op that advances
     the service's logical clock, leaving "dev"'s promotion day alone *)
  ignore
    (Registry.add_static reg ~id:"aux" ~device ~xtalk:Crosstalk.empty);
  let service = Service.create reg in
  let cal = Calibrator.create reg in
  Service.set_calibrator service (Some cal);
  ignore
    (Service.handle service
       (Wire.Calibrate
          { id = "c1"; device = "aux"; day = Some 7; force = false; full = false; poison = false }));
  let health = Service.health_json service in
  let devices =
    match member_exn "devices" health with
    | Json.Array l -> l
    | _ -> Alcotest.fail "devices is not an array"
  in
  let dev =
    match
      List.find_opt
        (fun d -> match Json.find_str "id" d with Ok "dev" -> true | _ -> false)
        devices
    with
    | Some d -> d
    | None -> Alcotest.fail "device missing from health"
  in
  (match member_exn "staleness_days" dev with
  | Json.Number n -> Alcotest.(check (float 0.0)) "staleness = day - promoted_day" 5.0 n
  | _ -> Alcotest.fail "staleness_days is not a number");
  (match member_exn "warning" dev with
  | Json.String w ->
    Alcotest.(check bool) "quarantine warning surfaced" true (String.length w > 0)
  | _ -> Alcotest.fail "warning missing from health");
  (* the resilient loader quarantines the corrupt snapshot on disk, so
     the file may already be gone (or renamed) by the time we clean up *)
  if Sys.file_exists path then Sys.remove path

(* ---- wire round-trips for the new ops ---- *)

let wire_calibration_ops_roundtrip () =
  List.iter
    (fun req ->
      match Wire.request_of_json (Wire.request_to_json req) with
      | Ok got -> Alcotest.(check bool) "round-trips" true (got = req)
      | Error e -> Alcotest.fail e)
    [
      Wire.Calibrate
        { id = "a"; device = "dev"; day = Some 4; force = true; full = false; poison = true };
      Wire.Calibrate
        { id = "b"; device = "dev"; day = None; force = false; full = true; poison = false };
      Wire.Epoch_status { id = "c"; device = Some "dev" };
      Wire.Epoch_status { id = "d"; device = None };
      Wire.Rollback { id = "e"; device = "dev" };
    ]

let rollback_op_pops_ring_and_purges () =
  let device = device () in
  let reg = Registry.create () in
  let e0 = Registry.add_static reg ~id:"dev" ~device ~xtalk:(Device.ground_truth device) in
  let service = Service.create reg in
  ignore
    (Result.get_ok (Registry.promote ~day:1 reg ~id:"dev" (scaled 1.4 (Device.ground_truth device))));
  (* cache a schedule under the promoted epoch: the rollback must
     retire it *)
  (match Service.compile service ~device:"dev" (test_circuit device 0) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let doc = Service.handle service (Wire.Rollback { id = "r1"; device = "dev" }) in
  Alcotest.(check string) "rollback answers ok" "ok"
    (Result.value ~default:"" (Json.find_str "status" doc));
  Alcotest.(check string) "back on the original epoch" e0.Registry.epoch
    (Result.value ~default:"" (Json.find_str "epoch" doc));
  (* the entry cached under the retired epoch is gone *)
  (match member_exn "purged" doc with
  | Json.Number n -> Alcotest.(check bool) "purge counted in the response" true (n >= 1.0)
  | _ -> Alcotest.fail "purged is not a number");
  let doc2 = Service.handle service (Wire.Rollback { id = "r2"; device = "dev" }) in
  Alcotest.(check string) "empty ring answers a typed failure" "rollback_failed"
    (Result.value ~default:"" (Json.find_str "status" doc2))

let suite =
  [
    ( "calibration",
      [
        Alcotest.test_case "incremental: flagged-only cost and merge" `Quick
          incremental_flagged_only;
        Alcotest.test_case "incremental: re-measures flagged pairs" `Slow
          incremental_remeasures_flagged;
        Alcotest.test_case "incremental: full fallback" `Quick incremental_full_fallback;
        Alcotest.test_case "registry: ring rollback is bit-identical" `Quick
          registry_ring_rollback;
        Alcotest.test_case "registry: ring is bounded" `Quick registry_ring_bounded;
        Alcotest.test_case "cache: purge on epoch change" `Quick purge_on_epoch_change;
        Alcotest.test_case "canary: truncated merge rejected" `Quick
          canary_rejects_truncated_merge;
        Alcotest.test_case "canary: flake never strands a bad epoch" `Quick
          canary_flake_never_strands_bad_epoch;
        Alcotest.test_case "crash mid-promotion recovers consistently" `Quick
          crash_mid_promotion;
        Alcotest.test_case "recover never ingests a damaged epoch file" `Quick
          recover_skips_damaged_epoch_files;
        Alcotest.test_case "health: staleness and warnings surfaced" `Quick
          health_surfaces_staleness_and_warnings;
        Alcotest.test_case "wire: calibration ops round-trip" `Quick
          wire_calibration_ops_roundtrip;
        Alcotest.test_case "service: rollback op pops ring and purges" `Quick
          rollback_op_pops_ring_and_purges;
      ] );
  ]
