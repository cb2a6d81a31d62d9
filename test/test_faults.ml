(* Tests for the robustness layer: hardened persistence under
   corruption, deterministic fault plans, resilient characterization
   fallbacks and their jobs-independence, solver deadlines, and the
   scheduler degradation ladder. *)

module Rng = Core.Rng
module Json = Core.Json
module Store = Core.Store
module Crosstalk = Core.Crosstalk
module Device = Core.Device
module Presets = Core.Presets
module Policy = Core.Policy
module Rb = Core.Rb
module Solver = Core.Solver
module Schedule = Core.Schedule
module Xtalk_sched = Core.Xtalk_sched
module Fault_plan = Core.Fault_plan

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ---- persistence: property round-trip ---- *)

let candidate_pairs =
  (* directed (target, spectator) pairs over a 6-qubit grid *)
  [ ((0, 1), (2, 3)); ((2, 3), (0, 1)); ((0, 1), (4, 5)); ((3, 4), (0, 1)); ((1, 2), (4, 5)) ]

let gen_entries =
  QCheck.Gen.(
    list_size (int_bound (List.length candidate_pairs - 1))
      (pair (int_bound (List.length candidate_pairs - 1)) (float_bound_inclusive 1.0)))

let crosstalk_of_entries entries =
  List.fold_left
    (fun acc (i, rate) ->
      let target, spectator = List.nth candidate_pairs i in
      Crosstalk.set acc ~target ~spectator rate)
    Crosstalk.empty entries

let prop_roundtrip =
  QCheck.Test.make ~name:"crosstalk save/load round-trips any valid rates" ~count:50
    (QCheck.make gen_entries) (fun entries ->
      let x = crosstalk_of_entries entries in
      let path = tmp "qcx_faults_roundtrip.json" in
      match Store.save_crosstalk ~path x with
      | Error e -> QCheck.Test.fail_report e
      | Ok () -> (
        match Store.load_crosstalk ~path () with
        | Error e -> QCheck.Test.fail_report e
        | Ok loaded ->
          List.for_all
            (fun (target, spectator, rate) ->
              Crosstalk.conditional loaded ~target ~spectator = Some rate)
            (Crosstalk.entries x)
          && List.length (Crosstalk.entries loaded) = List.length (Crosstalk.entries x)))

(* ---- persistence: corruption is an Error, never an exception ---- *)

let saved_snapshot () =
  let x = Crosstalk.set_symmetric Crosstalk.empty (0, 1) (2, 3) 0.11 0.06 in
  let path = tmp "qcx_faults_corrupt.json" in
  (match Store.save_crosstalk ~path x with Ok () -> () | Error e -> Alcotest.fail e);
  path

let expect_load_error what path =
  match Store.load_crosstalk ~path () with
  | Ok _ -> Alcotest.failf "%s: corrupt snapshot loaded successfully" what
  | Error _ -> ()
  | exception e ->
    Alcotest.failf "%s: loader raised %s instead of Error" what (Printexc.to_string e)

let store_truncation_is_error () =
  let path = saved_snapshot () in
  let contents = read_file path in
  let rng = Rng.create 11 in
  for i = 0 to 19 do
    write_file path (Fault_plan.truncate_string ~rng contents);
    expect_load_error (Printf.sprintf "truncation %d" i) path
  done

let store_bitflip_is_error () =
  let path = saved_snapshot () in
  let contents = read_file path in
  let rng = Rng.create 12 in
  for i = 0 to 19 do
    write_file path (Fault_plan.bitflip_string ~rng contents);
    expect_load_error (Printf.sprintf "bitflip %d" i) path
  done

let replace_first ~needle ~by hay =
  let n = String.length needle and h = String.length hay in
  let rec scan i =
    if i + n > h then hay
    else if String.sub hay i n = needle then
      String.sub hay 0 i ^ by ^ String.sub hay (i + n) (h - i - n)
    else scan (i + 1)
  in
  scan 0

let store_wrong_version_is_error () =
  (* Wrong envelope version: rebuild the envelope by hand around the
     valid payload.  Wrong payload version: a valid envelope around a
     mistagged payload. *)
  let x = Crosstalk.set_symmetric Crosstalk.empty (0, 1) (2, 3) 0.11 0.06 in
  let payload = Store.crosstalk_to_json x in
  let path = tmp "qcx_faults_version.json" in
  let envelope ~format doc =
    (* checksum computed the same way save does: over the canonical
       payload serialization *)
    Json.Object
      [
        ("format", Json.String format);
        ("checksum", Json.String (Digest.to_hex (Digest.string (Json.to_string doc))));
        ("payload", doc);
      ]
  in
  write_file path (Json.to_string (envelope ~format:"qcx-store-v9" payload));
  expect_load_error "envelope version" path;
  let mistagged =
    match payload with
    | Json.Object fields ->
      Json.Object
        (List.map
           (function
             | "format", _ -> ("format", Json.String "qcx-crosstalk-v999")
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "payload not an object"
  in
  write_file path (Json.to_string (envelope ~format:"qcx-store-v2" mistagged));
  expect_load_error "payload version" path

let store_checksum_mismatch_is_error () =
  let path = saved_snapshot () in
  let contents = read_file path in
  (* Change a rate without updating the checksum. *)
  let damaged = replace_first ~needle:"0.11" ~by:"0.12" contents in
  Alcotest.(check bool) "test altered the payload" false (damaged = contents);
  write_file path damaged;
  expect_load_error "checksum" path

let store_quarantine_and_fallback () =
  let dir = tmp "qcx_faults_quarantine" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let old_path = Filename.concat dir "day0.json" in
  let new_path = Filename.concat dir "day1.json" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ old_path; new_path ];
  let old_x = Crosstalk.set_symmetric Crosstalk.empty (0, 1) (2, 3) 0.08 0.05 in
  let new_x = Crosstalk.set_symmetric Crosstalk.empty (0, 1) (2, 3) 0.12 0.07 in
  (match Store.save_crosstalk ~path:old_path old_x with Ok () -> () | Error e -> Alcotest.fail e);
  (match Store.save_crosstalk ~path:new_path new_x with Ok () -> () | Error e -> Alcotest.fail e);
  write_file new_path (Fault_plan.truncate_string ~rng:(Rng.create 3) (read_file new_path));
  let report = Store.load_crosstalk_resilient ~paths:[ new_path; old_path ] () in
  (match report.Store.data with
  | None -> Alcotest.fail "no snapshot survived"
  | Some x ->
    Alcotest.(check (option (float 1e-12))) "fell back to old value" (Some 0.08)
      (Crosstalk.conditional x ~target:(0, 1) ~spectator:(2, 3)));
  Alcotest.(check (option string)) "source is the old snapshot" (Some old_path)
    report.Store.source;
  Alcotest.(check int) "one file quarantined" 1 (List.length report.Store.quarantined);
  Alcotest.(check string) "quarantined the corrupt path" new_path
    (fst (List.hd report.Store.quarantined));
  Alcotest.(check bool) "corrupt file moved aside" false (Sys.file_exists new_path)

(* ---- fault plans: determinism ---- *)

let fault_plan_deterministic () =
  let p1 = Fault_plan.create ~seed:42 in
  let p2 = Fault_plan.create ~seed:42 in
  let sites =
    List.concat_map
      (fun day ->
        List.concat_map
          (fun e -> List.map (fun a -> (day, e, a)) [ 0; 1; 2 ])
          [ 0; 1; 2; 3; 4; 5; 6; 7 ])
      [ 0; 1; 2; 3; 4 ]
  in
  let describe = function
    (* string projection: Inject_corrupt_rate nan must compare equal
       to itself, which structural equality on floats refuses *)
    | None -> "none"
    | Some Policy.Inject_hang -> "hang"
    | Some (Policy.Inject_dropout f) -> Printf.sprintf "dropout(%h)" f
    | Some (Policy.Inject_corrupt_rate r) -> Printf.sprintf "corrupt(%h)" r
  in
  let sample plan order =
    List.map
      (fun (day, experiment, attempt) ->
        describe (Fault_plan.inject plan ~day ~experiment ~attempt))
      order
  in
  Alcotest.(check bool) "same seed, same faults" true (sample p1 sites = sample p2 sites);
  Alcotest.(check bool) "evaluation order is irrelevant" true
    (List.rev (sample p1 (List.rev sites)) = sample p1 sites);
  let p3 = Fault_plan.create ~seed:43 in
  Alcotest.(check bool) "different seed, different faults" false
    (sample p1 sites = sample p3 sites)

let fault_plan_exercises_every_class () =
  (* Over enough sites the plan's fixed rates must produce every
     experiment fault kind. *)
  let plan = Fault_plan.create ~seed:5 in
  let hangs = ref 0 and dropouts = ref 0 and corrupts = ref 0 in
  for day = 0 to 19 do
    for experiment = 0 to 9 do
      for attempt = 0 to 2 do
        match Fault_plan.inject plan ~day ~experiment ~attempt with
        | Some Policy.Inject_hang -> incr hangs
        | Some (Policy.Inject_dropout _) -> incr dropouts
        | Some (Policy.Inject_corrupt_rate _) -> incr corrupts
        | None -> ()
      done
    done
  done;
  Alcotest.(check bool) "hangs injected" true (!hangs > 0);
  Alcotest.(check bool) "dropouts injected" true (!dropouts > 0);
  Alcotest.(check bool) "corrupt fits injected" true (!corrupts > 0)

(* ---- resilient characterization ---- *)

let small_plan device rng = Policy.plan ~rng device (Policy.High_crosstalk_only [ ((0, 1), (2, 3)) ])

let small_params = { Rb.lengths = [ 1; 2; 4 ]; seeds = 1; trials = 32 }

let resilient_no_faults_is_fresh () =
  let device = Presets.example_6q () in
  let rng = Rng.create 9 in
  let plan = small_plan device (Rng.copy rng) in
  let r = Policy.characterize_resilient ~params:small_params ~rng device plan in
  Alcotest.(check bool) "has freshness entries" true (r.Policy.freshness <> []);
  List.iter
    (fun (_, f) ->
      Alcotest.(check string) "fresh" "fresh" (Policy.freshness_name f))
    r.Policy.freshness;
  Alcotest.(check int) "no faults" 0 r.Policy.faults

let resilient_hang_then_recover () =
  let device = Presets.example_6q () in
  let rng = Rng.create 9 in
  let plan = small_plan device (Rng.copy rng) in
  let inject ~experiment:_ ~attempt = if attempt = 0 then Some Policy.Inject_hang else None in
  let r = Policy.characterize_resilient ~params:small_params ~inject ~rng device plan in
  List.iter
    (fun (_, f) ->
      Alcotest.(check string) "recovered after one failure" "recovered(1)"
        (Policy.freshness_name f))
    r.Policy.freshness;
  Alcotest.(check bool) "timeout charged" true (r.Policy.simulated_seconds > 0.0);
  Alcotest.(check bool) "faults counted" true (r.Policy.faults > 0)

let resilient_falls_back_to_previous () =
  let device = Presets.example_6q () in
  let rng = Rng.create 9 in
  let plan = small_plan device (Rng.copy rng) in
  let previous = Crosstalk.set_symmetric Crosstalk.empty (0, 1) (2, 3) 0.123 0.045 in
  let inject ~experiment:_ ~attempt:_ = Some (Policy.Inject_corrupt_rate Float.nan) in
  let r = Policy.characterize_resilient ~params:small_params ~inject ~previous ~rng device plan in
  List.iter
    (fun (_, f) ->
      Alcotest.(check string) "stale-previous" "stale-previous" (Policy.freshness_name f))
    r.Policy.freshness;
  Alcotest.(check (option (float 1e-12))) "serves the stored value" (Some 0.123)
    (Crosstalk.conditional r.Policy.outcome.Policy.xtalk ~target:(0, 1) ~spectator:(2, 3))

let resilient_falls_back_to_calibration () =
  let device = Presets.example_6q () in
  let rng = Rng.create 9 in
  let plan = small_plan device (Rng.copy rng) in
  let inject ~experiment:_ ~attempt:_ = Some (Policy.Inject_corrupt_rate (-0.5)) in
  let r = Policy.characterize_resilient ~params:small_params ~inject ~rng device plan in
  List.iter
    (fun (_, f) ->
      Alcotest.(check string) "stale-calibration" "stale-calibration"
        (Policy.freshness_name f))
    r.Policy.freshness;
  Alcotest.(check (option (float 1e-12))) "serves the calibration rate"
    (Some (Device.cnot_error device (0, 1)))
    (Crosstalk.conditional r.Policy.outcome.Policy.xtalk ~target:(0, 1) ~spectator:(2, 3))

let resilient_jobs_identical_under_plan () =
  (* A seeded fault plan over the full one-hop bin-packed pass: the
     same plan, seed, day and RNG must give the same characterization
     whether the noisy executions run on one domain or two. *)
  let device = Presets.example_6q () in
  let run jobs =
    let rng = Rng.create 13 in
    let plan = Policy.plan ~rng:(Rng.copy rng) device Policy.One_hop_binpacked in
    let inject = Fault_plan.inject (Fault_plan.create ~seed:13) ~day:1 in
    Policy.characterize_resilient ~params:small_params ~jobs ~inject ~rng device plan
  in
  let r1 = run 1 and r2 = run 2 in
  let xbytes (r : Policy.resilient_outcome) =
    Json.to_string (Store.crosstalk_to_json r.Policy.outcome.Policy.xtalk)
  in
  Alcotest.(check bool) "the plan injected faults" true (r1.Policy.faults > 0);
  Alcotest.(check string) "same crosstalk bytes" (xbytes r1) (xbytes r2);
  Alcotest.(check bool) "same per-pair freshness" true
    (r1.Policy.freshness = r2.Policy.freshness);
  Alcotest.(check int) "same attempts" r1.Policy.attempts r2.Policy.attempts;
  Alcotest.(check int) "same faults" r1.Policy.faults r2.Policy.faults

(* ---- solver deadline ---- *)

let solver_deadline_returns_incumbent () =
  (* The cost has to hide behind guarded span edges the lower bound
     cannot anticipate (an unassigned guard contributes nothing), so
     the leftmost all-false dive lands on the worst leaf and every
     later true branch improves the incumbent — cost-guided branching
     has no cost groups to steer by and bound pruning cannot close the
     2^30-leaf tree before the first deadline check.  (With plain
     cost groups, cost-guided branching dives straight to the optimum
     and finishes under 64 nodes.) *)
  let s = Solver.create () in
  let origin = Solver.new_num s "origin" in
  for i = 0 to 29 do
    let x = Solver.new_bool s (Printf.sprintf "x%d" i) in
    let t = Solver.new_num s (Printf.sprintf "t%d" i) in
    Solver.add_diff s ~guard:{ Solver.var = x; value = false } ~dst:t ~src:origin
      ~weight:10.0 ();
    Solver.add_diff s ~guard:{ Solver.var = x; value = true } ~dst:t ~src:origin
      ~weight:1.0 ();
    Solver.add_span_cost s ~weight:1.0 ~last:t ~first:origin;
    Solver.add_sink s t
  done;
  match Solver.solve ~deadline_seconds:0.0 s with
  | None -> Alcotest.fail "expected a best-so-far incumbent"
  | Some sol ->
    Alcotest.(check bool) "timed out" true sol.Solver.timed_out;
    Alcotest.(check bool) "not optimal" false sol.Solver.optimal;
    Alcotest.(check bool) "incumbent within bounds" true
      (sol.Solver.objective >= 30.0 && sol.Solver.objective <= 300.0)

let solver_deadline_completes_when_loose () =
  let s = Solver.create () in
  let x = Solver.new_bool s "x" in
  Solver.add_cost_group s
    [ ([ { Solver.var = x; value = true } ], 1.0); ([ { Solver.var = x; value = false } ], 2.0) ]
  ;
  match Solver.solve ~deadline_seconds:60.0 s with
  | None -> Alcotest.fail "satisfiable"
  | Some sol ->
    Alcotest.(check bool) "not timed out" false sol.Solver.timed_out;
    Alcotest.(check bool) "optimal" true sol.Solver.optimal

(* ---- degradation ladder ---- *)

(* Layers of CNOTs over a maximal disjoint edge set: every layer's
   gates can run in parallel, so gates on the device's high-crosstalk
   edge pair form interfering instances the solver must arbitrate. *)
let stress_circuit device ~layers =
  let disjoint =
    List.fold_left
      (fun acc (a, b) ->
        if List.exists (fun (c, d) -> a = c || a = d || b = c || b = d) acc then acc
        else (a, b) :: acc)
      []
      (Core.Topology.edges (Device.topology device))
  in
  let rec go c n =
    if n = 0 then c
    else
      go
        (List.fold_left
           (fun c (a, b) -> Core.Circuit.cnot c ~control:a ~target:b)
           c disjoint)
        (n - 1)
  in
  go (Core.Circuit.create (Device.nqubits device)) layers

let ladder_fixture ?(layers = 2) () =
  let device = Presets.example_6q () in
  let xtalk = Device.ground_truth device in
  (device, xtalk, stress_circuit device ~layers)

let check_valid sched = Alcotest.(check (result unit string)) "valid schedule" (Ok ()) (Schedule.validate sched)

let ladder_default_is_exact () =
  let device, xtalk, circuit = ladder_fixture () in
  let sched, stats = Xtalk_sched.schedule ~device ~xtalk circuit in
  check_valid sched;
  Alcotest.(check bool) "has interfering pairs" true (stats.Xtalk_sched.pairs > 0);
  Alcotest.(check string) "exact" "exact" (Xtalk_sched.rung_name stats.Xtalk_sched.rung);
  Alcotest.(check bool) "optimal" true stats.Xtalk_sched.optimal

let ladder_clustered_rung () =
  let device, xtalk, circuit = ladder_fixture () in
  let sched, stats = Xtalk_sched.schedule ~max_exact_pairs:0 ~device ~xtalk circuit in
  check_valid sched;
  Alcotest.(check string) "clustered" "clustered"
    (Xtalk_sched.rung_name stats.Xtalk_sched.rung);
  Alcotest.(check bool) "reported as non-optimal" false stats.Xtalk_sched.optimal

let ladder_budget_blowup_degrades () =
  let device, xtalk, circuit = ladder_fixture () in
  (* The warm-start hints give the exact rung a feasible incumbent
     before the first search node, so even a zero node budget serves a
     schedule from the solver (honestly labelled Incumbent) instead of
     falling through the ladder. *)
  let sched, stats = Xtalk_sched.schedule ~node_budget:0 ~device ~xtalk circuit in
  check_valid sched;
  Alcotest.(check string) "warm incumbent serves the compile" "incumbent"
    (Xtalk_sched.rung_name stats.Xtalk_sched.rung);
  Alcotest.(check bool) "reported as non-optimal" false stats.Xtalk_sched.optimal;
  (* Starting at Clustered, the cluster solves still get warm
     incumbents, but the pinned replay and then the window stitch run
     without hints: a zero budget reaches no leaf there, and the
     compile degrades all the way to greedy. *)
  let sched, stats =
    Xtalk_sched.schedule ~ladder_start:Xtalk_sched.Clustered ~node_budget:0 ~device ~xtalk
      circuit
  in
  check_valid sched;
  Alcotest.(check string) "hintless replay degrades to greedy" "greedy"
    (Xtalk_sched.rung_name stats.Xtalk_sched.rung)

let ladder_deadline_degrades () =
  (* Enough pairs that the exact solve cannot finish before the first
     deadline check; max_exact_pairs keeps the exact rung first so the
     descent is driven by the deadline alone. *)
  let device, xtalk, circuit = ladder_fixture ~layers:4 () in
  let sched, stats =
    Xtalk_sched.schedule ~max_exact_pairs:100 ~deadline_seconds:0.0 ~device ~xtalk circuit
  in
  check_valid sched;
  Alcotest.(check bool) "not served by the exact rung" true
    (stats.Xtalk_sched.rung <> Xtalk_sched.Exact)

let ladder_every_rung_is_valid () =
  let device, xtalk, circuit = ladder_fixture () in
  List.iter
    (fun start ->
      let sched, stats = Xtalk_sched.schedule ~ladder_start:start ~device ~xtalk circuit in
      check_valid sched;
      match start with
      | Xtalk_sched.Greedy | Xtalk_sched.Parallel ->
        Alcotest.(check string)
          (Printf.sprintf "start at %s stays there" (Xtalk_sched.rung_name start))
          (Xtalk_sched.rung_name start)
          (Xtalk_sched.rung_name stats.Xtalk_sched.rung)
      | _ -> ())
    Xtalk_sched.all_rungs

let suite =
  [
    ( "faults.persist",
      [
        QCheck_alcotest.to_alcotest prop_roundtrip;
        Alcotest.test_case "truncation is an error" `Quick store_truncation_is_error;
        Alcotest.test_case "bitflip is an error" `Quick store_bitflip_is_error;
        Alcotest.test_case "wrong versions are errors" `Quick store_wrong_version_is_error;
        Alcotest.test_case "checksum mismatch is an error" `Quick store_checksum_mismatch_is_error;
        Alcotest.test_case "quarantine and fallback" `Quick store_quarantine_and_fallback;
      ] );
    ( "faults.plan",
      [
        Alcotest.test_case "deterministic per seed" `Quick fault_plan_deterministic;
        Alcotest.test_case "covers every fault class" `Quick fault_plan_exercises_every_class;
      ] );
    ( "faults.characterize",
      [
        Alcotest.test_case "no faults, all fresh" `Quick resilient_no_faults_is_fresh;
        Alcotest.test_case "hang then recover" `Quick resilient_hang_then_recover;
        Alcotest.test_case "fallback to previous" `Quick resilient_falls_back_to_previous;
        Alcotest.test_case "fallback to calibration" `Quick resilient_falls_back_to_calibration;
        Alcotest.test_case "jobs-identical under a fault plan" `Quick
          resilient_jobs_identical_under_plan;
      ] );
    ( "faults.solver",
      [
        Alcotest.test_case "deadline returns incumbent" `Quick solver_deadline_returns_incumbent;
        Alcotest.test_case "loose deadline completes" `Quick solver_deadline_completes_when_loose;
      ] );
    ( "faults.ladder",
      [
        Alcotest.test_case "default is exact" `Quick ladder_default_is_exact;
        Alcotest.test_case "clustered rung" `Quick ladder_clustered_rung;
        Alcotest.test_case "budget blowup degrades" `Quick ladder_budget_blowup_degrades;
        Alcotest.test_case "deadline degrades" `Quick ladder_deadline_degrades;
        Alcotest.test_case "every rung is valid" `Quick ladder_every_rung_is_valid;
      ] );
  ]
