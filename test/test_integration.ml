(* Integration tests: the full pipeline across module boundaries,
   including quantitative agreement between characterization and
   ground truth, deployment through barriers, drift workflows, and the
   paper's Figure 1 example device. *)

module Rng = Core.Rng
module Circuit = Core.Circuit
module Schedule = Core.Schedule
module Device = Core.Device
module Presets = Core.Presets
module Crosstalk = Core.Crosstalk
module Policy = Core.Policy

let characterized = Hashtbl.create 3

(* Characterization is expensive; memoize per device. *)
let xtalk_for device =
  match Hashtbl.find_opt characterized (Device.name device) with
  | Some x -> x
  | None ->
    let rng = Rng.create (Hashtbl.hash (Device.name device, "test-integration")) in
    let plan = Policy.plan ~rng device Policy.One_hop_binpacked in
    let outcome = Policy.characterize ~rng device plan in
    Hashtbl.replace characterized (Device.name device) outcome.Policy.xtalk;
    outcome.Policy.xtalk

let characterization_matches_truth () =
  (* The characterized flag set must equal the ground-truth set on all
     three devices (the calibrated outcome this repository's presets
     are tuned for). *)
  List.iter
    (fun device ->
      let xtalk = xtalk_for device in
      let flagged =
        List.sort compare
          (Crosstalk.high_crosstalk_pairs xtalk (Device.calibration device) ~threshold:3.0)
      in
      let truth = List.sort compare (Device.true_high_crosstalk_pairs device ~threshold:3.0) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: flag set equals ground truth" (Device.name device))
        true (flagged = truth))
    (Presets.all ())

let characterized_rates_ordered () =
  (* For every ground-truth pair, the characterized conditional rate
     must exceed the calibration independent rate by a clear margin. *)
  let device = Presets.poughkeepsie () in
  let xtalk = xtalk_for device in
  let cal = Device.calibration device in
  List.iter
    (fun (e1, e2) ->
      let cond = Crosstalk.conditional_or_independent xtalk cal ~target:e1 ~spectator:e2 in
      let ind = (Core.Calibration.gate cal e1).Core.Calibration.cnot_error in
      Alcotest.(check bool) "conditional over 2x independent" true (cond > 2.0 *. ind))
    (Device.true_high_crosstalk_pairs device ~threshold:3.0)

let scheduler_decisions_from_characterized_data () =
  (* XtalkSched driven by *characterized* data must serialize the same
     flagship overlap that ground truth implies, and improve the oracle
     error on the Fig. 6 path. *)
  let device = Presets.poughkeepsie () in
  let xtalk = xtalk_for device in
  let bench = Core.Swap_circuits.build device ~src:0 ~dst:13 in
  let circuit = Circuit.measure_all bench.Core.Swap_circuits.circuit in
  let xs, stats = Core.Xtalk_sched.schedule ~omega:0.5 ~device ~xtalk circuit in
  Alcotest.(check bool) "found interfering pairs" true (stats.Core.Xtalk_sched.pairs > 0);
  let par = Core.Par_sched.schedule device circuit in
  let err s = (Core.Evaluate.oracle device s).Core.Evaluate.error in
  Alcotest.(check bool) "beats ParSched with measured data" true (err xs < err par)

let barrier_deployment_equivalence () =
  (* Scheduling through barrier deployment (solve once, replay with
     orderings) must give the same oracle error as the direct solver
     schedule. *)
  let device = Presets.poughkeepsie () in
  let xtalk = Device.ground_truth device in
  let bench = Core.Swap_circuits.build device ~src:5 ~dst:12 in
  let circuit = Circuit.measure_all bench.Core.Swap_circuits.circuit in
  let direct, _ = Core.Xtalk_sched.schedule ~omega:0.5 ~device ~xtalk circuit in
  let instances =
    (Core.Encoding.prepare ~device ~xtalk ~threshold:3.0 (Schedule.circuit direct))
      .Core.Encoding.instances
  in
  let serialized = Core.Barriers.serialized_pairs direct ~pairs:instances in
  let deployed = Core.Par_sched.schedule_with_orderings device circuit ~extra:serialized in
  let err s = (Core.Evaluate.oracle device s).Core.Evaluate.error in
  Alcotest.(check bool) "deployed within 10% of direct" true
    (Float.abs (err deployed -. err direct) < 0.1 *. err direct +. 0.02)

let drift_workflow_refresh () =
  (* Opt 3 workflow across days: re-measuring only the flagged pairs on
     a drifted device still tracks its (drifted) conditional rates. *)
  let device = Presets.poughkeepsie () in
  let rng = Rng.create 77 in
  let flagged = Device.true_high_crosstalk_pairs device ~threshold:3.0 in
  let day3 = Core.Drift.on_day device ~day:3 in
  let plan = Policy.plan ~rng day3 (Policy.High_crosstalk_only flagged) in
  let outcome = Policy.characterize ~rng day3 plan in
  (* every flagged pair got fresh conditional entries, both directions *)
  Alcotest.(check int) "2 measurements per pair" (2 * List.length flagged)
    (List.length outcome.Policy.measurements);
  List.iter
    (fun (e1, e2) ->
      Alcotest.(check bool) "entry present" true
        (Crosstalk.conditional outcome.Policy.xtalk ~target:e1 ~spectator:e2 <> None))
    flagged

let fig1_example_device () =
  (* The paper's 6-qubit Figure 1 machine: CNOT 0,1 | CNOT 2,3 is the
     high-crosstalk pair, qubit 2 has low coherence.  XtalkSched on a
     program exercising both must beat ParSched. *)
  let device = Presets.example_6q () in
  let xtalk = Device.ground_truth device in
  Alcotest.(check int) "one true pair" 1
    (List.length (Device.true_high_crosstalk_pairs device ~threshold:3.0));
  let c = Circuit.create 6 in
  let c = Circuit.h c 0 in
  let c = Circuit.cnot c ~control:0 ~target:1 in
  let c = Circuit.cnot c ~control:2 ~target:3 in
  let c = Circuit.cnot c ~control:1 ~target:2 in
  let c = Circuit.measure_all c in
  let xs, stats = Core.Xtalk_sched.schedule ~omega:0.5 ~device ~xtalk c in
  Alcotest.(check int) "pair found" 1 stats.Core.Xtalk_sched.pairs;
  let err s = (Core.Evaluate.oracle device s).Core.Evaluate.error in
  Alcotest.(check bool) "beats ParSched" true
    (err xs <= err (Core.Par_sched.schedule device c) +. 1e-9)

let monte_carlo_agrees_with_oracle_ordering () =
  (* The analytic oracle and a Monte-Carlo hidden-shift run must agree
     on which scheduler is better. *)
  let device = Presets.poughkeepsie () in
  let xtalk = Device.ground_truth device in
  let hs =
    Core.Hidden_shift.build device ~region:[ 15; 10; 11; 12 ]
      ~shift:[ true; false; true; false ] ~redundancy:1
  in
  let rng = Rng.create 78 in
  let run sched =
    let counts = Core.Exec.run device sched ~rng ~trials:4096 ~backend:Core.Exec.Stabilizer in
    Core.Hidden_shift.error_rate hs
      ~counts_get:(Core.Exec.counts_get counts)
      ~total:(Core.Exec.counts_total counts)
  in
  let par = Core.Par_sched.schedule device hs.Core.Hidden_shift.circuit in
  let xs, _ = Core.Xtalk_sched.schedule ~omega:0.5 ~device ~xtalk hs.Core.Hidden_shift.circuit in
  let mc_par = run par and mc_xs = run xs in
  let or_par = (Core.Evaluate.oracle device par).Core.Evaluate.error in
  let or_xs = (Core.Evaluate.oracle device xs).Core.Evaluate.error in
  Alcotest.(check bool) "oracle prefers xtalk" true (or_xs < or_par);
  Alcotest.(check bool) "monte carlo agrees" true (mc_xs < mc_par)

let deterministic_end_to_end () =
  (* The same seed must give bit-identical counts. *)
  let device = Presets.poughkeepsie () in
  let bench = Core.Swap_circuits.build device ~src:5 ~dst:12 in
  let circuit = Circuit.measure_all bench.Core.Swap_circuits.circuit in
  let sched = Core.Par_sched.schedule device circuit in
  let run () =
    let rng = Rng.create 79 in
    Core.Exec.counts_bindings (Core.Exec.run device sched ~rng ~trials:256 ~backend:Core.Exec.Stabilizer)
  in
  Alcotest.(check bool) "identical counts" true (run () = run ())

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "characterization matches truth" `Slow characterization_matches_truth;
        Alcotest.test_case "characterized rates ordered" `Slow characterized_rates_ordered;
        Alcotest.test_case "scheduler uses measured data" `Slow
          scheduler_decisions_from_characterized_data;
        Alcotest.test_case "barrier deployment equivalence" `Quick barrier_deployment_equivalence;
        Alcotest.test_case "drift + refresh workflow" `Slow drift_workflow_refresh;
        Alcotest.test_case "figure 1 example device" `Quick fig1_example_device;
        Alcotest.test_case "monte carlo agrees with oracle" `Slow
          monte_carlo_agrees_with_oracle_ordering;
        Alcotest.test_case "deterministic end to end" `Quick deterministic_end_to_end;
      ] );
  ]
