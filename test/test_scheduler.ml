(* Tests for qcx_scheduler: routing, durations, the three schedulers,
   the SMT encoding, barrier insertion and evaluation. *)

module Circuit = Core.Circuit
module Dag = Core.Dag
module Schedule = Core.Schedule
module Device = Core.Device
module Presets = Core.Presets
module Topology = Core.Topology
module Routing = Core.Routing
module Durations = Core.Durations
module Par_sched = Core.Par_sched
module Serial_sched = Core.Serial_sched
module Xtalk_sched = Core.Xtalk_sched
module Encoding = Core.Encoding
module Barriers = Core.Barriers
module Evaluate = Core.Evaluate

let pough = Presets.poughkeepsie ()
let truth = Device.ground_truth pough

let swap_circuit src dst =
  Circuit.measure_all (Core.Swap_circuits.build pough ~src ~dst).Core.Swap_circuits.circuit

let prepared ?(device = pough) ~xtalk c = Encoding.prepare ~device ~xtalk ~threshold:3.0 c
let instances_of ?device ~xtalk c = (prepared ?device ~xtalk c).Encoding.instances

(* ---- Routing ---- *)

let routing_meet_in_middle () =
  let swaps, bell = Routing.meet_in_middle pough ~src:0 ~dst:13 in
  Alcotest.(check int) "four swaps" 4 (List.length swaps);
  Alcotest.(check (pair int int)) "bell edge" (10, 11) bell;
  Alcotest.(check (list (pair int int))) "paper's fig 6 swaps"
    [ (0, 5); (5, 10); (13, 12); (12, 11) ]
    swaps

let routing_adjacent () =
  let swaps, bell = Routing.meet_in_middle pough ~src:0 ~dst:1 in
  Alcotest.(check int) "no swaps" 0 (List.length swaps);
  Alcotest.(check (pair int int)) "direct edge" (0, 1) bell

let routing_route_makes_compliant () =
  (* A CNOT between distant qubits must route onto device edges. *)
  let c = Circuit.cnot (Circuit.create 20) ~control:0 ~target:13 in
  let routed = Circuit.decompose_swaps (Routing.route pough c) in
  let topo = Device.topology pough in
  List.iter
    (fun g ->
      if Core.Gate.is_two_qubit g then
        match g.Core.Gate.qubits with
        | [ a; b ] ->
          Alcotest.(check bool) "cnot on device edge" true (Topology.has_edge topo (a, b))
        | _ -> Alcotest.fail "malformed")
    (Circuit.gates routed)

(* ---- Durations ---- *)

let durations_assign () =
  let c = Circuit.create 20 in
  let c = Circuit.h c 0 in
  let c = Circuit.cnot c ~control:0 ~target:1 in
  let c = Circuit.barrier c [ 0; 1 ] in
  let c = Circuit.measure c 0 in
  let d = Durations.assign pough c in
  let cal = Device.calibration pough in
  Alcotest.(check (float 1e-9)) "1q"
    (Core.Calibration.qubit cal 0).Core.Calibration.single_qubit_duration d.(0);
  Alcotest.(check (float 1e-9)) "cnot"
    (Core.Calibration.gate cal (0, 1)).Core.Calibration.cnot_duration d.(1);
  Alcotest.(check (float 1e-9)) "barrier" 0.0 d.(2);
  Alcotest.(check (float 1e-9)) "readout"
    (Core.Calibration.qubit cal 0).Core.Calibration.readout_duration d.(3)

let durations_reject_swap () =
  let c = Circuit.swap (Circuit.create 20) 0 1 in
  Alcotest.(check bool) "swap rejected" true
    (try
       ignore (Durations.assign pough c);
       false
     with Invalid_argument _ -> true)

(* ---- Baseline schedulers ---- *)

let par_sched_valid_and_parallel () =
  let c = swap_circuit 0 13 in
  let s = Par_sched.schedule pough c in
  (match Schedule.validate s with Ok () -> () | Error e -> Alcotest.fail e);
  (* the two independent swap chains must overlap somewhere *)
  let dag = Dag.of_circuit c in
  let any_parallel =
    List.exists
      (fun g1 ->
        List.exists
          (fun g2 ->
            g1.Core.Gate.id < g2.Core.Gate.id
            && Core.Gate.is_two_qubit g1 && Core.Gate.is_two_qubit g2
            && Dag.can_overlap dag g1.Core.Gate.id g2.Core.Gate.id
            && Schedule.overlaps s g1.Core.Gate.id g2.Core.Gate.id)
          (Circuit.gates c))
      (Circuit.gates c)
  in
  Alcotest.(check bool) "has parallelism" true any_parallel

let serial_sched_no_overlap () =
  let c = swap_circuit 0 13 in
  let s = Serial_sched.schedule pough c in
  (match Schedule.validate s with Ok () -> () | Error e -> Alcotest.fail e);
  List.iter
    (fun g1 ->
      List.iter
        (fun g2 ->
          if
            g1.Core.Gate.id < g2.Core.Gate.id
            && Core.Gate.is_unitary g1 && Core.Gate.is_unitary g2
          then
            Alcotest.(check bool) "no unitary overlap" false
              (Schedule.overlaps s g1.Core.Gate.id g2.Core.Gate.id))
        (Circuit.gates c))
    (Circuit.gates c)

let serial_longer_than_par () =
  let c = swap_circuit 0 13 in
  Alcotest.(check bool) "serial duration larger" true
    (Evaluate.duration (Serial_sched.schedule pough c)
    > Evaluate.duration (Par_sched.schedule pough c))

let schedule_with_orderings_respected () =
  let c = swap_circuit 0 13 in
  (* Serialize gate 4 (a cx of swap 5,10) after gate 12 (a cx of swap
     12,11) — a backward edge in program order. *)
  let s = Par_sched.schedule_with_orderings pough c ~extra:[ (12, 4) ] in
  (match Schedule.validate s with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "ordering respected" true
    (Schedule.start s 4 >= Schedule.finish s 12 -. 1e-9)

let schedule_with_orderings_cycle_detected () =
  let c = swap_circuit 0 13 in
  Alcotest.(check bool) "cycle rejected" true
    (try
       ignore (Par_sched.schedule_with_orderings pough c ~extra:[ (4, 12); (12, 4) ]);
       false
     with Invalid_argument _ -> true)

(* ---- Encoding ---- *)

let encoding_instances () =
  let c = swap_circuit 0 13 in
  let dag = Dag.of_circuit c in
  let instances = instances_of ~xtalk:truth c in
  Alcotest.(check int) "nine instances on fig6 path" 9 (List.length instances);
  List.iter
    (fun (i, j) ->
      Alcotest.(check bool) "DAG-independent" true (Dag.can_overlap dag i j);
      let edge g =
        match (Circuit.gate c g).Core.Gate.qubits with
        | [ a; b ] -> Topology.normalize (a, b)
        | _ -> Alcotest.fail "malformed"
      in
      Alcotest.(check bool) "edges differ" true (edge i <> edge j))
    instances

let encoding_no_instances_without_crosstalk () =
  let c = swap_circuit 15 19 in
  (* path along the bottom row: no flagged pairs *)
  Alcotest.(check (list (pair int int))) "no instances" []
    (instances_of ~xtalk:Core.Crosstalk.empty c)

(* ---- XtalkSched ---- *)

let xtalk_valid_schedule () =
  let c = swap_circuit 0 13 in
  let s, stats = Xtalk_sched.schedule ~omega:0.5 ~device:pough ~xtalk:truth c in
  (match Schedule.validate s with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "optimal" true stats.Xtalk_sched.optimal;
  Alcotest.(check int) "pairs" 9 stats.Xtalk_sched.pairs

let xtalk_serializes_flagged_pairs () =
  let c = swap_circuit 0 13 in
  let s, _ = Xtalk_sched.schedule ~omega:0.5 ~device:pough ~xtalk:truth c in
  let instances = instances_of ~xtalk:truth (Schedule.circuit s) in
  List.iter
    (fun (i, j) ->
      Alcotest.(check bool) "interfering pair serialized" false (Schedule.overlaps s i j))
    instances

let xtalk_beats_baselines_oracle () =
  let c = swap_circuit 5 12 in
  let err s = (Evaluate.oracle pough s).Evaluate.error in
  let xs, _ = Xtalk_sched.schedule ~omega:0.5 ~device:pough ~xtalk:truth c in
  Alcotest.(check bool) "beats par" true (err xs < err (Par_sched.schedule pough c));
  Alcotest.(check bool) "no worse than serial" true
    (err xs <= err (Serial_sched.schedule pough c) +. 1e-9)

let xtalk_omega_one_is_serial () =
  let c = swap_circuit 0 13 in
  let s, _ = Xtalk_sched.schedule ~omega:1.0 ~device:pough ~xtalk:truth c in
  Alcotest.(check (float 1e-6)) "same duration as SerialSched"
    (Evaluate.duration (Serial_sched.schedule pough (Circuit.decompose_swaps c)))
    (Evaluate.duration s)

let xtalk_cluster_decomposition_path () =
  (* Force the decomposition by setting max_exact_pairs below the pair
     count; the result must still serialize all flagged pairs. *)
  let c = swap_circuit 0 13 in
  let s, stats =
    Xtalk_sched.schedule ~omega:0.5 ~max_exact_pairs:2 ~device:pough ~xtalk:truth c
  in
  (match Schedule.validate s with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "decomposed" true (stats.Xtalk_sched.clusters >= 1);
  Alcotest.(check bool) "not claimed optimal" false stats.Xtalk_sched.optimal;
  let instances = instances_of ~xtalk:truth (Schedule.circuit s) in
  List.iter
    (fun (i, j) -> Alcotest.(check bool) "still serialized" false (Schedule.overlaps s i j))
    instances

let sched_fingerprint s =
  let c = Schedule.circuit s in
  List.map (fun g -> (g.Core.Gate.id, Schedule.start s g.Core.Gate.id)) (Circuit.gates c)

let xtalk_clustered_jobs_determinism () =
  (* The clustered rung solves connected components on the domain
     pool; the merge is by cluster index, so the schedule must be
     bit-identical at every [jobs]. *)
  let c = swap_circuit 0 13 in
  let reference =
    Xtalk_sched.schedule ~omega:0.5 ~max_exact_pairs:2 ~jobs:1 ~device:pough ~xtalk:truth c
  in
  let ref_fp = sched_fingerprint (fst reference) in
  List.iter
    (fun jobs ->
      let s, stats =
        Xtalk_sched.schedule ~omega:0.5 ~max_exact_pairs:2 ~jobs ~device:pough
          ~xtalk:truth c
      in
      Alcotest.(check bool)
        (Printf.sprintf "schedule identical at jobs=%d" jobs)
        true
        (sched_fingerprint s = ref_fp);
      Alcotest.(check int)
        (Printf.sprintf "node count identical at jobs=%d" jobs)
        (snd reference).Xtalk_sched.nodes stats.Xtalk_sched.nodes)
    [ 2; 4 ]

let xtalk_tune_omega_jobs_determinism () =
  let c = swap_circuit 5 12 in
  let run jobs =
    let omega, s, _ = Xtalk_sched.tune_omega ~jobs ~device:pough ~xtalk:truth c in
    (omega, sched_fingerprint s)
  in
  let o1, fp1 = run 1 in
  let o4, fp4 = run 4 in
  Alcotest.(check (float 0.0)) "same omega chosen" o1 o4;
  Alcotest.(check bool) "same schedule" true (fp1 = fp4)

let xtalk_empty_xtalk_matches_par_objective () =
  let c = swap_circuit 0 13 in
  let s, stats = Xtalk_sched.schedule ~omega:0.5 ~device:pough ~xtalk:Core.Crosstalk.empty c in
  Alcotest.(check int) "no pairs" 0 stats.Xtalk_sched.pairs;
  (match Schedule.validate s with Ok () -> () | Error e -> Alcotest.fail e);
  (* Without crosstalk data the schedule must be as parallel as
     ParSched's duration. *)
  Alcotest.(check bool) "parallel duration" true
    (Evaluate.duration s <= Evaluate.duration (Par_sched.schedule pough c) +. 1e-6)

(* ---- GreedySched ---- *)

let greedy_valid_and_serializes () =
  let c = swap_circuit 0 13 in
  let s, pairs = Core.Greedy_sched.schedule pough (prepared ~xtalk:truth c) in
  Alcotest.(check int) "nine pairs serialized" 9 pairs;
  (match Schedule.validate s with Ok () -> () | Error e -> Alcotest.fail e);
  let instances = instances_of ~xtalk:truth (Schedule.circuit s) in
  List.iter
    (fun (i, j) -> Alcotest.(check bool) "no overlap" false (Schedule.overlaps s i j))
    instances

let greedy_never_better_than_exact () =
  (* The exact optimizer minimizes the model objective; greedy is a
     feasible point of the same space, so the exact objective's oracle
     error should not exceed greedy's by more than noise-model slack. *)
  List.iter
    (fun (src, dst) ->
      let c = swap_circuit src dst in
      let xs, _ = Xtalk_sched.schedule ~omega:0.5 ~device:pough ~xtalk:truth c in
      let gs, _ = Core.Greedy_sched.schedule pough (prepared ~xtalk:truth c) in
      let err s = (Evaluate.oracle pough s).Evaluate.error in
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d) exact %.3f <= greedy %.3f + slack" src dst (err xs) (err gs))
        true
        (err xs <= err gs +. 0.02))
    [ (0, 13); (5, 12); (0, 12) ]

let greedy_no_crosstalk_is_parsched () =
  let c = swap_circuit 0 13 in
  let s, pairs = Core.Greedy_sched.schedule pough (prepared ~xtalk:Core.Crosstalk.empty c) in
  Alcotest.(check int) "no pairs" 0 pairs;
  Alcotest.(check (float 1e-6)) "same duration as ParSched"
    (Evaluate.duration (Par_sched.schedule pough (Circuit.decompose_swaps c)))
    (Evaluate.duration s)

(* ---- Barriers ---- *)

let barriers_roundtrip () =
  let c = swap_circuit 0 13 in
  let s, _ = Xtalk_sched.schedule ~omega:0.5 ~device:pough ~xtalk:truth c in
  let instances = instances_of ~xtalk:truth (Schedule.circuit s) in
  let serialized = Barriers.serialized_pairs s ~pairs:instances in
  Alcotest.(check int) "all nine serialized" 9 (List.length serialized);
  let barriered = Barriers.insert s ~serialized in
  (* Replaying the barriered circuit through ParSched must keep every
     flagged pair serialized. *)
  let replay = Par_sched.schedule pough barriered in
  (match Schedule.validate replay with Ok () -> () | Error e -> Alcotest.fail e);
  let instances2 = instances_of ~xtalk:truth barriered in
  (* After barrier insertion the pairs are DAG-ordered, so no instance
     may remain that overlaps in the replayed schedule. *)
  List.iter
    (fun (i, j) ->
      Alcotest.(check bool) "replay keeps serialization" false (Schedule.overlaps replay i j))
    instances2

(* ---- Evaluate ---- *)

let evaluate_breakdown_bounds () =
  let c = swap_circuit 0 13 in
  let s = Par_sched.schedule pough c in
  let b = Evaluate.oracle pough s in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " in [0,1]") true (v >= 0.0 && v <= 1.0))
    [
      ("gate", b.Evaluate.gate_success);
      ("deco", b.Evaluate.decoherence_success);
      ("readout", b.Evaluate.readout_success);
      ("success", b.Evaluate.success);
      ("error", b.Evaluate.error);
    ];
  Alcotest.(check (float 1e-9)) "success product"
    (b.Evaluate.gate_success *. b.Evaluate.decoherence_success *. b.Evaluate.readout_success)
    b.Evaluate.success

let evaluate_model_vs_oracle () =
  (* With characterized data equal to ground truth, the model view and
     oracle view agree on serialized schedules (full-overlap weighting
     only differs when gates partially overlap). *)
  let c = swap_circuit 0 13 in
  let s = Serial_sched.schedule pough c in
  let model = Evaluate.model pough ~xtalk:truth s in
  let oracle = Evaluate.oracle pough s in
  Alcotest.(check (float 1e-9)) "serialized: same gate success" oracle.Evaluate.gate_success
    model.Evaluate.gate_success

let evaluate_duration_excludes_readout () =
  let c = Circuit.measure_all (Circuit.h (Circuit.create 20) 0) in
  let s = Par_sched.schedule pough c in
  Alcotest.(check (float 1e-9)) "just the H gate" 50.0 (Evaluate.duration s)

let suite =
  [
    ( "scheduler.routing",
      [
        Alcotest.test_case "meet in middle" `Quick routing_meet_in_middle;
        Alcotest.test_case "adjacent" `Quick routing_adjacent;
        Alcotest.test_case "route compliance" `Quick routing_route_makes_compliant;
      ] );
    ( "scheduler.durations",
      [
        Alcotest.test_case "assign" `Quick durations_assign;
        Alcotest.test_case "reject swap" `Quick durations_reject_swap;
      ] );
    ( "scheduler.baselines",
      [
        Alcotest.test_case "par valid and parallel" `Quick par_sched_valid_and_parallel;
        Alcotest.test_case "serial no overlap" `Quick serial_sched_no_overlap;
        Alcotest.test_case "serial longer" `Quick serial_longer_than_par;
        Alcotest.test_case "orderings respected" `Quick schedule_with_orderings_respected;
        Alcotest.test_case "ordering cycle detected" `Quick schedule_with_orderings_cycle_detected;
      ] );
    ( "scheduler.encoding",
      [
        Alcotest.test_case "instances" `Quick encoding_instances;
        Alcotest.test_case "no instances without crosstalk" `Quick
          encoding_no_instances_without_crosstalk;
      ] );
    ( "scheduler.xtalk",
      [
        Alcotest.test_case "valid schedule" `Quick xtalk_valid_schedule;
        Alcotest.test_case "serializes flagged pairs" `Quick xtalk_serializes_flagged_pairs;
        Alcotest.test_case "beats baselines (oracle)" `Quick xtalk_beats_baselines_oracle;
        Alcotest.test_case "omega 1 = serial" `Quick xtalk_omega_one_is_serial;
        Alcotest.test_case "cluster decomposition" `Quick xtalk_cluster_decomposition_path;
        Alcotest.test_case "clustered jobs determinism" `Quick
          xtalk_clustered_jobs_determinism;
        Alcotest.test_case "tune_omega jobs determinism" `Quick
          xtalk_tune_omega_jobs_determinism;
        Alcotest.test_case "empty crosstalk data" `Quick xtalk_empty_xtalk_matches_par_objective;
      ] );
    ( "scheduler.greedy",
      [
        Alcotest.test_case "valid and serializes" `Quick greedy_valid_and_serializes;
        Alcotest.test_case "never better than exact" `Quick greedy_never_better_than_exact;
        Alcotest.test_case "no crosstalk = parsched" `Quick greedy_no_crosstalk_is_parsched;
      ] );
    ("scheduler.barriers", [ Alcotest.test_case "roundtrip" `Quick barriers_roundtrip ]);
    ( "scheduler.evaluate",
      [
        Alcotest.test_case "breakdown bounds" `Quick evaluate_breakdown_bounds;
        Alcotest.test_case "model vs oracle" `Quick evaluate_model_vs_oracle;
        Alcotest.test_case "duration excludes readout" `Quick evaluate_duration_excludes_readout;
      ] );
  ]

(* ---- fuzzing: every scheduler emits valid schedules on random
   hardware-compliant circuits over the Figure 1 example device ---- *)

let fuzz_device = Presets.example_6q ()
let fuzz_truth = Device.ground_truth fuzz_device
let fuzz_edges = Array.of_list (Topology.edges (Device.topology fuzz_device))

let gen_fuzz_ops =
  QCheck.Gen.(
    list_size (int_range 1 30)
      (oneof
         [
           map (fun q -> `H (q mod 6)) (int_range 0 5);
           map (fun q -> `X (q mod 6)) (int_range 0 5);
           map (fun i -> `Cx (i mod Array.length fuzz_edges)) (int_range 0 50);
         ]))

let fuzz_circuit ops =
  let c =
    List.fold_left
      (fun c op ->
        match op with
        | `H q -> Circuit.h c q
        | `X q -> Circuit.x c q
        | `Cx i ->
          let a, b = fuzz_edges.(i) in
          Circuit.cnot c ~control:a ~target:b)
      (Circuit.create 6) ops
  in
  Circuit.measure_all c

let prop_schedulers_valid =
  QCheck.Test.make ~name:"all schedulers produce valid schedules (fuzz)" ~count:60
    (QCheck.make gen_fuzz_ops) (fun ops ->
      let c = fuzz_circuit ops in
      let ok s = Result.is_ok (Schedule.validate s) in
      ok (Par_sched.schedule fuzz_device c)
      && ok (Serial_sched.schedule fuzz_device c)
      && ok (fst (Core.Greedy_sched.schedule fuzz_device (prepared ~device:fuzz_device ~xtalk:fuzz_truth c)))
      && ok (fst (Xtalk_sched.schedule ~omega:0.5 ~device:fuzz_device ~xtalk:fuzz_truth c)))

let prop_xtalk_never_worse_than_both_baselines =
  QCheck.Test.make ~name:"xtalk oracle error <= min(baselines) + slack (fuzz)" ~count:25
    (QCheck.make gen_fuzz_ops) (fun ops ->
      let c = fuzz_circuit ops in
      let err s = (Evaluate.oracle fuzz_device s).Evaluate.error in
      let xs, _ = Xtalk_sched.schedule ~omega:0.5 ~device:fuzz_device ~xtalk:fuzz_truth c in
      (* omega = 0.5 optimizes a weighted blend, so allow small slack
         against the per-baseline extremes. *)
      err xs
      <= min (err (Par_sched.schedule fuzz_device c)) (err (Serial_sched.schedule fuzz_device c))
         +. 0.05)

let prop_xtalk_serializes_all_instances =
  QCheck.Test.make ~name:"xtalk at omega 0.9 overlaps no flagged instance (fuzz)" ~count:40
    (QCheck.make gen_fuzz_ops) (fun ops ->
      let c = fuzz_circuit ops in
      let s, _ = Xtalk_sched.schedule ~omega:0.9 ~device:fuzz_device ~xtalk:fuzz_truth c in
      let instances = instances_of ~device:fuzz_device ~xtalk:fuzz_truth (Schedule.circuit s) in
      List.for_all (fun (i, j) -> not (Schedule.overlaps s i j)) instances)

let fuzz_suite =
  ( "scheduler.fuzz",
    [
      QCheck_alcotest.to_alcotest prop_schedulers_valid;
      QCheck_alcotest.to_alcotest prop_xtalk_never_worse_than_both_baselines;
      QCheck_alcotest.to_alcotest prop_xtalk_serializes_all_instances;
    ] )

let suite = suite @ [ fuzz_suite ]

(* ---- windows as slices: every window of Window_sched's partition,
   cut from the whole-circuit problem, equals Encoding.prepare run on
   the window's own sub-circuit ---- *)

let slice_edges =
  (* Every Poughkeepsie edge, plus the flagged ones again, so random
     CNOTs often land on interfering pairs. *)
  let flagged =
    List.concat_map (fun (a, b) -> [ a; b ])
      (Core.Crosstalk.high_crosstalk_pairs truth (Device.calibration pough) ~threshold:3.0)
  in
  Array.of_list (Topology.edges (Device.topology pough) @ flagged @ flagged)

let gen_slice_ops =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (frequency
         [
           (2, map (fun q -> `H q) (int_range 0 19));
           (6, map (fun i -> `Cx i) (int_range 0 (Array.length slice_edges - 1)));
           (1, map (fun qs -> `Barrier (List.sort_uniq compare qs))
                 (list_size (int_range 1 4) (int_range 0 19)));
         ]))

let slice_circuit ops =
  Circuit.measure_all
    (List.fold_left
       (fun c op ->
         match op with
         | `H q -> Circuit.h c q
         | `Cx i ->
           let a, b = slice_edges.(i) in
           Circuit.cnot c ~control:a ~target:b
         | `Barrier qs -> Circuit.barrier c qs)
       (Circuit.create 20) ops)

let prop_window_slice_is_prepare =
  QCheck.Test.make ~name:"window slice equals prepare on the window's sub-circuit" ~count:60
    (QCheck.make gen_slice_ops) (fun ops ->
      let whole = prepared ~xtalk:truth (slice_circuit ops) in
      let gates = Array.of_list (Circuit.gates whole.Encoding.circuit) in
      List.for_all
        (fun window_gates ->
          List.for_all
            (fun (lo, hi) ->
              let sub = ref (Circuit.create 20) in
              for id = lo to hi - 1 do
                sub := Circuit.add !sub gates.(id).Core.Gate.kind gates.(id).Core.Gate.qubits
              done;
              let s = Encoding.slice whole ~lo ~hi and d = prepared ~xtalk:truth !sub in
              s.Encoding.instances = d.Encoding.instances
              && s.Encoding.preds = d.Encoding.preds
              && s.Encoding.durations = d.Encoding.durations
              && Circuit.gates s.Encoding.circuit = Circuit.gates d.Encoding.circuit
              && s.Encoding.flagged = d.Encoding.flagged)
            (Core.Window_sched.partition ~window_gates whole))
        [ 1; 7; 24; 160 ])

let suite =
  suite
  @ [ ("scheduler.slice", [ QCheck_alcotest.to_alcotest prop_window_slice_is_prepare ]) ]

let evaluate_lifetimes () =
  let c = swap_circuit 5 12 in
  let s = Par_sched.schedule pough c in
  let lifetimes = Evaluate.lifetimes s in
  Alcotest.(check bool) "one entry per used qubit" true
    (List.length lifetimes = List.length (Circuit.used_qubits c));
  List.iter
    (fun (q, t) ->
      Alcotest.(check bool) (Printf.sprintf "qubit %d lifetime positive" q) true (t > 0.0);
      Alcotest.(check bool) "bounded by makespan" true (t <= Schedule.makespan s +. 1e-9))
    lifetimes

let suite =
  suite @ [ ("scheduler.lifetimes", [ Alcotest.test_case "lifetimes" `Quick evaluate_lifetimes ]) ]

(* ---- pinned compile outputs: a seeded mix through Xtalk_sched (the
   exact rung on the 20-qubit devices, the windowed rung on
   heavy-hex-127 supremacy circuits past 320 gates, some padded with
   XY4) must reproduce one digest of schedules plus stats, wall-clock
   fields aside.  Any change to the DAG, the schedule bookkeeping, the
   solver or the stitch that moves a start time, a node count or an
   objective moves the digest. ---- *)

let pinned_digest = "981d79f025fa53d19feab114adc3e6a4"

let pinned_compiles () =
  let rng = Core.Rng.create 20 in
  let range lo hi = lo + Core.Rng.int rng (hi - lo + 1) in
  let small = [| pough; Presets.johannesburg () |] in
  let hh = Presets.heavy_hex_127 () in
  let measured c = List.fold_left Circuit.measure c (Circuit.used_qubits c) in
  let circuits =
    List.concat_map
      (fun dev ->
        let swaps =
          List.filteri (fun i _ -> i < 2) (Presets.swap_endpoints dev)
          |> List.map (fun (src, dst) ->
                 measured (Core.Swap_circuits.build dev ~src ~dst).Core.Swap_circuits.circuit)
        in
        let qaoas =
          List.filteri (fun i _ -> i < 2) (Presets.qaoa_regions dev)
          |> List.map (fun region -> (Core.Qaoa.build dev ~rng ~region).Core.Qaoa.circuit)
        in
        let sups =
          List.init 2 (fun _ ->
              let nqubits = range 4 8 and target_gates = range 20 60 in
              (Core.Supremacy.build dev ~rng ~nqubits ~target_gates).Core.Supremacy.circuit)
        in
        List.map (fun c -> (dev, c)) (swaps @ qaoas @ sups))
      (Array.to_list small)
    @ List.init 2 (fun _ ->
          let nqubits = range 16 40 and target_gates = range 330 520 in
          (hh, (Core.Supremacy.build hh ~rng ~nqubits ~target_gates).Core.Supremacy.circuit))
  in
  let timing = [ "solve_seconds"; "cpu_seconds" ] in
  let compiled =
    List.mapi
      (fun i (dev, c) ->
        let sched, stats = Xtalk_sched.schedule ~device:dev ~xtalk:(Device.ground_truth dev) c in
        let sched, stats, pulses =
          if i mod 3 <> 2 then (sched, stats, 0)
          else
            let padded, _, dd = Core.Dd.pad ~sequence:Core.Dd.XY4 ~device:dev sched in
            let idle_total, idle_max = Core.Idle.summarize padded in
            (padded, { stats with Xtalk_sched.idle_total; idle_max }, dd.Core.Dd.pulses)
        in
        let json =
          match Core.Wire.stats_to_json stats with
          | Core.Json.Object fields ->
            Core.Json.Object (List.filter (fun (k, _) -> not (List.mem k timing)) fields)
          | j -> j
        in
        ( Xtalk_sched.rung_name stats.Xtalk_sched.rung,
          pulses,
          Core.Json.to_string ~indent:false
            (Core.Json.Object [ ("schedule", Core.Wire.schedule_to_json sched); ("stats", json) ]) ))
      circuits
  in
  let rungs = List.sort_uniq compare (List.map (fun (r, _, _) -> r) compiled) in
  Alcotest.(check (list string)) "exact and windowed rungs served" [ "exact"; "windowed" ] rungs;
  Alcotest.(check bool) "DD inserted pulses" true
    (List.fold_left (fun acc (_, p, _) -> acc + p) 0 compiled > 0);
  Alcotest.(check string) "digest of schedules + stats" pinned_digest
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun (_, _, s) -> s) compiled))))

let suite =
  suite @ [ ("scheduler.pinned", [ Alcotest.test_case "compile outputs" `Quick pinned_compiles ]) ]
