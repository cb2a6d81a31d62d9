(* Tests for the scaling layer: generated heavy-hex device models, the
   windowed hierarchical scheduler (validity on random grids, jobs
   determinism, quality against the exact solver on small slices),
   the solver's absolute release bounds, and the serve-layer window
   knob. *)

module Circuit = Core.Circuit
module Schedule = Core.Schedule
module Device = Core.Device
module Presets = Core.Presets
module Topology = Core.Topology
module Crosstalk = Core.Crosstalk
module Xtalk_sched = Core.Xtalk_sched
module Solver = Core.Solver
module Evaluate = Core.Evaluate
module Wire = Core.Wire
module Service = Core.Service
module Canon = Core.Canon
module Json = Core.Json

(* ---- generated heavy-hex presets ---- *)

let reachable topo =
  let n = Topology.nqubits topo in
  let seen = Array.make n false in
  let queue = Queue.create () in
  Queue.add 0 queue;
  seen.(0) <- true;
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    incr count;
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
      (Topology.neighbors topo q)
  done;
  !count

let heavy_hex_lattice () =
  let d127 = Presets.heavy_hex_127 () in
  let t127 = Device.topology d127 in
  Alcotest.(check int) "127 qubits" 127 (Topology.nqubits t127);
  Alcotest.(check int) "144 couplers" 144 (List.length (Topology.edges t127));
  Alcotest.(check int) "connected" 127 (reachable t127);
  for q = 0 to 126 do
    if Topology.degree t127 q > 3 then
      Alcotest.failf "qubit %d has degree %d > 3" q (Topology.degree t127 q)
  done;
  let d433 = Presets.heavy_hex_433 () in
  let t433 = Device.topology d433 in
  Alcotest.(check int) "433 qubits" 433 (Topology.nqubits t433);
  Alcotest.(check int) "504 couplers" 504 (List.length (Topology.edges t433));
  Alcotest.(check int) "433 connected" 433 (reachable t433)

let heavy_hex_ground_truth () =
  let d = Presets.heavy_hex_127 () in
  let topo = Device.topology d in
  let truth = Device.ground_truth d in
  let pairs = Crosstalk.interacting_pairs truth in
  Alcotest.(check bool) "has crosstalk pairs" true (List.length pairs > 0);
  List.iter
    (fun (e1, e2) ->
      Alcotest.(check int) "flagged pair at gate distance 1" 1
        (Topology.gate_distance topo e1 e2))
    pairs;
  (* The generator is seeded: rebuilding the preset reproduces the
     exact same hidden physics. *)
  let again = Device.ground_truth (Presets.heavy_hex_127 ()) in
  Alcotest.(check bool) "seeded ground truth is reproducible" true
    (Crosstalk.entries truth = Crosstalk.entries again)

let by_name_generated () =
  let check_size name expected =
    match Presets.by_name name with
    | Some d -> Alcotest.(check int) name expected (Device.nqubits d)
    | None -> Alcotest.failf "by_name %s: not resolved" name
  in
  check_size "heavy-hex-127" 127;
  check_size "heavy-hex-433" 433;
  check_size "grid-5x5" 25;
  check_size "poughkeepsie" 20;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " rejected") true (Presets.by_name name = None))
    [ "grid-1x9"; "grid-x"; "heavy-hex-128"; "nonsense" ]

(* ---- one-hop pair enumeration: fast local scan vs naive O(E^2) ---- *)

let naive_one_hop topo =
  let edges = Topology.edges topo in
  List.concat_map
    (fun e ->
      List.filter_map
        (fun e' ->
          if compare e' e > 0 && Topology.gate_distance topo e e' = 1 then Some (e, e')
          else None)
        edges)
    edges

let one_hop_matches_naive () =
  List.iter
    (fun (name, device) ->
      let topo = Device.topology device in
      let fast = Topology.one_hop_gate_pairs topo in
      let naive = naive_one_hop topo in
      Alcotest.(check int) (name ^ " count") (List.length naive) (List.length fast);
      Alcotest.(check bool) (name ^ " same pairs in same order") true (fast = naive))
    [
      ("poughkeepsie", Presets.poughkeepsie ());
      ("grid-4x4", Presets.grid ~rows:4 ~cols:4 ());
      ("heavy-hex-127", Presets.heavy_hex_127 ());
    ]

(* ---- Solver.add_release ---- *)

let solver_release_bounds () =
  let s = Solver.create () in
  let x = Solver.new_num s "x" in
  let y = Solver.new_num s "y" in
  Solver.add_sink s y;
  (* y >= x + 10, x >= 42 (absolute). *)
  Solver.add_diff s ~dst:y ~src:x ~weight:10.0 ();
  Solver.add_release s ~var:x ~time:42.0;
  (match Solver.solve s with
  | None -> Alcotest.fail "release problem unsat"
  | Some sol ->
    Alcotest.(check (float 1e-9)) "x released at 42" 42.0 sol.Solver.nums.(x);
    Alcotest.(check (float 1e-9)) "y chained to 52" 52.0 sol.Solver.nums.(y));
  (* time = 0 is the implicit origin: a no-op. *)
  let s0 = Solver.create () in
  let z = Solver.new_num s0 "z" in
  Solver.add_sink s0 z;
  Solver.add_release s0 ~var:z ~time:0.0;
  (match Solver.solve s0 with
  | None -> Alcotest.fail "zero-release problem unsat"
  | Some sol -> Alcotest.(check (float 1e-9)) "z stays at origin" 0.0 sol.Solver.nums.(z));
  Alcotest.(check bool) "negative release rejected" true
    (match Solver.add_release s0 ~var:z ~time:(-1.0) with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ---- windowed schedules on random grid devices (property) ---- *)

let gen_grid_case =
  QCheck.Gen.(
    let* rows = int_range 2 3 in
    let* cols = int_range 2 3 in
    let* ops = list_size (int_range 5 60) (pair (int_range 0 2) (int_range 0 1000)) in
    return (rows, cols, ops))

let grid_circuit device (rows, cols, ops) =
  let topo = Device.topology device in
  let edges = Array.of_list (Topology.edges topo) in
  let n = rows * cols in
  let c =
    List.fold_left
      (fun c (kind, i) ->
        match kind with
        | 0 -> Circuit.h c (i mod n)
        | 1 -> Circuit.t_gate c (i mod n)
        | _ ->
          let a, b = edges.(i mod Array.length edges) in
          Circuit.cnot c ~control:a ~target:b)
      (Circuit.create n) ops
  in
  Circuit.measure_all c

let prop_windowed_valid =
  QCheck.Test.make ~name:"windowed schedules are valid on random grids" ~count:40
    (QCheck.make gen_grid_case) (fun ((rows, cols, _) as case) ->
      let device = Presets.grid ~rows ~cols () in
      let xtalk = Device.ground_truth device in
      let c = grid_circuit device case in
      let sched, stats =
        Xtalk_sched.schedule ~omega:0.5 ~ladder_start:Xtalk_sched.Windowed ~window_gates:8
          ~device ~xtalk c
      in
      Result.is_ok (Schedule.validate sched)
      && stats.Xtalk_sched.rung <> Xtalk_sched.Parallel)

(* ---- windowed vs exact on <= 20-qubit control slices ---- *)

let quality_factor = 2.5

let windowed_quality_gate () =
  let device = Presets.poughkeepsie () in
  let xtalk = Device.ground_truth device in
  let controls =
    let region = List.hd (Presets.qaoa_regions device) in
    let qaoa =
      Core.Qaoa.build device ~rng:(Core.Rng.create (Hashtbl.hash ("scale-controls", region))) ~region
    in
    let supremacy =
      Core.Supremacy.build device ~rng:(Core.Rng.create 0x5CA1E) ~nqubits:14 ~target_gates:120
    in
    [ ("qaoa", qaoa.Core.Qaoa.circuit); ("supremacy14", supremacy.Core.Supremacy.circuit) ]
  in
  List.iter
    (fun (name, c) ->
      let exact_sched, exact_stats =
        Xtalk_sched.schedule ~omega:0.5 ~max_exact_pairs:1000 ~device ~xtalk c
      in
      let win_sched, win_stats =
        Xtalk_sched.schedule ~omega:0.5 ~ladder_start:Xtalk_sched.Windowed ~window_gates:24
          ~device ~xtalk c
      in
      Alcotest.(check string) (name ^ " exact rung") "exact"
        (Xtalk_sched.rung_name exact_stats.Xtalk_sched.rung);
      Alcotest.(check string) (name ^ " windowed rung") "windowed"
        (Xtalk_sched.rung_name win_stats.Xtalk_sched.rung);
      let problem = Core.Encoding.prepare ~device ~xtalk ~threshold:3.0 c in
      let oe = Evaluate.objective ~omega:0.5 device ~xtalk problem exact_sched in
      let ow = Evaluate.objective ~omega:0.5 device ~xtalk problem win_sched in
      if ow > (oe *. quality_factor) +. 1e-6 then
        Alcotest.failf "%s: windowed objective %.6f exceeds %.1fx exact %.6f" name ow
          quality_factor oe)
    controls

(* The recomputed eq.17 objective agrees with the solver's report on
   an exact solve (modulo the makespan tie-break term). *)
let objective_matches_solver () =
  let device = Presets.poughkeepsie () in
  let xtalk = Device.ground_truth device in
  let c =
    Circuit.measure_all
      (Core.Swap_circuits.build device ~src:0 ~dst:13).Core.Swap_circuits.circuit
  in
  let sched, stats = Xtalk_sched.schedule ~omega:0.5 ~device ~xtalk c in
  let problem = Core.Encoding.prepare ~device ~xtalk ~threshold:3.0 c in
  let recomputed = Evaluate.objective ~omega:0.5 device ~xtalk problem sched in
  (* The solver adds an infinitesimal span tie-break (1e-9 per ns,
     first start to readout) that the recomputation deliberately
     omits; it is bounded by 1e-9 * makespan. *)
  let tie_bound = (1e-9 *. Schedule.makespan sched) +. 1e-9 in
  if Float.abs (recomputed -. stats.Xtalk_sched.objective) > tie_bound then
    Alcotest.failf "recomputed %.9f vs solver %.9f" recomputed stats.Xtalk_sched.objective

(* ---- jobs determinism of the windowed rung at scale ---- *)

let windowed_jobs_determinism () =
  let device = Presets.heavy_hex_127 () in
  let xtalk = Device.ground_truth device in
  let bench =
    Core.Supremacy.build device ~rng:(Core.Rng.create 0x5CA1E) ~nqubits:127 ~target_gates:400
  in
  let fingerprint sched =
    List.map
      (fun g -> (g.Core.Gate.id, Schedule.start sched g.Core.Gate.id))
      (Circuit.gates (Schedule.circuit sched))
  in
  let compile jobs =
    let sched, stats =
      Xtalk_sched.schedule ~omega:0.5 ~jobs ~device ~xtalk bench.Core.Supremacy.circuit
    in
    (fingerprint sched, stats)
  in
  let fp1, stats = compile 1 in
  Alcotest.(check string) "auto-escalates to windowed" "windowed"
    (Xtalk_sched.rung_name stats.Xtalk_sched.rung);
  Alcotest.(check bool) "multiple windows" true (stats.Xtalk_sched.windows >= 2);
  List.iter
    (fun j ->
      let fp, stats_j = compile j in
      Alcotest.(check bool) (Printf.sprintf "jobs %d schedule identical" j) true (fp = fp1);
      Alcotest.(check int)
        (Printf.sprintf "jobs %d nodes identical" j)
        stats.Xtalk_sched.nodes stats_j.Xtalk_sched.nodes)
    [ 2; 4 ]

(* ---- serve layer: the window knob ---- *)

let wire_window_roundtrip () =
  let c = Circuit.measure_all (Circuit.cnot (Circuit.h (Circuit.create 4) 0) ~control:0 ~target:1) in
  let params = { Wire.default_params with Wire.omega = 0.3; window = Some 32 } in
  let req = Wire.Compile { id = "r1"; device = "poughkeepsie"; circuit = c; params } in
  (match Wire.request_of_json (Wire.request_to_json req) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok (Wire.Compile { params = p; _ }) ->
    Alcotest.(check bool) "window survives the wire" true (p.Wire.window = Some 32);
    Alcotest.(check (float 1e-12)) "omega survives" 0.3 p.Wire.omega
  | Ok _ -> Alcotest.fail "wrong request kind");
  (* Default params leave the window unset. *)
  Alcotest.(check bool) "default window is auto" true (Wire.default_params.Wire.window = None);
  (* Invalid window values are rejected with a parse error. *)
  let bad =
    match Wire.request_to_json req with
    | Json.Object fields ->
      Json.Object
        (List.map (function "window", _ -> ("window", Json.Number 0.0) | f -> f) fields)
    | _ -> Alcotest.fail "compile request not an object"
  in
  Alcotest.(check bool) "window 0 rejected" true (Result.is_error (Wire.request_of_json bad))

let stats_windows_roundtrip () =
  let stats =
    {
      Xtalk_sched.pairs = 3;
      clusters = 2;
      windows = 5;
      nodes = 77;
      optimal = false;
      objective = 1.25;
      solve_seconds = 0.5;
      cpu_seconds = 0.75;
      idle_total = 12.5;
      idle_max = 7.5;
      rung = Xtalk_sched.Windowed;
    }
  in
  (match Wire.stats_of_json (Wire.stats_to_json stats) with
  | Error e -> Alcotest.failf "stats round-trip failed: %s" e
  | Ok s -> Alcotest.(check int) "windows survive" 5 s.Xtalk_sched.windows);
  (* Pre-windowed cache files have no "windows" field: default 0. *)
  let legacy =
    match Wire.stats_to_json stats with
    | Json.Object fields -> Json.Object (List.filter (fun (k, _) -> k <> "windows") fields)
    | _ -> Alcotest.fail "stats not an object"
  in
  match Wire.stats_of_json legacy with
  | Error e -> Alcotest.failf "legacy stats rejected: %s" e
  | Ok s -> Alcotest.(check int) "missing windows defaults to 0" 0 s.Xtalk_sched.windows

let cache_key_covers_window () =
  let c =
    Canon.normalize
      (Circuit.measure_all (Circuit.cnot (Circuit.h (Circuit.create 4) 0) ~control:0 ~target:1))
  in
  let key window =
    Service.cache_key ~device_id:"poughkeepsie" ~epoch:"e0"
      ~params:{ Wire.default_params with Wire.window } c
  in
  Alcotest.(check bool) "window changes the key" true (key None <> key (Some 32));
  Alcotest.(check bool) "distinct windows get distinct keys" true
    (key (Some 32) <> key (Some 64));
  Alcotest.(check string) "same window, same key" (key (Some 32)) (key (Some 32))

let suite =
  [
    ( "scale.device",
      [
        Alcotest.test_case "heavy-hex lattice invariants" `Quick heavy_hex_lattice;
        Alcotest.test_case "heavy-hex seeded ground truth" `Quick heavy_hex_ground_truth;
        Alcotest.test_case "by_name resolves generated models" `Quick by_name_generated;
        Alcotest.test_case "one-hop pairs match naive enumeration" `Quick one_hop_matches_naive;
      ] );
    ( "scale.window",
      [
        Alcotest.test_case "solver release bounds" `Quick solver_release_bounds;
        QCheck_alcotest.to_alcotest prop_windowed_valid;
        Alcotest.test_case "windowed within factor of exact" `Quick windowed_quality_gate;
        Alcotest.test_case "objective recomputation matches solver" `Quick
          objective_matches_solver;
        Alcotest.test_case "windowed rung is jobs-deterministic" `Slow
          windowed_jobs_determinism;
      ] );
    ( "scale.serve",
      [
        Alcotest.test_case "window knob wire round-trip" `Quick wire_window_roundtrip;
        Alcotest.test_case "stats windows round-trip" `Quick stats_windows_roundtrip;
        Alcotest.test_case "cache key covers window" `Quick cache_key_covers_window;
      ] );
  ]
