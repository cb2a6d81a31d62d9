module Circuit = Qcx_circuit.Circuit
module Gate = Qcx_circuit.Gate
module Dag = Qcx_circuit.Dag
module Device = Qcx_device.Device
module Calibration = Qcx_device.Calibration
module Crosstalk = Qcx_device.Crosstalk
module Topology = Qcx_device.Topology
module Solver = Qcx_smt.Solver

type pair = { gate1 : int; gate2 : int; o : int; before : int; after : int }

type t = {
  solver : Solver.t;
  tau : int array;
  readout : int;
  pairs : pair list;
}

let edge_of g =
  match g.Gate.qubits with
  | [ a; b ] -> Topology.normalize (a, b)
  | _ -> invalid_arg "Encoding: malformed CNOT"

type problem = {
  circuit : Circuit.t;
  gates : Gate.t array;
  preds : int list array;
  durations : float array;
  flagged : (Topology.edge * Topology.edge) list;
  instances : (int * int) list;
}

let prepare ~device ~xtalk ~threshold circuit =
  let circuit = Circuit.decompose_swaps circuit in
  let dag = Dag.of_circuit circuit in
  let gates = Array.of_list (Circuit.gates circuit) in
  let flagged = Crosstalk.high_crosstalk_pairs xtalk (Device.calibration device) ~threshold in
  let unordered (a, b) = if a <= b then (a, b) else (b, a) in
  (* Hash the flagged set once instead of scanning the list per
     candidate pair, and drop CNOTs on unflagged edges before the
     quadratic enumeration — they can never form a flagged pair.  On a
     1k-gate circuit over a sparsely flagged 127-qubit map this turns
     ~500k list scans into a few thousand hash probes. *)
  let flagged_tbl = Hashtbl.create 16 in
  let on_flagged_edge = Hashtbl.create 16 in
  List.iter
    (fun (e1, e2) ->
      Hashtbl.replace flagged_tbl (unordered (e1, e2)) ();
      Hashtbl.replace on_flagged_edge e1 ();
      Hashtbl.replace on_flagged_edge e2 ())
    flagged;
  let is_flagged e1 e2 = Hashtbl.mem flagged_tbl (unordered (e1, e2)) in
  let cnots =
    List.filter
      (fun g -> g.Gate.kind = Gate.Cnot && Hashtbl.mem on_flagged_edge (edge_of g))
      (Array.to_list gates)
  in
  let rec pairs = function
    | [] -> []
    | g :: rest ->
      List.filter_map
        (fun g' ->
          let e = edge_of g and e' = edge_of g' in
          if
            e <> e'
            && Dag.can_overlap dag g.Gate.id g'.Gate.id
            && is_flagged e e'
          then Some (g.Gate.id, g'.Gate.id)
          else None)
        rest
      @ pairs rest
  in
  {
    circuit;
    gates;
    preds = Array.init (Array.length gates) (Dag.preds dag);
    durations = Durations.assign device circuit;
    flagged;
    instances = pairs cnots;
  }

let slice p ~lo ~hi =
  let circuit =
    Array.fold_left
      (fun acc g -> Circuit.add acc g.Gate.kind g.Gate.qubits)
      (Circuit.create (Circuit.nqubits p.circuit))
      (Array.sub p.gates lo (hi - lo))
  in
  {
    circuit;
    gates = Array.of_list (Circuit.gates circuit);
    preds = Dag.direct_preds circuit;
    durations = Array.sub p.durations lo (hi - lo);
    flagged = p.flagged;
    instances =
      List.filter_map
        (fun (i, j) -> if lo <= i && j < hi then Some (i - lo, j - lo) else None)
        p.instances;
  }

(* Clamp an error rate into a range where -log(1 - eps) is finite and
   the conditional is never below the independent rate (keeps the
   empty-overlap scenario the cheapest, which the solver's lower bound
   relies on). *)
let cost_of_error ~omega eps = omega *. -.log (1.0 -. min eps 0.9)

let conditional_rate xtalk cal ~target ~spectator =
  let independent = (Calibration.gate cal target).Calibration.cnot_error in
  max independent (Crosstalk.conditional_or_independent xtalk cal ~target ~spectator)

let rec powerset = function
  | [] -> [ [] ]
  | x :: rest ->
    let sub = powerset rest in
    sub @ List.map (fun s -> x :: s) sub

let build ~device ~xtalk ~omega ~instances problem =
  if omega < 0.0 || omega > 1.0 then invalid_arg "Encoding.build: omega out of [0,1]";
  let { circuit; gates; preds; durations; _ } = problem in
  let cal = Device.calibration device in
  let solver = Solver.create () in
  let tau =
    Array.init (Circuit.length circuit) (fun id ->
        Solver.new_num solver (Printf.sprintf "tau_%d" id))
  in
  let readout = Solver.new_num solver "R" in
  Solver.add_sink solver readout;
  (* Infinitesimal makespan term: breaks objective ties toward the
     most parallel schedule, so omega = 0 coincides with ParSched
     exactly (Table 1) instead of merely matching its objective
     value. *)
  let origin = Solver.new_num solver "origin" in
  Solver.add_span_cost solver ~weight:1e-9 ~last:readout ~first:origin;
  (* Data dependency constraints (eq. 1). *)
  Array.iter
    (fun g ->
      let id = g.Gate.id in
      List.iter
        (fun p -> Solver.add_diff solver ~dst:tau.(id) ~src:tau.(p) ~weight:durations.(p) ())
        preds.(id))
    gates;
  (* Readout synchronization and R as the global sink: R equals every
     measure start, and R bounds every gate's finish so the ALAP pass
     cannot push anything past the readout layer. *)
  Array.iter
    (fun g ->
      let id = g.Gate.id in
      if Gate.is_measure g then begin
        Solver.add_diff solver ~dst:readout ~src:tau.(id) ~weight:0.0 ();
        Solver.add_diff solver ~dst:tau.(id) ~src:readout ~weight:0.0 ()
      end
      else Solver.add_diff solver ~dst:readout ~src:tau.(id) ~weight:durations.(id) ())
    gates;
  (* Interfering pairs: booleans, exactly-one structure, guarded
     serialization / containment edges. *)
  let pairs =
    List.map
      (fun (i, j) ->
        let nm suffix = Printf.sprintf "%s_%d_%d" suffix i j in
        let o = Solver.new_bool solver (nm "o") in
        let before = Solver.new_bool solver (nm "b") in
        let after = Solver.new_bool solver (nm "a") in
        let lit var value = { Qcx_smt.Solver.var; value } in
        Solver.add_clause solver [ lit o true; lit before true; lit after true ];
        Solver.add_clause solver [ lit o false; lit before false ];
        Solver.add_clause solver [ lit o false; lit after false ];
        Solver.add_clause solver [ lit before false; lit after false ];
        (* before: tau_j >= tau_i + delta_i; after: symmetric. *)
        Solver.add_diff solver ~guard:(lit before true) ~dst:tau.(j) ~src:tau.(i)
          ~weight:durations.(i) ();
        Solver.add_diff solver ~guard:(lit after true) ~dst:tau.(i) ~src:tau.(j)
          ~weight:durations.(j) ();
        (* o: full containment, shorter gate inside the longer one
           (eqs. 11-13 collapse to this for constant durations). *)
        let shorter, longer = if durations.(i) <= durations.(j) then (i, j) else (j, i) in
        Solver.add_diff solver ~guard:(lit o true) ~dst:tau.(shorter) ~src:tau.(longer)
          ~weight:0.0 ();
        Solver.add_diff solver ~guard:(lit o true) ~dst:tau.(longer) ~src:tau.(shorter)
          ~weight:(durations.(shorter) -. durations.(longer))
          ();
        { gate1 = i; gate2 = j; o; before; after })
      instances
  in
  (* Gate error scenario costs (eqs. 3-8): powerset of each CNOT's
     pruned CanOlp set. *)
  let partners = Hashtbl.create 16 in
  List.iter
    (fun p ->
      Hashtbl.replace partners p.gate1 ((p.gate2, p.o) :: Option.value ~default:[] (Hashtbl.find_opt partners p.gate1));
      Hashtbl.replace partners p.gate2 ((p.gate1, p.o) :: Option.value ~default:[] (Hashtbl.find_opt partners p.gate2)))
    pairs;
  Hashtbl.iter
    (fun gate_id plist ->
      let target = edge_of gates.(gate_id) in
      let independent = (Calibration.gate cal target).Calibration.cnot_error in
      let scenarios =
        List.map
          (fun overlap_subset ->
            let lits =
              List.map
                (fun (other, o) ->
                  { Qcx_smt.Solver.var = o; value = List.mem_assoc other overlap_subset })
                plist
            in
            (* With a subset S overlapping: worst conditional error
               over S (eq. 7); independent rate when S is empty. *)
            let eps =
              List.fold_left
                (fun acc (other, _) ->
                  let spectator = edge_of gates.(other) in
                  max acc (conditional_rate xtalk cal ~target ~spectator))
                independent overlap_subset
            in
            (lits, cost_of_error ~omega eps))
          (powerset plist)
      in
      Qcx_smt.Solver.add_cost_group solver scenarios)
    partners;
  (* CNOTs with no interfering partner still pay their independent
     gate cost - a constant, so it is omitted from the objective. *)
  (* Decoherence span costs (eqs. 9-10).  One program-order pass
     instead of a find per qubit — O(nq * G) was measurable on
     400+-qubit devices. *)
  let nq = Circuit.nqubits circuit in
  let first_on = Array.make nq (-1) in
  Array.iter
    (fun g ->
      if (not (Gate.is_barrier g)) && not (Gate.is_measure g) then
        List.iter
          (fun q -> if first_on.(q) < 0 then first_on.(q) <- g.Gate.id)
          g.Gate.qubits)
    gates;
  for q = 0 to nq - 1 do
    if first_on.(q) >= 0 then begin
      let coherence = Calibration.coherence_limit cal q in
      Solver.add_span_cost solver
        ~weight:((1.0 -. omega) /. coherence)
        ~last:readout ~first:tau.(first_on.(q))
    end
  done;
  { solver; tau; readout; pairs }

let hint_of_schedule t sched =
  let module Schedule = Qcx_circuit.Schedule in
  let hint = Array.make (Solver.nbools t.solver) false in
  List.iter
    (fun p ->
      if Schedule.overlaps sched p.gate1 p.gate2 then hint.(p.o) <- true
      else if Schedule.start sched p.gate2 >= Schedule.start sched p.gate1 then
        hint.(p.before) <- true
      else hint.(p.after) <- true)
    t.pairs;
  hint

let warm_hints ?(schedules = []) t =
  let serial = Array.make (Solver.nbools t.solver) false in
  List.iter (fun p -> serial.(p.before) <- true) t.pairs;
  let overlap = Array.make (Solver.nbools t.solver) false in
  List.iter (fun p -> overlap.(p.o) <- true) t.pairs;
  (serial :: overlap :: List.map (hint_of_schedule t) schedules)
