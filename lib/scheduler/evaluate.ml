module Circuit = Qcx_circuit.Circuit
module Gate = Qcx_circuit.Gate
module Schedule = Qcx_circuit.Schedule
module Device = Qcx_device.Device
module Calibration = Qcx_device.Calibration
module Crosstalk = Qcx_device.Crosstalk

type breakdown = {
  gate_success : float;
  decoherence_success : float;
  readout_success : float;
  success : float;
  error : float;
}

let breakdown_of device sched ~cnot_error =
  let circuit = Schedule.circuit sched in
  let cal = Device.calibration device in
  let gate_success =
    List.fold_left
      (fun acc g ->
        if Gate.is_two_qubit g then acc *. (1.0 -. cnot_error g)
        else if Gate.is_single_qubit g then
          acc *. (1.0 -. (Calibration.qubit cal (List.hd g.Gate.qubits)).Calibration.single_qubit_error)
        else acc)
      1.0 (Circuit.gates circuit)
  in
  (* Lifetime ends at readout *start*: the measurement projects the
     state, so decay during the readout pulse does not corrupt it
     (this matches the noise engine, which injects idle errors only up
     to a gate's start time). *)
  let lifetime q =
    let first = ref infinity and last = ref neg_infinity in
    List.iter
      (fun g ->
        if (not (Gate.is_barrier g)) && List.mem q g.Gate.qubits then begin
          first := min !first (Schedule.start sched g.Gate.id);
          let fin =
            if Gate.is_measure g then Schedule.start sched g.Gate.id
            else Schedule.finish sched g.Gate.id
          in
          last := max !last fin
        end)
      (Circuit.gates circuit);
    if !first = infinity then None else Some (!last -. !first)
  in
  let decoherence_success =
    List.fold_left
      (fun acc q ->
        match lifetime q with
        | None -> acc
        | Some t -> acc *. exp (-.t /. Calibration.coherence_limit cal q))
      1.0
      (List.init (Circuit.nqubits circuit) Fun.id)
  in
  let readout_success =
    List.fold_left
      (fun acc g ->
        if Gate.is_measure g then
          acc *. (1.0 -. (Calibration.qubit cal (List.hd g.Gate.qubits)).Calibration.readout_error)
        else acc)
      1.0 (Circuit.gates circuit)
  in
  let success = gate_success *. decoherence_success *. readout_success in
  { gate_success; decoherence_success; readout_success; success; error = 1.0 -. success }

let oracle device sched =
  breakdown_of device sched ~cnot_error:(fun g ->
      Qcx_noise.Exec.effective_cnot_error device sched g.Gate.id)

let model device ~xtalk sched =
  let circuit = Schedule.circuit sched in
  let cal = Device.calibration device in
  breakdown_of device sched ~cnot_error:(fun g ->
      let target = Encoding.edge_of g in
      let independent = (Calibration.gate cal target).Calibration.cnot_error in
      (* The paper's rule: the worst conditional rate among overlapping
         gates (eq. 7). *)
      List.fold_left
        (fun acc other ->
          if
            other.Gate.id <> g.Gate.id
            && Gate.is_two_qubit other
            && Schedule.overlaps sched g.Gate.id other.Gate.id
          then
            match Crosstalk.conditional xtalk ~target ~spectator:(Encoding.edge_of other) with
            | Some c -> max acc c
            | None -> acc
          else acc)
        independent (Circuit.gates circuit))

let objective ~omega device ~xtalk (problem : Encoding.problem) sched =
  (* Recompute the encoding's eq. 17 objective from a finished
     schedule, so schedules produced by different rungs (exact vs
     windowed vs greedy) can be compared on equal terms.  Mirrors
     [Encoding.build] exactly except for the 1e-9 makespan tie-break,
     which is omitted (it exists only to pick among equal optima). *)
  let circuit = Schedule.circuit sched in
  let cal = Device.calibration device in
  let plists = Array.make (Circuit.length circuit) [] in
  List.iter
    (fun (i, j) ->
      plists.(i) <- j :: plists.(i);
      plists.(j) <- i :: plists.(j))
    problem.instances;
  (* Gate error terms: CNOTs with no interfering partner pay a
     schedule-independent cost and are omitted, as in the encoding. *)
  let gate_cost = ref 0.0 in
  List.iter
    (fun g ->
      match plists.(g.Gate.id) with
      | [] -> ()
      | partners ->
        let target = Encoding.edge_of g in
        let independent = (Calibration.gate cal target).Calibration.cnot_error in
        let eps =
          List.fold_left
            (fun acc other ->
              if Schedule.overlaps sched g.Gate.id other then
                let spectator = Encoding.edge_of problem.gates.(other) in
                max acc (Encoding.conditional_rate xtalk cal ~target ~spectator)
              else acc)
            independent partners
        in
        gate_cost := !gate_cost +. Encoding.cost_of_error ~omega eps)
    (Circuit.gates circuit);
  (* Decoherence terms: R - F_q per qubit, with R the synchronized
     readout start (makespan when the circuit has no measures) and F_q
     the qubit's statically-known first gate, as in the encoding. *)
  let r =
    let m =
      List.fold_left
        (fun acc g ->
          if Gate.is_measure g then
            Some (match acc with None -> Schedule.start sched g.Gate.id | Some t -> min t (Schedule.start sched g.Gate.id))
          else acc)
        None (Circuit.gates circuit)
    in
    match m with Some t -> t | None -> Schedule.makespan sched
  in
  let nq = Circuit.nqubits circuit in
  let first_on = Array.make nq neg_infinity in
  List.iter
    (fun g ->
      if (not (Gate.is_barrier g)) && not (Gate.is_measure g) then
        List.iter
          (fun q ->
            if first_on.(q) = neg_infinity then first_on.(q) <- Schedule.start sched g.Gate.id)
          g.Gate.qubits)
    (Circuit.gates circuit);
  let deco = ref 0.0 in
  for q = 0 to nq - 1 do
    if first_on.(q) > neg_infinity then
      deco := !deco +. ((1.0 -. omega) /. Calibration.coherence_limit cal q *. (r -. first_on.(q)))
  done;
  !gate_cost +. !deco

let duration sched =
  let circuit = Schedule.circuit sched in
  List.fold_left
    (fun acc g ->
      if Gate.is_measure g || Gate.is_barrier g then acc
      else max acc (Schedule.finish sched g.Gate.id))
    0.0 (Circuit.gates circuit)
  -. (let first =
        List.fold_left
          (fun acc g ->
            if Gate.is_measure g || Gate.is_barrier g then acc
            else min acc (Schedule.start sched g.Gate.id))
          infinity (Circuit.gates circuit)
      in
      if first = infinity then 0.0 else first)

let lifetimes sched =
  let circuit = Schedule.circuit sched in
  List.filter_map
    (fun q ->
      match Schedule.qubit_lifetime sched q with
      | None -> None
      | Some (first, last) -> Some (q, last -. first))
    (List.init (Circuit.nqubits circuit) Fun.id)
