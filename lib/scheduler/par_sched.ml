module Circuit = Qcx_circuit.Circuit
module Gate = Qcx_circuit.Gate
module Dag = Qcx_circuit.Dag
module Schedule = Qcx_circuit.Schedule

let schedule_with_orderings device circuit ~extra =
  let n = Circuit.length circuit in
  let durations = Durations.assign device circuit in
  let gates = Array.of_list (Circuit.gates circuit) in
  let preds = Dag.direct_preds circuit in
  let succs = Array.make n [] in
  Array.iteri (fun id ps -> List.iter (fun p -> succs.(p) <- id :: succs.(p)) ps) preds;
  let extra = List.filter (fun (i, j) -> i >= 0 && j >= 0 && i < n && j < n && i <> j) extra in
  let extra_preds = Array.make n [] in
  let extra_succs = Array.make n [] in
  List.iter
    (fun (i, j) ->
      extra_preds.(j) <- i :: extra_preds.(j);
      extra_succs.(i) <- j :: extra_succs.(i))
    extra;
  let starts = Array.make n 0.0 in
  (* ASAP relaxation.  Extra edges may point backward in program
     order (XtalkSched can reverse logically-independent gates), so
     sweep to a fixpoint; a cycle among the orderings would be a bug
     in the caller and is reported. *)
  let changed = ref true in
  let sweeps = ref 0 in
  while !changed do
    changed := false;
    incr sweeps;
    if !sweeps > n + 1 then invalid_arg "Par_sched: ordering constraints form a cycle";
    List.iter
      (fun g ->
        let id = g.Gate.id in
        let ready =
          List.fold_left
            (fun acc p -> max acc (starts.(p) +. durations.(p)))
            0.0
            (preds.(id) @ extra_preds.(id))
        in
        if ready > starts.(id) +. 1e-9 then begin
          starts.(id) <- ready;
          changed := true
        end)
      (Circuit.gates circuit)
  done;
  (* Synchronized readout: every measurement fires at the latest ready
     time across all measurements. *)
  let readout =
    List.fold_left
      (fun acc g -> if Gate.is_measure g then max acc starts.(g.Gate.id) else acc)
      neg_infinity (Circuit.gates circuit)
  in
  if readout > neg_infinity then
    List.iter
      (fun g -> if Gate.is_measure g then starts.(g.Gate.id) <- readout)
      (Circuit.gates circuit);
  (* Right-align against the readout layer, honoring extra edges. *)
  let deadline = if readout > neg_infinity then readout else
    Array.to_list starts |> List.mapi (fun id s -> s +. durations.(id)) |> List.fold_left max 0.0
  in
  (* Monotone-decreasing relaxation from the deadline: initialize
     every non-measure gate at the latest conceivable slot and pull
     earlier until all (DAG + extra) successor constraints hold. *)
  let alap =
    Array.init n (fun id ->
        let g = gates.(id) in
        if Gate.is_measure g then starts.(id) else deadline -. durations.(id))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for id = n - 1 downto 0 do
      let g = gates.(id) in
      if not (Gate.is_measure g) then begin
        let latest_finish =
          List.fold_left
            (fun acc s -> min acc alap.(s))
            deadline
            (succs.(id) @ extra_succs.(id))
        in
        let v = latest_finish -. durations.(id) in
        if v < alap.(id) -. 1e-9 then begin
          alap.(id) <- v;
          changed := true
        end
      end
    done
  done;
  Schedule.shift_to_zero (Schedule.make circuit ~starts:alap ~durations)

let schedule device circuit = schedule_with_orderings device circuit ~extra:[]
