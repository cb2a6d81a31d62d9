type t = { circuit : Circuit.t; starts : float array; durations : float array }

let make circuit ~starts ~durations =
  let n = Circuit.length circuit in
  if Array.length starts <> n || Array.length durations <> n then
    invalid_arg "Schedule.make: array length must equal circuit length";
  List.iter
    (fun g ->
      if Gate.is_barrier g && durations.(g.Gate.id) <> 0.0 then
        invalid_arg "Schedule.make: barriers must have zero duration")
    (Circuit.gates circuit);
  { circuit; starts; durations }

let circuit t = t.circuit

let check_id t id =
  if id < 0 || id >= Circuit.length t.circuit then invalid_arg "Schedule: bad gate id"

let start t id =
  check_id t id;
  t.starts.(id)

let duration t id =
  check_id t id;
  t.durations.(id)

let finish t id = start t id +. duration t id

let makespan t =
  let m = ref 0.0 in
  Array.iteri (fun id s -> m := max !m (s +. t.durations.(id))) t.starts;
  !m

let overlaps t a b =
  check_id t a;
  check_id t b;
  t.starts.(a) +. t.durations.(a) > t.starts.(b)
  && t.starts.(b) +. t.durations.(b) > t.starts.(a)

let gates_by_start t =
  List.sort
    (fun g1 g2 ->
      let c = compare t.starts.(g1.Gate.id) t.starts.(g2.Gate.id) in
      if c <> 0 then c else compare g1.Gate.id g2.Gate.id)
    (Circuit.gates t.circuit)

let qubit_lifetime t q =
  let first = ref infinity and last = ref neg_infinity in
  List.iter
    (fun g ->
      if (not (Gate.is_barrier g)) && List.mem q g.Gate.qubits then begin
        first := min !first t.starts.(g.Gate.id);
        last := max !last (t.starts.(g.Gate.id) +. t.durations.(g.Gate.id))
      end)
    (Circuit.gates t.circuit);
  if !first = infinity then None else Some (!first, !last)

let validate t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* (a) dependencies *)
  Array.iteri
    (fun id ps ->
      List.iter
        (fun p ->
          if t.starts.(id) +. 1e-9 < t.starts.(p) +. t.durations.(p) then
            note "gate %d starts before its dependency %d finishes" id p)
        ps)
    (Dag.direct_preds t.circuit);
  (* (b) qubit exclusivity: one pass buckets the non-barrier gates per
     qubit in program order, then each bucket is sorted stably by start *)
  let on_q = Array.make (Circuit.nqubits t.circuit) [] in
  List.iter
    (fun g ->
      if not (Gate.is_barrier g) then
        List.iter (fun q -> on_q.(q) <- g.Gate.id :: on_q.(q)) g.Gate.qubits)
    (Circuit.gates t.circuit);
  let rec check q = function
    | a :: (b :: _ as rest) ->
      if overlaps t a b then note "gates %d and %d overlap on qubit %d" a b q;
      check q rest
    | [ _ ] | [] -> ()
  in
  let by_start a b = Float.compare t.starts.(a) t.starts.(b) in
  Array.iteri (fun q ids -> check q (List.stable_sort by_start (List.rev ids))) on_q;
  (* (c) simultaneous readout *)
  let measure_starts =
    List.filter_map
      (fun g -> if Gate.is_measure g then Some t.starts.(g.Gate.id) else None)
      (Circuit.gates t.circuit)
  in
  (match measure_starts with
  | [] -> ()
  | s0 :: rest ->
    if List.exists (fun s -> Float.abs (s -. s0) > 1e-9) rest then
      note "measurements are not simultaneous");
  match !problems with [] -> Ok () | p -> Error (String.concat "; " (List.rev p))

let shift_to_zero t =
  let earliest = Array.fold_left min infinity t.starts in
  let earliest = if earliest = infinity then 0.0 else earliest in
  { t with starts = Array.map (fun s -> s -. earliest) t.starts }

let right_align t =
  let n = Circuit.length t.circuit in
  let measure_start =
    List.fold_left
      (fun acc g -> if Gate.is_measure g then min acc t.starts.(g.Gate.id) else acc)
      infinity (Circuit.gates t.circuit)
  in
  let deadline = if measure_start = infinity then makespan t else measure_start in
  let gates = Array.of_list (Circuit.gates t.circuit) in
  let preds = Dag.direct_preds t.circuit in
  let new_starts = Array.copy t.starts in
  (* Reverse program order: once a gate's start is final, it bounds the
     latest finish of its direct predecessors, so each gate meets its
     successors in descending id order, as in a fold over [Dag.succs]. *)
  let latest_finish = Array.make n deadline in
  for id = n - 1 downto 0 do
    if not (Gate.is_measure gates.(id)) then
      new_starts.(id) <- latest_finish.(id) -. t.durations.(id);
    List.iter (fun p -> latest_finish.(p) <- min latest_finish.(p) new_starts.(id)) preds.(id)
  done;
  { t with starts = new_starts }

let pp_timeline fmt t =
  let scale = 90.0 in
  let span = makespan t in
  let unit_ns = if span <= 0.0 then 1.0 else span /. scale in
  let nq = Circuit.nqubits t.circuit in
  Format.fprintf fmt "makespan: %.0f ns@." span;
  for q = 0 to nq - 1 do
    let on_q =
      List.filter
        (fun g -> Gate.is_unitary g && List.mem q g.Gate.qubits)
        (Circuit.gates t.circuit)
    in
    if on_q <> [] then begin
      let line = Bytes.make (int_of_float scale + 1) '.' in
      List.iter
        (fun g ->
          let s = int_of_float (t.starts.(g.Gate.id) /. unit_ns) in
          let e = int_of_float ((t.starts.(g.Gate.id) +. t.durations.(g.Gate.id)) /. unit_ns) in
          let label = Gate.kind_name g.Gate.kind in
          for k = s to min e (Bytes.length line - 1) do
            let ch =
              let off = k - s in
              if off < String.length label then label.[off] else '='
            in
            Bytes.set line k ch
          done)
        on_q;
      Format.fprintf fmt "q%-2d |%s|@." q (Bytes.to_string line)
    end
  done
