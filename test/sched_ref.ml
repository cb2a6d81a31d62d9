(* The seed dependency DAG (byte-per-8-gates ancestor bitsets), the
   seed schedule validator and the seed right alignment, kept verbatim
   as the reference that the word-packed [Core.Dag] and the DAG-free
   [Core.Schedule] are tested against: the same direct predecessors and
   successors, the same ancestor relation, the same [Ok] or [Error]
   text and the same aligned start times. *)

module Circuit = Core.Circuit
module Gate = Core.Gate

module Dag = struct
  type t = {
    circuit : Circuit.t;
    gates : Gate.t array;  (** indexed by gate id *)
    preds : int list array;
    succs : int list array;
    ancestors : Bytes.t array;  (** [ancestors.(g)] is a bitset over gate ids *)
  }

  let bit_get bs i = Char.code (Bytes.get bs (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let bit_set bs i =
    Bytes.set bs (i lsr 3) (Char.chr (Char.code (Bytes.get bs (i lsr 3)) lor (1 lsl (i land 7))))

  let bit_or ~into src =
    for k = 0 to Bytes.length into - 1 do
      Bytes.set into k (Char.chr (Char.code (Bytes.get into k) lor (Char.code (Bytes.get src k))))
    done

  let of_circuit circuit =
    let gates = Array.of_list (Circuit.gates circuit) in
    let n = Array.length gates in
    let nq = Circuit.nqubits circuit in
    let preds = Array.make n [] in
    let succs = Array.make n [] in
    let last_on_qubit = Array.make nq (-1) in
    Array.iter
      (fun g ->
        let id = g.Gate.id in
        let direct =
          List.filter_map
            (fun q -> if last_on_qubit.(q) >= 0 then Some last_on_qubit.(q) else None)
            g.Gate.qubits
        in
        let direct = List.sort_uniq compare direct in
        preds.(id) <- direct;
        List.iter (fun p -> succs.(p) <- id :: succs.(p)) direct;
        List.iter (fun q -> last_on_qubit.(q) <- id) g.Gate.qubits)
      gates;
    let words = (n + 7) / 8 in
    let ancestors = Array.init n (fun _ -> Bytes.make (max words 1) '\000') in
    (* Program order is topological: fold ancestor bitsets forward. *)
    Array.iter
      (fun g ->
        let id = g.Gate.id in
        List.iter
          (fun p ->
            bit_or ~into:ancestors.(id) ancestors.(p);
            bit_set ancestors.(id) p)
          preds.(id))
      gates;
    { circuit; gates; preds; succs; ancestors }

  let preds t id = t.preds.(id)
  let succs t id = t.succs.(id)

  let is_ancestor t a b =
    if a < 0 || b < 0 || a >= Array.length t.gates || b >= Array.length t.gates then
      invalid_arg "Dag.is_ancestor: bad id";
    bit_get t.ancestors.(b) a
end

(* The seed [Schedule.t] carried its DAG; the reference rebuilds it
   from a schedule's circuit and timings. *)
type t = { circuit : Circuit.t; dag : Dag.t; starts : float array; durations : float array }

let of_schedule s =
  let circuit = Core.Schedule.circuit s in
  let n = Circuit.length circuit in
  {
    circuit;
    dag = Dag.of_circuit circuit;
    starts = Array.init n (Core.Schedule.start s);
    durations = Array.init n (Core.Schedule.duration s);
  }

let overlaps t a b =
  t.starts.(a) +. t.durations.(a) > t.starts.(b)
  && t.starts.(b) +. t.durations.(b) > t.starts.(a)

let validate t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* (a) dependencies *)
  List.iter
    (fun g ->
      let id = g.Gate.id in
      List.iter
        (fun p ->
          if t.starts.(id) +. 1e-9 < t.starts.(p) +. t.durations.(p) then
            note "gate %d starts before its dependency %d finishes" id p)
        (Dag.preds t.dag id))
    (Circuit.gates t.circuit);
  (* (b) qubit exclusivity *)
  let nq = Circuit.nqubits t.circuit in
  for q = 0 to nq - 1 do
    let on_q =
      List.filter
        (fun g -> (not (Gate.is_barrier g)) && List.mem q g.Gate.qubits)
        (Circuit.gates t.circuit)
    in
    let rec check = function
      | a :: (b :: _ as rest) ->
        if overlaps t a.Gate.id b.Gate.id then
          note "gates %d and %d overlap on qubit %d" a.Gate.id b.Gate.id q;
        check rest
      | [ _ ] | [] -> ()
    in
    check
      (List.sort (fun a b -> compare t.starts.(a.Gate.id) t.starts.(b.Gate.id)) on_q)
  done;
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

let makespan t =
  let m = ref 0.0 in
  Array.iteri (fun id s -> m := max !m (s +. t.durations.(id))) t.starts;
  !m

(* The seed [Schedule.right_align], returning the new start times. *)
let right_align t =
  let n = Circuit.length t.circuit in
  let measure_start =
    List.fold_left
      (fun acc g -> if Gate.is_measure g then min acc t.starts.(g.Gate.id) else acc)
      infinity (Circuit.gates t.circuit)
  in
  let deadline = if measure_start = infinity then makespan t else measure_start in
  let new_starts = Array.copy t.starts in
  (* Reverse topological (= reverse program) order. *)
  for id = n - 1 downto 0 do
    let g = t.dag.Dag.gates.(id) in
    if not (Gate.is_measure g) then begin
      let latest_finish =
        List.fold_left (fun acc s -> min acc new_starts.(s)) deadline (Dag.succs t.dag id)
      in
      new_starts.(id) <- latest_finish -. t.durations.(id)
    end
  done;
  new_starts
