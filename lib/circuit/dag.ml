type t = {
  circuit : Circuit.t;
  gates : Gate.t array;  (** indexed by gate id *)
  preds : int list array;
  succs : int list array;
  stride : int;  (** words per ancestor row *)
  ancestors : int array;
      (** row [g], words [g * stride] onward, is a bitset over gate ids
          ([bits] per word) *)
}

let bits = 62

let direct_preds circuit =
  let preds = Array.make (Circuit.length circuit) [] in
  let last_on_qubit = Array.make (Circuit.nqubits circuit) (-1) in
  List.iter
    (fun g ->
      let id = g.Gate.id in
      let direct =
        List.fold_left
          (fun acc q -> if last_on_qubit.(q) >= 0 then last_on_qubit.(q) :: acc else acc)
          [] g.Gate.qubits
      in
      preds.(id) <-
        (match direct with
        | [] | [ _ ] -> direct
        | [ a; b ] -> if a = b then [ a ] else if a < b then direct else [ b; a ]
        | _ -> List.sort_uniq Int.compare direct);
      List.iter (fun q -> last_on_qubit.(q) <- id) g.Gate.qubits)
    (Circuit.gates circuit);
  preds

let of_circuit circuit =
  let gates = Array.of_list (Circuit.gates circuit) in
  let n = Array.length gates in
  let preds = direct_preds circuit in
  let succs = Array.make n [] in
  Array.iteri (fun id ps -> List.iter (fun p -> succs.(p) <- id :: succs.(p)) ps) preds;
  let stride = max 1 ((n + bits - 1) / bits) in
  let ancestors = Array.make (n * stride) 0 in
  (* Program order is topological: fold ancestor rows forward.  Row [p]
     holds no bit at or past [p], so only its first [p / bits + 1]
     words can be non-zero. *)
  Array.iteri
    (fun id ps ->
      let row = id * stride in
      List.iter
        (fun p ->
          let src = p * stride in
          for k = 0 to p / bits do
            ancestors.(row + k) <- ancestors.(row + k) lor ancestors.(src + k)
          done;
          let w = row + (p / bits) in
          ancestors.(w) <- ancestors.(w) lor (1 lsl (p mod bits)))
        ps)
    preds;
  { circuit; gates; preds; succs; stride; ancestors }

let circuit t = t.circuit

let gate t id =
  if id < 0 || id >= Array.length t.gates then invalid_arg "Dag.gate: bad id";
  t.gates.(id)

let preds t id = t.preds.(id)
let succs t id = t.succs.(id)

let is_ancestor t a b =
  if a < 0 || b < 0 || a >= Array.length t.gates || b >= Array.length t.gates then
    invalid_arg "Dag.is_ancestor: bad id";
  t.ancestors.((b * t.stride) + (a / bits)) land (1 lsl (a mod bits)) <> 0

let can_overlap t a b = a <> b && (not (is_ancestor t a b)) && not (is_ancestor t b a)
