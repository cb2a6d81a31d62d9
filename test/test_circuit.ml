(* Unit and property tests for Qcx_circuit: gates, circuits, the
   dependency DAG, schedules, QASM emission. *)

module Gate = Core.Gate
module Circuit = Core.Circuit
module Dag = Core.Dag
module Schedule = Core.Schedule

(* ---- Gate ---- *)

let gate_validate () =
  let ok kind qubits = Gate.validate ~nqubits:4 { Gate.id = 0; kind; qubits } = Ok () in
  Alcotest.(check bool) "cnot ok" true (ok Gate.Cnot [ 0; 1 ]);
  Alcotest.(check bool) "cnot arity" false (ok Gate.Cnot [ 0 ]);
  Alcotest.(check bool) "cnot dup" false (ok Gate.Cnot [ 1; 1 ]);
  Alcotest.(check bool) "out of range" false (ok Gate.H [ 9 ]);
  Alcotest.(check bool) "barrier needs operands" false (ok Gate.Barrier []);
  Alcotest.(check bool) "measure ok" true (ok Gate.Measure [ 2 ])

let gate_to_string () =
  Alcotest.(check string) "cx" "cx q[0], q[1]"
    (Gate.to_string { Gate.id = 0; kind = Gate.Cnot; qubits = [ 0; 1 ] });
  Alcotest.(check string) "rz" "rz(1.5) q[2]"
    (Gate.to_string { Gate.id = 0; kind = Gate.Rz 1.5; qubits = [ 2 ] })

let gate_predicates () =
  let g kind qubits = { Gate.id = 0; kind; qubits } in
  Alcotest.(check bool) "cnot is 2q" true (Gate.is_two_qubit (g Gate.Cnot [ 0; 1 ]));
  Alcotest.(check bool) "h is 1q" true (Gate.is_single_qubit (g Gate.H [ 0 ]));
  Alcotest.(check bool) "measure not unitary" false (Gate.is_unitary (g Gate.Measure [ 0 ]));
  Alcotest.(check bool) "barrier not unitary" false (Gate.is_unitary (g Gate.Barrier [ 0 ]))

(* ---- Circuit ---- *)

let build () =
  let c = Circuit.create 3 in
  let c = Circuit.h c 0 in
  let c = Circuit.cnot c ~control:0 ~target:1 in
  let c = Circuit.cnot c ~control:1 ~target:2 in
  Circuit.measure_all c

let circuit_basics () =
  let c = build () in
  Alcotest.(check int) "length" 6 (Circuit.length c);
  Alcotest.(check int) "cnots" 2 (Circuit.two_qubit_count c);
  Alcotest.(check int) "unitaries" 3 (Circuit.unitary_count c);
  Alcotest.(check (list int)) "used qubits" [ 0; 1; 2 ] (Circuit.used_qubits c);
  Alcotest.(check int) "depth" 3 (Circuit.depth c)

let circuit_ids_sequential () =
  let c = build () in
  List.iteri (fun i g -> Alcotest.(check int) "id order" i g.Gate.id) (Circuit.gates c)

let circuit_append () =
  let a = Circuit.h (Circuit.create 2) 0 in
  let b = Circuit.x (Circuit.create 2) 1 in
  let c = Circuit.append a b in
  Alcotest.(check int) "combined length" 2 (Circuit.length c);
  Alcotest.(check int) "ids reassigned" 1 (List.nth (Circuit.gates c) 1).Gate.id

let circuit_map_qubits () =
  let c = Circuit.cnot (Circuit.create 2) ~control:0 ~target:1 in
  let mapped = Circuit.map_qubits c (fun q -> q + 5) ~nqubits:10 in
  Alcotest.(check (list int)) "relabeled" [ 5; 6 ] (List.hd (Circuit.gates mapped)).Gate.qubits

let circuit_map_qubits_injective () =
  let c = Circuit.cnot (Circuit.create 2) ~control:0 ~target:1 in
  Alcotest.check_raises "non-injective"
    (Invalid_argument "Circuit.map_qubits: mapping not injective on used qubits") (fun () ->
      ignore (Circuit.map_qubits c (fun _ -> 3) ~nqubits:4))

let circuit_decompose_swaps () =
  let c = Circuit.swap (Circuit.create 2) 0 1 in
  let d = Circuit.decompose_swaps c in
  Alcotest.(check int) "three cnots" 3 (Circuit.two_qubit_count d);
  Alcotest.(check bool) "no swaps left" true
    (List.for_all (fun g -> g.Gate.kind <> Gate.Swap) (Circuit.gates d));
  (* Semantics: SWAP = X on the other wire when input is |01>. *)
  let c2 = Circuit.x (Circuit.create 2) 0 in
  let c2 = Circuit.swap c2 0 1 in
  let state, _ = Core.Exec.run_ideal (Circuit.decompose_swaps c2) in
  Alcotest.(check (float 1e-9)) "amplitude on |10>" 1.0 (Core.State.probability state 2)

let circuit_measure_all_skips_unused () =
  let c = Circuit.h (Circuit.create 5) 2 in
  let c = Circuit.measure_all c in
  Alcotest.(check int) "one measure" 2 (Circuit.length c)

(* ---- Dag ---- *)

let dag_dependencies () =
  let c = build () in
  let dag = Dag.of_circuit c in
  Alcotest.(check (list int)) "cnot01 depends on h" [ 0 ] (Dag.preds dag 1);
  Alcotest.(check (list int)) "cnot12 depends on cnot01" [ 1 ] (Dag.preds dag 2);
  Alcotest.(check bool) "transitive ancestor" true (Dag.is_ancestor dag 0 2);
  Alcotest.(check bool) "not reflexive" false (Dag.is_ancestor dag 1 1);
  Alcotest.(check bool) "no reverse" false (Dag.is_ancestor dag 2 0)

let dag_can_overlap () =
  let c = Circuit.create 4 in
  let c = Circuit.cnot c ~control:0 ~target:1 in
  let c = Circuit.cnot c ~control:2 ~target:3 in
  let c = Circuit.cnot c ~control:1 ~target:2 in
  let dag = Dag.of_circuit c in
  Alcotest.(check bool) "independent cnots overlap" true (Dag.can_overlap dag 0 1);
  Alcotest.(check bool) "dependent cnots do not" false (Dag.can_overlap dag 0 2)

let dag_barrier_orders () =
  let c = Circuit.create 2 in
  let c = Circuit.h c 0 in
  let c = Circuit.barrier c [ 0; 1 ] in
  let c = Circuit.x c 1 in
  let dag = Dag.of_circuit c in
  (* h -> barrier -> x: the barrier creates the cross-qubit order. *)
  Alcotest.(check bool) "barrier orders across qubits" true (Dag.is_ancestor dag 0 2)

let dag_roots () =
  let c = build () in
  let dag = Dag.of_circuit c in
  Alcotest.(check (list int)) "only the first gate has no predecessor" [ 0 ]
    (List.filter (fun id -> Dag.preds dag id = []) (List.init (Circuit.length c) Fun.id))

(* ---- Schedule ---- *)

let simple_schedule () =
  let c = Circuit.create 2 in
  let c = Circuit.h c 0 in
  let c = Circuit.cnot c ~control:0 ~target:1 in
  let starts = [| 0.0; 50.0 |] in
  let durations = [| 50.0; 300.0 |] in
  Schedule.make c ~starts ~durations

let schedule_accessors () =
  let s = simple_schedule () in
  Alcotest.(check (float 1e-9)) "makespan" 350.0 (Schedule.makespan s);
  Alcotest.(check (float 1e-9)) "finish" 350.0 (Schedule.finish s 1);
  Alcotest.(check bool) "no overlap back-to-back" false (Schedule.overlaps s 0 1)

let schedule_validate_ok () =
  match Schedule.validate (simple_schedule ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let schedule_validate_dependency_violation () =
  let c = Circuit.create 2 in
  let c = Circuit.h c 0 in
  let c = Circuit.cnot c ~control:0 ~target:1 in
  let s = Schedule.make c ~starts:[| 0.0; 10.0 |] ~durations:[| 50.0; 300.0 |] in
  Alcotest.(check bool) "dependency violation caught" true (Result.is_error (Schedule.validate s))

let schedule_validate_qubit_conflict () =
  let c = Circuit.create 2 in
  let c = Circuit.h c 0 in
  let c = Circuit.x c 0 in
  let s = Schedule.make c ~starts:[| 0.0; 10.0 |] ~durations:[| 50.0; 50.0 |] in
  Alcotest.(check bool) "conflict caught" true (Result.is_error (Schedule.validate s))

let schedule_validate_readout_sync () =
  let c = Circuit.create 2 in
  let c = Circuit.measure c 0 in
  let c = Circuit.measure c 1 in
  let bad = Schedule.make c ~starts:[| 0.0; 5.0 |] ~durations:[| 100.0; 100.0 |] in
  Alcotest.(check bool) "async readout caught" true (Result.is_error (Schedule.validate bad))

let schedule_lifetime () =
  let s = simple_schedule () in
  (match Schedule.qubit_lifetime s 0 with
  | Some (first, last) ->
    Alcotest.(check (float 1e-9)) "first" 0.0 first;
    Alcotest.(check (float 1e-9)) "last" 350.0 last
  | None -> Alcotest.fail "expected lifetime");
  match Schedule.qubit_lifetime s 1 with
  | Some (first, _) -> Alcotest.(check (float 1e-9)) "starts at cnot" 50.0 first
  | None -> Alcotest.fail "expected lifetime"

let schedule_right_align () =
  (* Two parallel 1q gates of different length: after right-align both
     must end at the same time. *)
  let c = Circuit.create 2 in
  let c = Circuit.h c 0 in
  let c = Circuit.x c 1 in
  let s = Schedule.make c ~starts:[| 0.0; 0.0 |] ~durations:[| 50.0; 20.0 |] in
  let aligned = Schedule.right_align s in
  Alcotest.(check (float 1e-9)) "short gate pushed late" 30.0 (Schedule.start aligned 1);
  match Schedule.validate aligned with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let schedule_shift_to_zero () =
  let c = Circuit.h (Circuit.create 1) 0 in
  let s = Schedule.make c ~starts:[| 100.0 |] ~durations:[| 50.0 |] in
  Alcotest.(check (float 1e-9)) "shifted" 0.0 (Schedule.start (Schedule.shift_to_zero s) 0)

(* ---- Qasm ---- *)

let qasm_emission () =
  let c = build () in
  let q = Core.Qasm.of_circuit c in
  Alcotest.(check bool) "header" true (String.length q > 0);
  Alcotest.(check bool) "has cx" true
    (List.exists (fun line -> line = "cx q[0], q[1];") (String.split_on_char '\n' q));
  Alcotest.(check bool) "has measure" true
    (List.exists (fun line -> line = "measure q[2] -> c[2];") (String.split_on_char '\n' q))

(* ---- Qasm parser ---- *)

let qasm_parse_roundtrip () =
  let c = build () in
  match Core.Qasm.parse (Core.Qasm.of_circuit c) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    Alcotest.(check int) "same gate count" (Circuit.length c) (Circuit.length parsed);
    List.iter2
      (fun a b ->
        Alcotest.(check bool) "same kind" true (Gate.equal_kind a.Gate.kind b.Gate.kind);
        Alcotest.(check (list int)) "same operands" a.Gate.qubits b.Gate.qubits)
      (Circuit.gates c) (Circuit.gates parsed)

let qasm_parse_angles () =
  let src =
    "qreg q[2];\nrz(pi/2) q[0];\nrx(-pi/4) q[1];\nry(1.25) q[0];\nu2(0,pi) q[1];\nu1(2*pi) q[0];\n"
  in
  match Core.Qasm.parse src with
  | Error e -> Alcotest.fail e
  | Ok c -> (
    match List.map (fun g -> g.Gate.kind) (Circuit.gates c) with
    | [ Gate.Rz a; Gate.Rx b; Gate.Ry r; Gate.U2 (phi, lam); Gate.Rz u1 ] ->
      Alcotest.(check (float 1e-9)) "pi/2" (Float.pi /. 2.0) a;
      Alcotest.(check (float 1e-9)) "-pi/4" (-.Float.pi /. 4.0) b;
      Alcotest.(check (float 1e-9)) "literal" 1.25 r;
      Alcotest.(check (float 1e-9)) "u2 phi" 0.0 phi;
      Alcotest.(check (float 1e-9)) "u2 lam" Float.pi lam;
      Alcotest.(check (float 1e-9)) "u1 as rz" (2.0 *. Float.pi) u1
    | _ -> Alcotest.fail "unexpected gate kinds")

let qasm_parse_cz_expansion () =
  let src = "qreg q[2];\ncz q[0], q[1];\n" in
  match Core.Qasm.parse src with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Alcotest.(check int) "H cx H" 3 (Circuit.length c);
    (* semantics: CZ is symmetric and diagonal; check via statevector *)
    let s, _ = Core.Exec.run_ideal (Circuit.h (Circuit.h c 0) 1) in
    ignore s

let qasm_parse_multi_register () =
  let src = "qreg a[2];\nqreg b[2];\ncx a[1], b[0];\n" in
  match Core.Qasm.parse src with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Alcotest.(check int) "4 qubits" 4 (Circuit.nqubits c);
    Alcotest.(check (list int)) "offsets applied" [ 1; 2 ]
      (List.hd (Circuit.gates c)).Gate.qubits

let qasm_parse_errors () =
  let check_err src =
    match Core.Qasm.parse src with
    | Ok _ -> Alcotest.failf "expected parse error for %S" src
    | Error _ -> ()
  in
  check_err "h q[0];\n";                        (* no qreg *)
  check_err "qreg q[2];\nfrobnicate q[0];\n";   (* unknown gate *)
  check_err "qreg q[2];\nh r[0];\n";            (* unknown register *)
  check_err "qreg q[2];\nrz(huh) q[0];\n";      (* bad angle *)
  check_err "qreg q[2];\nqreg q[3];\n"          (* duplicate qreg *)

let qasm_parse_comments_and_measure () =
  let src =
    "// a comment\nOPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
     h q[0]; // trailing comment\nbarrier q[0], q[1];\nmeasure q[0] -> c[0];\n"
  in
  match Core.Qasm.parse src with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Alcotest.(check int) "three statements" 3 (Circuit.length c);
    Alcotest.(check bool) "measure parsed" true
      (List.exists Gate.is_measure (Circuit.gates c))

let qasm_parser_suite =
  ( "circuit.qasm-parser",
    [
      Alcotest.test_case "roundtrip" `Quick qasm_parse_roundtrip;
      Alcotest.test_case "angles" `Quick qasm_parse_angles;
      Alcotest.test_case "cz expansion" `Quick qasm_parse_cz_expansion;
      Alcotest.test_case "multi register" `Quick qasm_parse_multi_register;
      Alcotest.test_case "errors" `Quick qasm_parse_errors;
      Alcotest.test_case "comments and measure" `Quick qasm_parse_comments_and_measure;
    ] )

(* ---- properties ---- *)

(* Random circuit generator over 4 qubits. *)
let gen_circuit =
  QCheck.Gen.(
    let gen_gate =
      oneof
        [
          map (fun q -> `H q) (int_range 0 3);
          map (fun q -> `X q) (int_range 0 3);
          map2 (fun a b -> `Cx (a, b)) (int_range 0 3) (int_range 0 3);
        ]
    in
    list_size (int_range 1 25) gen_gate)

let circuit_of_ops ops =
  List.fold_left
    (fun c op ->
      match op with
      | `H q -> Circuit.h c q
      | `X q -> Circuit.x c q
      | `Cx (a, b) when a <> b -> Circuit.cnot c ~control:a ~target:b
      | `Cx _ -> c)
    (Circuit.create 4) ops

let prop_asap_valid =
  QCheck.Test.make ~name:"naive ASAP schedule of any circuit validates" ~count:100
    (QCheck.make gen_circuit) (fun ops ->
      let c = circuit_of_ops ops in
      if Circuit.length c = 0 then true
      else begin
        let dag = Dag.of_circuit c in
        let durations = Array.make (Circuit.length c) 10.0 in
        let starts = Array.make (Circuit.length c) 0.0 in
        List.iter
          (fun g ->
            let id = g.Gate.id in
            starts.(id) <-
              List.fold_left (fun acc p -> max acc (starts.(p) +. durations.(p))) 0.0
                (Dag.preds dag id))
          (Circuit.gates c);
        Result.is_ok (Schedule.validate (Schedule.make c ~starts ~durations))
      end)

let prop_ancestor_antisymmetric =
  QCheck.Test.make ~name:"ancestor relation is antisymmetric" ~count:100
    (QCheck.make gen_circuit) (fun ops ->
      let c = circuit_of_ops ops in
      let n = Circuit.length c in
      if n = 0 then true
      else begin
        let dag = Dag.of_circuit c in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if i <> j && Dag.is_ancestor dag i j && Dag.is_ancestor dag j i then ok := false
          done
        done;
        !ok
      end)

(* ---- oracles: the seed DAG, validator and right alignment
   (sched_ref.ml) ---- *)

(* Random circuits of 0-200 gates over 1-8 qubits (1q gates, CNOTs,
   multi-qubit barriers, measures), with extra weight on the sizes on
   either side of the closure's 62-bit word boundaries. *)
let gen_oracle_circuit =
  QCheck.Gen.(
    let* nq = int_range 1 8 in
    let* n = frequency [ (3, int_range 0 200); (1, oneofl [ 61; 62; 63; 124; 125 ]) ] in
    let qubit = int_bound (nq - 1) in
    let one kind = map (fun q -> (kind, [ q ])) qubit in
    let cnot =
      if nq < 2 then one Gate.X
      else
        let* a = qubit in
        let+ b = int_bound (nq - 2) in
        (Gate.Cnot, [ a; (if b >= a then b + 1 else b) ])
    in
    let barrier =
      let* qs = shuffle_l (List.init nq Fun.id) in
      let+ k = int_range 1 nq in
      (Gate.Barrier, List.filteri (fun i _ -> i < k) qs)
    in
    let+ ops =
      list_repeat n
        (frequency
           [ (3, one Gate.H); (1, one (Gate.Rz 0.5)); (4, cnot); (1, barrier); (1, one Gate.Measure) ])
    in
    List.fold_left (fun c (kind, qs) -> Circuit.add c kind qs) (Circuit.create nq) ops)

let arb_oracle_circuit =
  QCheck.make gen_oracle_circuit ~print:(fun c ->
      Printf.sprintf "%d qubits: %s" (Circuit.nqubits c)
        (String.concat "; " (List.map Gate.to_string (Circuit.gates c))))

let prop_dag_matches_reference =
  QCheck.Test.make ~name:"preds, succs and ancestors match the seed DAG" ~count:200
    arb_oracle_circuit (fun c ->
      let dag = Dag.of_circuit c and seed = Sched_ref.Dag.of_circuit c in
      let direct = Dag.direct_preds c in
      let ids = List.init (Circuit.length c) Fun.id in
      List.for_all
        (fun b ->
          let preds = Sched_ref.Dag.preds seed b in
          Dag.preds dag b = preds
          && direct.(b) = preds
          && Dag.succs dag b = Sched_ref.Dag.succs seed b
          && List.for_all (fun a -> Dag.is_ancestor dag a b = Sched_ref.Dag.is_ancestor seed a b) ids)
        ids)

(* An ASAP schedule with durations drawn from {0, 10, 30, 50} ns (zero
   makes start-time ties on a qubit), and a copy perturbed by one of:
   a gate started before its first dependency, a later gate started
   inside an earlier one on a shared qubit, one measurement moved, or
   random gates moved anywhere in the makespan. *)
let oracle_schedules c seed =
  let rng = Random.State.make [| seed |] in
  let n = Circuit.length c in
  let gates = Array.of_list (Circuit.gates c) in
  let durations =
    Array.map
      (fun g -> if Gate.is_barrier g then 0.0 else [| 0.0; 10.0; 30.0; 50.0 |].(Random.State.int rng 4))
      gates
  in
  let preds = Dag.direct_preds c in
  let starts = Array.make n 0.0 in
  Array.iteri
    (fun id ps -> starts.(id) <- List.fold_left (fun acc p -> max acc (starts.(p) +. durations.(p))) 0.0 ps)
    preds;
  let pick f =
    match List.filter f (List.init n Fun.id) with
    | [] -> None
    | l -> Some (List.nth l (Random.State.int rng (List.length l)))
  in
  let shares a b = List.exists (fun q -> List.mem q gates.(b).Gate.qubits) gates.(a).Gate.qubits in
  let moved = Array.copy starts in
  (match seed mod 4 with
  | 0 -> Option.iter (fun id -> moved.(id) <- starts.(List.hd preds.(id)) -. 1.0) (pick (fun id -> preds.(id) <> []))
  | 1 ->
    Option.iter
      (fun b ->
        Option.iter
          (fun a -> moved.(b) <- starts.(a) +. (durations.(a) /. 2.0))
          (pick (fun a -> a < b && durations.(a) > 0.0 && shares a b)))
      (pick (fun b -> durations.(b) > 0.0))
  | 2 -> Option.iter (fun id -> moved.(id) <- starts.(id) +. 1.0) (pick (fun id -> Gate.is_measure gates.(id)))
  | _ ->
    let span = Array.fold_left max 0.0 starts in
    if n > 0 then
      for _ = 0 to Random.State.int rng 3 do
        moved.(Random.State.int rng n) <- Random.State.float rng span
      done);
  (durations, [ starts; moved ])

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let validate_matches_reference () =
  let kinds = [| "before its dependency"; "overlap on qubit"; "not simultaneous" |] in
  let hits = Array.make (Array.length kinds) 0 in
  let same_bits a b = Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b in
  let agrees c (durations, starts) =
    let s = Schedule.make c ~starts ~durations in
    let seed = Sched_ref.of_schedule s in
    let want = Sched_ref.validate seed in
    (match want with
    | Error e -> Array.iteri (fun k kind -> if contains e kind then hits.(k) <- hits.(k) + 1) kinds
    | Ok () -> ());
    let aligned = Schedule.right_align s in
    Schedule.validate s = want
    && same_bits (Array.init (Circuit.length c) (Schedule.start aligned)) (Sched_ref.right_align seed)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"validate and right_align match the seed" ~count:400
       (QCheck.pair arb_oracle_circuit (QCheck.int_bound 1_000_000))
       (fun (c, seed) ->
         let durations, schedules = oracle_schedules c seed in
         List.for_all (fun starts -> agrees c (durations, starts)) schedules));
  Array.iteri
    (fun k kind -> Alcotest.(check bool) (Printf.sprintf "some error says %S" kind) true (hits.(k) > 0))
    kinds

let suite =
  [
    ( "circuit.gate",
      [
        Alcotest.test_case "validate" `Quick gate_validate;
        Alcotest.test_case "to_string" `Quick gate_to_string;
        Alcotest.test_case "predicates" `Quick gate_predicates;
      ] );
    ( "circuit.circuit",
      [
        Alcotest.test_case "basics" `Quick circuit_basics;
        Alcotest.test_case "sequential ids" `Quick circuit_ids_sequential;
        Alcotest.test_case "append" `Quick circuit_append;
        Alcotest.test_case "map qubits" `Quick circuit_map_qubits;
        Alcotest.test_case "map qubits injectivity" `Quick circuit_map_qubits_injective;
        Alcotest.test_case "decompose swaps" `Quick circuit_decompose_swaps;
        Alcotest.test_case "measure_all skips unused" `Quick circuit_measure_all_skips_unused;
      ] );
    ( "circuit.dag",
      [
        Alcotest.test_case "dependencies" `Quick dag_dependencies;
        Alcotest.test_case "can overlap" `Quick dag_can_overlap;
        Alcotest.test_case "barrier orders" `Quick dag_barrier_orders;
        Alcotest.test_case "roots" `Quick dag_roots;
        QCheck_alcotest.to_alcotest prop_ancestor_antisymmetric;
        QCheck_alcotest.to_alcotest prop_dag_matches_reference;
      ] );
    ( "circuit.schedule",
      [
        Alcotest.test_case "accessors" `Quick schedule_accessors;
        Alcotest.test_case "validate ok" `Quick schedule_validate_ok;
        Alcotest.test_case "dependency violation" `Quick schedule_validate_dependency_violation;
        Alcotest.test_case "qubit conflict" `Quick schedule_validate_qubit_conflict;
        Alcotest.test_case "readout sync" `Quick schedule_validate_readout_sync;
        Alcotest.test_case "lifetime" `Quick schedule_lifetime;
        Alcotest.test_case "right align" `Quick schedule_right_align;
        Alcotest.test_case "shift to zero" `Quick schedule_shift_to_zero;
        QCheck_alcotest.to_alcotest prop_asap_valid;
        Alcotest.test_case "validate and right_align match the seed" `Quick
          validate_matches_reference;
      ] );
    ("circuit.qasm", [ Alcotest.test_case "emission" `Quick qasm_emission ]);
    qasm_parser_suite;
  ]
