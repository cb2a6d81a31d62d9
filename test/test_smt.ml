(* Tests for the qcx_smt optimizing solver: the difference-constraint
   graph and the branch-and-bound DPLL search. *)

module Dgraph = Core.Dgraph
module Solver = Core.Solver

let lit var value = { Solver.var; value }

(* ---- Dgraph ---- *)

let dgraph_asap_chain () =
  let g = Dgraph.create () in
  let a = Dgraph.new_var g "a" and b = Dgraph.new_var g "b" and c = Dgraph.new_var g "c" in
  Dgraph.add_edge g ~src:a ~dst:b ~weight:10.0;
  Dgraph.add_edge g ~src:b ~dst:c ~weight:5.0;
  match Dgraph.asap g with
  | Some dist ->
    Alcotest.(check (float 1e-9)) "a" 0.0 dist.(a);
    Alcotest.(check (float 1e-9)) "b" 10.0 dist.(b);
    Alcotest.(check (float 1e-9)) "c" 15.0 dist.(c)
  | None -> Alcotest.fail "feasible system reported infeasible"

let dgraph_positive_cycle () =
  let g = Dgraph.create () in
  let a = Dgraph.new_var g "a" and b = Dgraph.new_var g "b" in
  Dgraph.add_edge g ~src:a ~dst:b ~weight:1.0;
  Dgraph.add_edge g ~src:b ~dst:a ~weight:1.0;
  Alcotest.(check bool) "infeasible" true (Dgraph.asap g = None)

let dgraph_zero_cycle_ok () =
  let g = Dgraph.create () in
  let a = Dgraph.new_var g "a" and b = Dgraph.new_var g "b" in
  (* equality: a = b *)
  Dgraph.add_edge g ~src:a ~dst:b ~weight:0.0;
  Dgraph.add_edge g ~src:b ~dst:a ~weight:0.0;
  Alcotest.(check bool) "feasible" true (Dgraph.asap g <> None)

let dgraph_push_pop () =
  let g = Dgraph.create () in
  let a = Dgraph.new_var g "a" and b = Dgraph.new_var g "b" in
  Dgraph.add_edge g ~src:a ~dst:b ~weight:1.0;
  Dgraph.push g;
  Dgraph.add_edge g ~src:b ~dst:a ~weight:1.0;
  Alcotest.(check bool) "infeasible inside frame" true (Dgraph.asap g = None);
  Dgraph.pop g;
  Alcotest.(check bool) "feasible after pop" true (Dgraph.asap g <> None)

let dgraph_alap () =
  let g = Dgraph.create () in
  let a = Dgraph.new_var g "a" and b = Dgraph.new_var g "b" and c = Dgraph.new_var g "c" in
  Dgraph.add_edge g ~src:a ~dst:c ~weight:10.0;
  Dgraph.add_edge g ~src:b ~dst:c ~weight:3.0;
  let deadline = [| infinity; infinity; 10.0 |] in
  (match Dgraph.alap g ~deadline with
  | Some v ->
    Alcotest.(check (float 1e-9)) "a at max" 0.0 v.(a);
    Alcotest.(check (float 1e-9)) "b slack used" 7.0 v.(b);
    Alcotest.(check (float 1e-9)) "c pinned" 10.0 v.(c)
  | None -> Alcotest.fail "feasible");
  (* Deadline below the minimum is infeasible. *)
  Alcotest.(check bool) "tight deadline infeasible" true
    (Dgraph.alap g ~deadline:[| infinity; infinity; 5.0 |] = None)

let dgraph_longest_paths () =
  let g = Dgraph.create () in
  let a = Dgraph.new_var g "a" and b = Dgraph.new_var g "b" and c = Dgraph.new_var g "c" in
  Dgraph.add_edge g ~src:a ~dst:b ~weight:2.0;
  Dgraph.add_edge g ~src:b ~dst:c ~weight:3.0;
  Dgraph.add_edge g ~src:a ~dst:c ~weight:4.0;
  Alcotest.(check (float 1e-9)) "longest a->c" 5.0 (Dgraph.longest_path g ~src:a ~dst:c);
  let dist = Dgraph.longest_paths_to g ~dst:c in
  Alcotest.(check (float 1e-9)) "batched a" 5.0 dist.(a);
  Alcotest.(check (float 1e-9)) "batched b" 3.0 dist.(b);
  Alcotest.(check (float 1e-9)) "unreachable" neg_infinity
    (Dgraph.longest_path g ~src:c ~dst:a)

(* ---- Solver ---- *)

let solver_pure_arithmetic () =
  let s = Solver.create () in
  let a = Solver.new_num s "a" and b = Solver.new_num s "b" in
  Solver.add_diff s ~dst:b ~src:a ~weight:5.0 ();
  Solver.add_sink s b;
  Solver.add_span_cost s ~weight:1.0 ~last:b ~first:a;
  match Solver.solve s with
  | Some sol ->
    Alcotest.(check (float 1e-9)) "objective is the gap" 5.0 sol.Solver.objective;
    Alcotest.(check bool) "optimal" true sol.Solver.optimal
  | None -> Alcotest.fail "satisfiable"

let solver_unsat_clause () =
  let s = Solver.create () in
  let x = Solver.new_bool s "x" in
  Solver.add_clause s [ lit x true ];
  Solver.add_clause s [ lit x false ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = None)

let solver_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Solver.solve s = None)

let solver_guarded_edges () =
  (* Choosing x activates a costly constraint; the solver must prefer
     not-x. *)
  let s = Solver.create () in
  let x = Solver.new_bool s "x" in
  let a = Solver.new_num s "a" and b = Solver.new_num s "b" in
  Solver.add_sink s b;
  Solver.add_diff s ~dst:b ~src:a ~weight:1.0 ();
  Solver.add_diff s ~guard:(lit x true) ~dst:b ~src:a ~weight:10.0 ();
  Solver.add_span_cost s ~weight:1.0 ~last:b ~first:a;
  (* Force a preference through a cost group: x true costs nothing,
     x false costs 100 -> solver must still pick x=false?? No: x true
     stretches the span to 10 (cost 10), x false costs 100. The solver
     should pick x = true. *)
  Solver.add_cost_group s [ ([ lit x true ], 0.0); ([ lit x false ], 100.0) ];
  match Solver.solve s with
  | Some sol ->
    Alcotest.(check bool) "x chosen true" true sol.Solver.bools.(x);
    Alcotest.(check (float 1e-9)) "objective 10" 10.0 sol.Solver.objective
  | None -> Alcotest.fail "satisfiable"

let solver_cost_tradeoff () =
  (* Same setup but now the boolean penalty is small: serializing
     (x = false, cost 3) beats stretching the span (cost 10). *)
  let s = Solver.create () in
  let x = Solver.new_bool s "x" in
  let a = Solver.new_num s "a" and b = Solver.new_num s "b" in
  Solver.add_sink s b;
  Solver.add_diff s ~dst:b ~src:a ~weight:1.0 ();
  Solver.add_diff s ~guard:(lit x true) ~dst:b ~src:a ~weight:10.0 ();
  Solver.add_span_cost s ~weight:1.0 ~last:b ~first:a;
  Solver.add_cost_group s [ ([ lit x true ], 0.0); ([ lit x false ], 3.0) ];
  match Solver.solve s with
  | Some sol ->
    Alcotest.(check bool) "x chosen false" false sol.Solver.bools.(x);
    Alcotest.(check (float 1e-9)) "objective 4" 4.0 sol.Solver.objective
  | None -> Alcotest.fail "satisfiable"

let solver_exactly_one_structure () =
  (* Three mutually exclusive options with different costs. *)
  let s = Solver.create () in
  let o = Solver.new_bool s "o" and b = Solver.new_bool s "b" and a = Solver.new_bool s "a" in
  Solver.add_clause s [ lit o true; lit b true; lit a true ];
  Solver.add_clause s [ lit o false; lit b false ];
  Solver.add_clause s [ lit o false; lit a false ];
  Solver.add_clause s [ lit b false; lit a false ];
  Solver.add_cost_group s
    [
      ([ lit o true; lit b false; lit a false ], 7.0);
      ([ lit o false; lit b true; lit a false ], 2.0);
      ([ lit o false; lit b false; lit a true ], 5.0);
    ];
  match Solver.solve s with
  | Some sol ->
    Alcotest.(check (float 1e-9)) "picked cheapest" 2.0 sol.Solver.objective;
    Alcotest.(check bool) "b true" true sol.Solver.bools.(b);
    Alcotest.(check bool) "o false" false sol.Solver.bools.(o)
  | None -> Alcotest.fail "satisfiable"

let solver_infeasible_guard_combination () =
  (* Both x and y forced true, and their guarded edges form a positive
     cycle: unsat. *)
  let s = Solver.create () in
  let x = Solver.new_bool s "x" and y = Solver.new_bool s "y" in
  let a = Solver.new_num s "a" and b = Solver.new_num s "b" in
  Solver.add_clause s [ lit x true ];
  Solver.add_clause s [ lit y true ];
  Solver.add_diff s ~guard:(lit x true) ~dst:b ~src:a ~weight:1.0 ();
  Solver.add_diff s ~guard:(lit y true) ~dst:a ~src:b ~weight:1.0 ();
  Alcotest.(check bool) "unsat via theory" true (Solver.solve s = None)

let solver_budget_returns_incumbent () =
  let s = Solver.create () in
  (* Ten independent booleans, each with a cost preference. *)
  let bools = List.init 10 (fun i -> Solver.new_bool s (string_of_int i)) in
  List.iter
    (fun v -> Solver.add_cost_group s [ ([ lit v true ], 1.0); ([ lit v false ], 2.0) ])
    bools;
  match Solver.solve ~node_budget:15 s with
  | Some sol -> Alcotest.(check bool) "not proven optimal" false sol.Solver.optimal
  | None -> Alcotest.fail "should return an incumbent"

(* Exhaustive cross-check on random small instances: the solver's
   optimum equals brute force over all boolean assignments. *)
let prop_solver_matches_bruteforce =
  QCheck.Test.make ~name:"solver optimum matches brute force (3 bools)" ~count:60
    QCheck.(list_of_size (Gen.return 8) (float_range 0.1 10.0))
    (fun costs ->
      let s = Solver.create () in
      let b0 = Solver.new_bool s "b0" in
      let b1 = Solver.new_bool s "b1" in
      let b2 = Solver.new_bool s "b2" in
      let cost k = List.nth costs k in
      Solver.add_cost_group s [ ([ lit b0 true ], cost 0); ([ lit b0 false ], cost 1) ];
      Solver.add_cost_group s [ ([ lit b1 true ], cost 2); ([ lit b1 false ], cost 3) ];
      Solver.add_cost_group s
        [
          ([ lit b2 true; lit b0 true ], cost 4);
          ([ lit b2 true; lit b0 false ], cost 5);
          ([ lit b2 false; lit b0 true ], cost 6);
          ([ lit b2 false; lit b0 false ], cost 7);
        ];
      (* at least one of b1, b2 *)
      Solver.add_clause s [ lit b1 true; lit b2 true ];
      let brute =
        let best = ref infinity in
        List.iter
          (fun (v0, v1, v2) ->
            if v1 || v2 then begin
              let total =
                (if v0 then cost 0 else cost 1)
                +. (if v1 then cost 2 else cost 3)
                +.
                match (v2, v0) with
                | true, true -> cost 4
                | true, false -> cost 5
                | false, true -> cost 6
                | false, false -> cost 7
              in
              if total < !best then best := total
            end)
          [
            (false, false, false); (false, false, true); (false, true, false);
            (false, true, true); (true, false, false); (true, false, true);
            (true, true, false); (true, true, true);
          ];
        !best
      in
      match Solver.solve s with
      | Some sol -> Float.abs (sol.Solver.objective -. brute) < 1e-9
      | None -> false)

let suite =
  [
    ( "smt.dgraph",
      [
        Alcotest.test_case "asap chain" `Quick dgraph_asap_chain;
        Alcotest.test_case "positive cycle" `Quick dgraph_positive_cycle;
        Alcotest.test_case "zero cycle ok" `Quick dgraph_zero_cycle_ok;
        Alcotest.test_case "push pop" `Quick dgraph_push_pop;
        Alcotest.test_case "alap" `Quick dgraph_alap;
        Alcotest.test_case "longest paths" `Quick dgraph_longest_paths;
      ] );
    ( "smt.solver",
      [
        Alcotest.test_case "pure arithmetic" `Quick solver_pure_arithmetic;
        Alcotest.test_case "unsat clause" `Quick solver_unsat_clause;
        Alcotest.test_case "empty clause" `Quick solver_empty_clause;
        Alcotest.test_case "guarded edges" `Quick solver_guarded_edges;
        Alcotest.test_case "cost tradeoff" `Quick solver_cost_tradeoff;
        Alcotest.test_case "exactly-one structure" `Quick solver_exactly_one_structure;
        Alcotest.test_case "infeasible guards" `Quick solver_infeasible_guard_combination;
        Alcotest.test_case "budget incumbent" `Quick solver_budget_returns_incumbent;
        QCheck_alcotest.to_alcotest prop_solver_matches_bruteforce;
      ] );
  ]

(* property: ASAP solutions satisfy every constraint of random DAGs *)
let prop_asap_satisfies_constraints =
  QCheck.Test.make ~name:"asap satisfies all difference constraints" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 25) (triple (int_range 0 9) (int_range 0 9) (float_range 0.0 10.0)))
    (fun edges ->
      let g = Dgraph.create () in
      let vars = Array.init 10 (fun i -> Dgraph.new_var g (string_of_int i)) in
      (* only forward edges (src < dst): guaranteed acyclic *)
      List.iter
        (fun (a, b, w) ->
          if a <> b then
            let src = vars.(min a b) and dst = vars.(max a b) in
            Dgraph.add_edge g ~src ~dst ~weight:w)
        edges;
      match Dgraph.asap g with
      | None -> false
      | Some dist ->
        List.for_all
          (fun (a, b, w) ->
            a = b || dist.(vars.(max a b)) +. 1e-6 >= dist.(vars.(min a b)) +. w)
          edges)

let prop_alap_dominates_asap =
  QCheck.Test.make ~name:"alap >= asap pointwise under a loose deadline" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (triple (int_range 0 7) (int_range 0 7) (float_range 0.0 5.0)))
    (fun edges ->
      let g = Dgraph.create () in
      let vars = Array.init 8 (fun i -> Dgraph.new_var g (string_of_int i)) in
      List.iter
        (fun (a, b, w) ->
          if a <> b then
            Dgraph.add_edge g ~src:vars.(min a b) ~dst:vars.(max a b) ~weight:w)
        edges;
      match Dgraph.asap g with
      | None -> false
      | Some lo -> (
        let deadline = Array.make 8 1000.0 in
        match Dgraph.alap g ~deadline with
        | None -> false
        | Some hi -> Array.for_all2 (fun l h -> h +. 1e-6 >= l) lo hi))

(* ---- oracles: rescan propagation, exhaustive enumeration ---- *)

(* Reference unit propagation over the test's own clause lists: rescan
   every clause until nothing changes.  Same contract as
   [Solver.propagation_fixpoint] — root units first, then each seed
   followed by propagation; [None] on a conflict, else the assigned set
   sorted by variable.  Duplicate literals stay distinct occurrences,
   so a clause like [x; x] never forces [x]. *)
let rescan_fixpoint nvars clauses seeds =
  let assign = Array.make nvars None in
  let set (v, b) =
    match assign.(v) with Some b' -> if b <> b' then raise Exit | None -> assign.(v) <- Some b
  in
  let propagate () =
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun clause ->
          if not (List.exists (fun (v, b) -> assign.(v) = Some b) clause) then
            match List.filter (fun (v, _) -> assign.(v) = None) clause with
            | [] -> raise Exit
            | [ l ] ->
              set l;
              changed := true
            | _ -> ())
        clauses
    done
  in
  try
    propagate ();
    List.iter
      (fun seed ->
        set seed;
        propagate ())
      seeds;
    Some
      (List.filter_map
         (fun v -> Option.map (fun b -> (v, b)) assign.(v))
         (List.init nvars Fun.id))
  with Exit -> None

(* Exhaustive optimum: the best objective over all 2^(nbools s) full
   assignments, each evaluated as a warm-start hint under a zero node
   budget (hints are evaluated before the search and do not count
   against the budget).  [None] when no assignment is feasible. *)
let brute_force_optimum s =
  let n = Solver.nbools s in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let a = Array.init n (fun v -> mask land (1 lsl v) <> 0) in
    match (Solver.solve ~node_budget:0 ~warm_starts:[ a ] s, !best) with
    | None, _ -> ()
    | Some sol, Some b when b <= sol.Solver.objective -> ()
    | Some sol, _ -> best := Some sol.Solver.objective
  done;
  !best

let matches_enumeration s =
  match (Solver.solve s, brute_force_optimum s) with
  | None, None -> true
  | Some sol, Some opt ->
    sol.Solver.optimal && Float.abs (sol.Solver.objective -. opt) < 1e-9
  | _ -> false

let propagation_unit_chain () =
  let s = Solver.create () in
  let x0 = Solver.new_bool s "x0" in
  let x1 = Solver.new_bool s "x1" in
  let x2 = Solver.new_bool s "x2" in
  let clauses = [ [ (x0, false); (x1, true) ]; [ (x1, false); (x2, true) ] ] in
  List.iter (fun c -> Solver.add_clause s (List.map (fun (v, p) -> lit v p) c)) clauses;
  let expect = Some [ (x0, true); (x1, true); (x2, true) ] in
  Alcotest.(check bool) "watched chain" true
    (Solver.propagation_fixpoint s [ (x0, true) ] = expect);
  Alcotest.(check bool) "rescan chain" true (rescan_fixpoint 3 clauses [ (x0, true) ] = expect);
  (* Conflicting seeds: both must report the conflict. *)
  Alcotest.(check bool) "watched conflict" true
    (Solver.propagation_fixpoint s [ (x0, true); (x2, false) ] = None);
  Alcotest.(check bool) "rescan conflict" true
    (rescan_fixpoint 3 clauses [ (x0, true); (x2, false) ] = None)

(* Unit propagation has a unique fixpoint, so the two-watched-literal
   scheme and a full clause rescan must agree on arbitrary clause sets
   — including duplicate literals within a clause, which the watch
   scheme must treat as distinct occurrences. *)
let prop_propagation_fixpoint_equivalence =
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun nvars ->
      list_size (int_range 0 12)
        (list_size (int_range 0 4) (pair (int_range 0 (nvars - 1)) bool))
      >>= fun clauses ->
      list_size (int_range 0 4) (pair (int_range 0 (nvars - 1)) bool) >>= fun seeds ->
      return (nvars, clauses, seeds))
  in
  let print (nvars, clauses, seeds) =
    Printf.sprintf "nvars=%d clauses=%s seeds=%s" nvars
      (String.concat ";"
         (List.map
            (fun c ->
              "["
              ^ String.concat ","
                  (List.map (fun (v, p) -> Printf.sprintf "%d:%b" v p) c)
              ^ "]")
            clauses))
      (String.concat "," (List.map (fun (v, p) -> Printf.sprintf "%d:%b" v p) seeds))
  in
  QCheck.Test.make ~name:"watched-literal propagation matches rescan fixpoint" ~count:500
    (QCheck.make ~print gen)
    (fun (nvars, clauses, seeds) ->
      let s = Solver.create () in
      let vars = Array.init nvars (fun i -> Solver.new_bool s (string_of_int i)) in
      List.iter
        (fun c -> Solver.add_clause s (List.map (fun (v, p) -> lit vars.(v) p) c))
        clauses;
      Solver.propagation_fixpoint s seeds = rescan_fixpoint nvars clauses seeds)

(* The search against exhaustive enumeration on random instances
   mixing clauses (dense enough that the search backtracks through
   propagation conflicts), exhaustive cost groups over one or two
   booleans, guarded difference edges (two-variable positive cycles
   make some assignments infeasible) and span costs ending at the
   sink. *)
let prop_search_matches_enumeration =
  let gen =
    QCheck.Gen.(
      int_range 2 7 >>= fun nb ->
      int_range 1 3 >>= fun nn ->
      let blit = pair (int_range 0 (nb - 1)) bool in
      let cost = float_range 0.0 10.0 in
      list_size (int_range 2 14) (list_size (int_range 2 3) blit) >>= fun clauses ->
      list_size (int_range 0 6)
        (quad blit (int_range 0 (nn - 1)) (int_range 0 (nn - 1)) (float_range 0.0 5.0))
      >>= fun guarded ->
      list_size (int_range 1 4)
        (pair (pair (int_range 0 (nb - 1)) (int_range 0 (nb - 1))) (list_repeat 4 cost))
      >>= fun groups ->
      list_repeat nn (pair (float_range 0.5 3.0) (float_range 0.0 1.0)) >>= fun nums ->
      return (nb, clauses, guarded, groups, nums))
  in
  QCheck.Test.make ~name:"search matches exhaustive enumeration" ~count:1000 (QCheck.make gen)
    (fun (nb, clauses, guarded, groups, nums) ->
      let s = Solver.create () in
      let b = Array.init nb (fun i -> Solver.new_bool s (string_of_int i)) in
      let t =
        Array.of_list (List.mapi (fun i _ -> Solver.new_num s (Printf.sprintf "t%d" i)) nums)
      in
      let r = Solver.new_num s "r" in
      Solver.add_sink s r;
      List.iteri
        (fun i (dur, w) ->
          Solver.add_diff s ~dst:r ~src:t.(i) ~weight:dur ();
          Solver.add_span_cost s ~weight:w ~last:r ~first:t.(i))
        nums;
      List.iter
        (fun c -> Solver.add_clause s (List.map (fun (v, p) -> lit b.(v) p) c))
        clauses;
      List.iter
        (fun ((v, p), dst, src, weight) ->
          if dst <> src then
            Solver.add_diff s ~guard:(lit b.(v) p) ~dst:t.(dst) ~src:t.(src) ~weight ())
        guarded;
      List.iter
        (fun ((u, v), costs) ->
          let cost k = List.nth costs k in
          if u = v then
            Solver.add_cost_group s
              [ ([ lit b.(u) true ], cost 0); ([ lit b.(u) false ], cost 1) ]
          else
            Solver.add_cost_group s
              [
                ([ lit b.(u) true; lit b.(v) true ], cost 0);
                ([ lit b.(u) true; lit b.(v) false ], cost 1);
                ([ lit b.(u) false; lit b.(v) true ], cost 2);
                ([ lit b.(u) false; lit b.(v) false ], cost 3);
              ])
        groups;
      matches_enumeration s)

(* A conflict mid-way through a watch list must keep the rest of the
   list.  Branching runs v, u, x, q (equal cost spreads, index order),
   cheaper value first.  Under [v = u = false], [x = true] forces [y]
   and conflicts on [-x; -y; v], and then [q = true] forces [s] and
   conflicts on [-q; -s; u]; each conflict leaves [-x; -q] unvisited
   behind it, once per watched literal.  Were those watchers dropped,
   the clause would go unwatched and the [v = u = x = q = true] leaf
   would be recorded at cost 2, below the true optimum of 11. *)
let conflict_keeps_watchers () =
  let s = Solver.create () in
  let v = Solver.new_bool s "v" and u = Solver.new_bool s "u" in
  let x = Solver.new_bool s "x" and q = Solver.new_bool s "q" in
  let y = Solver.new_bool s "y" and sv = Solver.new_bool s "s" in
  Solver.add_clause s [ lit x false; lit y true ];
  Solver.add_clause s [ lit x false; lit y false; lit v true ];
  Solver.add_clause s [ lit q false; lit sv true ];
  Solver.add_clause s [ lit q false; lit sv false; lit u true ];
  Solver.add_clause s [ lit x false; lit q false ];
  let group a b =
    Solver.add_cost_group s
      [
        ([ lit a false; lit b true ], 0.0);
        ([ lit a false; lit b false ], 10.0);
        ([ lit a true; lit b true ], 1.0);
        ([ lit a true; lit b false ], 11.0);
      ]
  in
  group v x;
  group u q;
  Alcotest.(check (option (float 1e-9))) "enumerated optimum" (Some 11.0)
    (brute_force_optimum s);
  Alcotest.(check bool) "search matches enumeration" true (matches_enumeration s)

(* The same oracle on a real scheduler encoding: the ladder fixture's
   interfering pairs, with synchronized readout, at several omegas. *)
let scheduler_encoding_matches_enumeration () =
  let device, xtalk, circuit = Test_faults.ladder_fixture () in
  let circuit = Core.Circuit.measure_all circuit in
  let dag = Core.Dag.of_circuit circuit in
  let durations = Core.Durations.assign device circuit in
  List.iter
    (fun omega ->
      let enc =
        Core.Encoding.build ~device ~xtalk ~omega ~threshold:3.0 ~dag ~durations ()
      in
      let s = enc.Core.Encoding.solver in
      Alcotest.(check bool) "has pairs" true (enc.Core.Encoding.pairs <> []);
      Alcotest.(check bool) "small enough to enumerate" true (Solver.nbools s <= 14);
      Alcotest.(check bool)
        (Printf.sprintf "omega %.1f: optimum equals enumeration" omega)
        true (matches_enumeration s))
    [ 0.0; 0.2; 0.5; 0.8 ]

let warm_start_never_worse () =
  (* Ten independent booleans, true cheaper than false.  The all-false
     hint evaluates to 20; a zero node budget returns exactly that
     incumbent, and an unrestricted warm search must end at the true
     optimum (10) — never above the incumbent it was seeded with. *)
  let build () =
    let s = Solver.create () in
    let bools = List.init 10 (fun i -> Solver.new_bool s (string_of_int i)) in
    List.iter
      (fun v -> Solver.add_cost_group s [ ([ lit v true ], 1.0); ([ lit v false ], 2.0) ])
      bools;
    s
  in
  let hint = Array.make 10 false in
  (match Solver.solve ~node_budget:0 ~warm_starts:[ hint ] (build ()) with
  | Some sol ->
    Alcotest.(check (float 1e-9)) "hint objective served" 20.0 sol.Solver.objective;
    Alcotest.(check bool) "not optimal" false sol.Solver.optimal
  | None -> Alcotest.fail "warm start must yield an incumbent");
  match Solver.solve ~warm_starts:[ hint ] (build ()) with
  | Some sol ->
    Alcotest.(check bool) "never worse than the incumbent" true
      (sol.Solver.objective <= 20.0 +. 1e-9);
    Alcotest.(check (float 1e-9)) "full search reaches the optimum" 10.0
      sol.Solver.objective
  | None -> Alcotest.fail "satisfiable"

let infeasible_warm_start_skipped () =
  let s = Solver.create () in
  let x = Solver.new_bool s "x" in
  Solver.add_clause s [ lit x true ];
  Solver.add_cost_group s [ ([ lit x true ], 1.0); ([ lit x false ], 0.0) ];
  (* The hint contradicts the unit clause; it must be skipped, not
     crash or pollute the incumbent. *)
  match Solver.solve ~warm_starts:[ [| false |] ] s with
  | Some sol -> Alcotest.(check (float 1e-9)) "optimum unaffected" 1.0 sol.Solver.objective
  | None -> Alcotest.fail "satisfiable"

let solve_is_repeatable () =
  (* [solve] is read-only on the problem: same [t], same hints =>
     identical solutions, node counts included. *)
  let s = Solver.create () in
  let b0 = Solver.new_bool s "b0" and b1 = Solver.new_bool s "b1" in
  let a = Solver.new_num s "a" and b = Solver.new_num s "b" in
  Solver.add_sink s b;
  Solver.add_diff s ~dst:b ~src:a ~weight:1.0 ();
  Solver.add_diff s ~guard:(lit b0 true) ~dst:b ~src:a ~weight:7.0 ();
  Solver.add_span_cost s ~weight:1.0 ~last:b ~first:a;
  Solver.add_cost_group s [ ([ lit b0 true ], 0.5); ([ lit b0 false ], 3.0) ];
  Solver.add_cost_group s [ ([ lit b1 true ], 1.0); ([ lit b1 false ], 2.0) ];
  match (Solver.solve s, Solver.solve s) with
  | Some s1, Some s2 ->
    Alcotest.(check bool) "bools equal" true (s1.Solver.bools = s2.Solver.bools);
    Alcotest.(check bool) "nums equal" true (s1.Solver.nums = s2.Solver.nums);
    Alcotest.(check (float 0.0)) "objective equal" s1.Solver.objective s2.Solver.objective;
    Alcotest.(check int) "node count equal" s1.Solver.nodes s2.Solver.nodes
  | _ -> Alcotest.fail "satisfiable"

let suite =
  suite
  @ [
      ( "smt.properties",
        [
          QCheck_alcotest.to_alcotest prop_asap_satisfies_constraints;
          QCheck_alcotest.to_alcotest prop_alap_dominates_asap;
        ] );
      ( "smt.engines",
        [
          Alcotest.test_case "propagation unit chain" `Quick propagation_unit_chain;
          QCheck_alcotest.to_alcotest prop_propagation_fixpoint_equivalence;
          QCheck_alcotest.to_alcotest prop_search_matches_enumeration;
          Alcotest.test_case "conflict keeps watchers" `Quick conflict_keeps_watchers;
          Alcotest.test_case "scheduler encoding matches enumeration" `Quick
            scheduler_encoding_matches_enumeration;
          Alcotest.test_case "warm start never worse" `Quick warm_start_never_worse;
          Alcotest.test_case "infeasible warm start skipped" `Quick
            infeasible_warm_start_skipped;
          Alcotest.test_case "solve is repeatable" `Quick solve_is_repeatable;
        ] );
    ]
