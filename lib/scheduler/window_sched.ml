module Circuit = Qcx_circuit.Circuit
module Gate = Qcx_circuit.Gate
module Schedule = Qcx_circuit.Schedule
module Topology = Qcx_device.Topology
module Solver = Qcx_smt.Solver
module Pool = Qcx_util.Pool

type result = {
  schedule : Schedule.t;
  windows : int;
  clusters : int;
  nodes : int;
  objective : float;
  boundary_releases : int;
}

(* Union-find over gate ids, used to cluster interfering pairs that
   share gates.  The returned clusters are sorted by their smallest
   instance so the order is independent of hash-table iteration —
   the parallel cluster solve chunks over this list, and determinism
   across [jobs] needs a stable order.  (Shared with the clustered
   rung of [Xtalk_sched].) *)
let clusters_of instances =
  let parent = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None | Some None -> x
    | Some (Some p) ->
      let root = find p in
      Hashtbl.replace parent x (Some root);
      root
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra (Some rb)
  in
  List.iter
    (fun (i, j) ->
      if not (Hashtbl.mem parent i) then Hashtbl.replace parent i None;
      if not (Hashtbl.mem parent j) then Hashtbl.replace parent j None;
      union i j)
    instances;
  let groups = Hashtbl.create 4 in
  List.iter
    (fun ((i, _) as inst) ->
      let root = find i in
      Hashtbl.replace groups root (inst :: Option.value ~default:[] (Hashtbl.find_opt groups root)))
    instances;
  Hashtbl.fold (fun _ insts acc -> insts :: acc) groups []
  |> List.sort (fun a b -> compare (List.fold_left min max_int (List.map fst a), a)
                             (List.fold_left min max_int (List.map fst b), b))

(* Solve each cluster of interfering instances independently and
   return the union of boolean decisions, keyed by (gate1, gate2).
   Clusters run on the domain pool when [jobs > 1]; results merge in
   cluster order, so decisions are identical at every [jobs].  A
   cluster whose solve fails (deadline, budget) simply contributes no
   decisions — the caller's replay leaves those booleans free. *)
let solve_cluster_decisions ~jobs ~node_budget ~deadline ~build ~warm instances =
  let clusters = Array.of_list (clusters_of instances) in
  let solved =
    Pool.parallel_chunks ~jobs ~n:(Array.length clusters) (fun ~lo ~hi ->
        Array.init (hi - lo) (fun k ->
            let cluster_instances = clusters.(lo + k) in
            let enc = build ~instances:cluster_instances in
            match
              Solver.solve ~node_budget ?deadline_seconds:(deadline ())
                ~warm_starts:(warm enc) enc.Encoding.solver
            with
            | None -> (0, [])
            | Some sol ->
              ( sol.Solver.nodes,
                List.map
                  (fun p ->
                    ( (p.Encoding.gate1, p.Encoding.gate2),
                      ( sol.Solver.bools.(p.Encoding.o),
                        sol.Solver.bools.(p.Encoding.before),
                        sol.Solver.bools.(p.Encoding.after) ) ))
                  enc.Encoding.pairs )))
    |> List.concat_map Array.to_list
  in
  let nodes = List.fold_left (fun acc (n, _) -> acc + n) 0 solved in
  (Array.length clusters, nodes, List.concat_map snd solved)

(* Pin pair booleans with unit clauses.  Pairs without a decision
   (their cluster solve failed) stay free. *)
let pin_decisions enc decisions =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, d) -> Hashtbl.replace tbl k d) decisions;
  List.iter
    (fun p ->
      match Hashtbl.find_opt tbl (p.Encoding.gate1, p.Encoding.gate2) with
      | None -> ()
      | Some (o, b, a) ->
        Solver.add_clause enc.Encoding.solver [ { Solver.var = p.Encoding.o; value = o } ];
        Solver.add_clause enc.Encoding.solver [ { Solver.var = p.Encoding.before; value = b } ];
        Solver.add_clause enc.Encoding.solver [ { Solver.var = p.Encoding.after; value = a } ])
    enc.Encoding.pairs

(* ---- window partitioning ---- *)

(* Contiguous gate-id ranges covering the circuit: the prefix before
   the first measure is chunked into [window_gates]-sized windows and
   the final window absorbs the measure suffix, so the synchronized
   readout layer is always solved as one piece.  Gate ids are
   program-order-sequential by construction, and per-qubit program
   order already respects the DAG, so id-contiguous windows never cut
   a dependency backwards — every predecessor of a gate lives in the
   same or an earlier window. *)
let partition ~window_gates (problem : Encoding.problem) =
  let gates = problem.gates in
  let n = Array.length gates in
  let suffix_start =
    let rec scan i = if i >= n then n else if Gate.is_measure gates.(i) then i else scan (i + 1) in
    scan 0
  in
  let w = max 1 window_gates in
  let nwin = max 1 ((suffix_start + w - 1) / w) in
  List.init nwin (fun i ->
      let lo = i * w in
      let hi = if i = nwin - 1 then n else min suffix_start ((i + 1) * w) in
      (lo, hi))

(* Phase 1: solve one window's clusters (sequentially — phase 1 runs
   window-parallel on the pool, which must not be re-entered).
   Returns the window's encoding builder for the phase-2 replay. *)
let solve_window ~node_budget ~deadline ~omega ~device ~xtalk (w : Encoding.problem) =
  let build ~instances = Encoding.build ~device ~xtalk ~omega ~instances w in
  (* Built on first use, so a window without clusters skips it; the
     cluster solves below run sequentially, never forcing it twice at
     once. *)
  let hint_schedules =
    lazy
      (let from f = match f () with s -> [ s ] | exception _ -> [] in
       from (fun () -> Par_sched.schedule device w.circuit)
       @ from (fun () -> fst (Greedy_sched.schedule device w)))
  in
  let warm enc = Encoding.warm_hints ~schedules:(Lazy.force hint_schedules) enc in
  let nclusters, nodes, decisions =
    solve_cluster_decisions ~jobs:1 ~node_budget ~deadline ~build ~warm w.instances
  in
  (build, nclusters, nodes, decisions)

exception Stitch_failed

let schedule ~window_gates ~omega ~node_budget ~deadline ~jobs ~device ~xtalk
    (problem : Encoding.problem) =
  let circuit = problem.circuit in
  let n = Circuit.length circuit in
  if n = 0 then None
  else begin
    try
      (* Flagged-pair adjacency for the cross-window crosstalk
         frontier: which hardware edges interfere with which. *)
      let partners : (Topology.edge, Topology.edge list) Hashtbl.t = Hashtbl.create 16 in
      let note a b =
        Hashtbl.replace partners a (b :: Option.value ~default:[] (Hashtbl.find_opt partners a))
      in
      List.iter (fun (e1, e2) -> note e1 e2; note e2 e1) problem.flagged;
      let windows = Array.of_list (partition ~window_gates problem) in
      let prepared = Array.map (fun (lo, hi) -> Encoding.slice problem ~lo ~hi) windows in
      (* Phase 1: per-window cluster solves, pool-parallel across
         windows.  Results merge in window order, and window-local
         work derives nothing from the chunking, so the decisions are
         bit-identical at every [jobs]. *)
      let solved =
        Pool.parallel_chunks ~jobs ~n:(Array.length prepared) (fun ~lo ~hi ->
            Array.init (hi - lo) (fun k ->
                solve_window ~node_budget ~deadline ~omega ~device ~xtalk prepared.(lo + k)))
        |> List.concat_map Array.to_list
        |> Array.of_list
      in
      (* Phase 2: sequential stitch.  Each window is replayed with its
         phase-1 decisions pinned plus absolute release bounds carrying
         the committed frontier: per-qubit availability (dependencies
         never run backwards across the boundary) and, for CNOTs on
         flagged edges, the last finish of any committed interfering
         partner (conservatively serializing cross-window flagged pairs
         — the encoding itself only prices intra-window overlaps). *)
      let nq = Circuit.nqubits circuit in
      let frontier = Array.make nq 0.0 in
      let edge_last : (Topology.edge, float) Hashtbl.t = Hashtbl.create 64 in
      let starts = Array.make n 0.0 in
      let total_nodes = ref 0 in
      let total_clusters = ref 0 in
      let releases = ref 0 in
      Array.iteri
        (fun wi (build, nclusters, nodes, decisions) ->
          let w = prepared.(wi) and lo = fst windows.(wi) in
          total_nodes := !total_nodes + nodes;
          total_clusters := !total_clusters + nclusters;
          let enc = build ~instances:w.instances in
          pin_decisions enc decisions;
          Array.iter
            (fun (g : Gate.t) ->
              let dep =
                List.fold_left (fun acc q -> Float.max acc frontier.(q)) 0.0 g.Gate.qubits
              in
              let xrel =
                if not (Gate.is_two_qubit g) then 0.0
                else
                  List.fold_left
                    (fun acc e' ->
                      match Hashtbl.find_opt edge_last e' with
                      | Some t -> Float.max acc t
                      | None -> acc)
                    0.0
                    (Option.value ~default:[]
                       (Hashtbl.find_opt partners (Encoding.edge_of g)))
              in
              if xrel > dep then incr releases;
              let rel = Float.max dep xrel in
              if rel > 0.0 then
                Solver.add_release enc.Encoding.solver ~var:enc.Encoding.tau.(g.Gate.id)
                  ~time:rel)
            w.gates;
          match
            Solver.solve ~node_budget ?deadline_seconds:(deadline ()) enc.Encoding.solver
          with
          | None -> raise Stitch_failed
          | Some sol ->
            total_nodes := !total_nodes + sol.Solver.nodes;
            Array.iter
              (fun (g : Gate.t) ->
                let s = g.Gate.id in
                let t = sol.Solver.nums.(enc.Encoding.tau.(s)) in
                starts.(lo + s) <- t;
                let fin = t +. w.durations.(s) in
                List.iter
                  (fun q -> if fin > frontier.(q) then frontier.(q) <- fin)
                  g.Gate.qubits;
                if Gate.is_two_qubit g then begin
                  let e = Encoding.edge_of g in
                  match Hashtbl.find_opt edge_last e with
                  | Some t0 when t0 >= fin -> ()
                  | _ -> Hashtbl.replace edge_last e fin
                end)
              w.gates)
        solved;
      let sched =
        Schedule.shift_to_zero (Schedule.make circuit ~starts ~durations:problem.durations)
      in
      (match Schedule.validate sched with
      | Ok () -> ()
      | Error _ -> raise Stitch_failed);
      let objective = Evaluate.objective ~omega device ~xtalk problem sched in
      Some
        {
          schedule = sched;
          windows = Array.length prepared;
          clusters = !total_clusters;
          nodes = !total_nodes;
          objective;
          boundary_releases = !releases;
        }
    with _ -> None
  end
