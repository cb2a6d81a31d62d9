module Circuit = Qcx_circuit.Circuit
module Dag = Qcx_circuit.Dag
module Schedule = Qcx_circuit.Schedule
module Solver = Qcx_smt.Solver
module Pool = Qcx_util.Pool

type rung = Exact | Incumbent | Clustered | Windowed | Greedy | Parallel

let rung_name = function
  | Exact -> "exact"
  | Incumbent -> "incumbent"
  | Clustered -> "clustered"
  | Windowed -> "windowed"
  | Greedy -> "greedy"
  | Parallel -> "parallel"

let all_rungs = [ Exact; Incumbent; Clustered; Windowed; Greedy; Parallel ]

type stats = {
  pairs : int;
  clusters : int;
  windows : int;
  nodes : int;
  optimal : bool;
  objective : float;
  solve_seconds : float;
  cpu_seconds : float;
  idle_total : float;
  idle_max : float;
  rung : rung;
}

let extract_schedule circuit durations encoding (solution : Solver.solution) =
  let starts =
    Array.init (Circuit.length circuit) (fun id -> solution.nums.(encoding.Encoding.tau.(id)))
  in
  Schedule.shift_to_zero (Schedule.make circuit ~starts ~durations)

(* The core scheduler over an already-SWAP-decomposed circuit, with
   optionally precomputed DAG/durations/instances ([tune_omega] shares
   one preparation across every omega candidate). *)
let schedule_decomposed ~omega ~threshold ~node_budget ~max_exact_pairs ~deadline_seconds
    ~ladder_start ~window_gates ~jobs ~device ~xtalk ~prep circuit =
  if omega >= 1.0 then begin
    (* omega = 1 ignores decoherence entirely; any serialization is
       then optimal and the paper equates this setting with
       SerialSched (Table 1, Sections 9.2/9.3). *)
    let sched = Serial_sched.schedule device circuit in
    let instances =
      match prep with
      | Some (_, _, instances) -> instances
      | None ->
        let dag = Dag.of_circuit circuit in
        Encoding.interfering_instances ~device ~xtalk ~threshold ~dag
    in
    let idle_total, idle_max = Idle.summarize sched in
    ( sched,
      {
        pairs = List.length instances;
        clusters = 1;
        windows = 0;
        nodes = 0;
        optimal = true;
        objective = nan;
        solve_seconds = 0.0;
        cpu_seconds = 0.0;
        idle_total;
        idle_max;
        rung = Exact;
      } )
  end
  else begin
  let t0 = Sys.time () in
  let wall0 = Unix.gettimeofday () in
  (* Remaining share of the compile deadline; every solver call below
     gets it, so a blowup in one rung cannot eat the whole budget of
     the rungs after it. *)
  let remaining () =
    match deadline_seconds with
    | None -> None
    | Some d -> Some (max 0.0 (d -. (Unix.gettimeofday () -. wall0)))
  in
  (* Degradation ladder (never fail a compile): each rung catches its
     own failure — deadline expiry, budget exhaustion, unsat, even an
     exception — and falls through to the next-cheaper scheduler.
     ParSched, the last rung, is deterministic list scheduling with
     nothing left to time out. *)
  let finish ~pairs (sched, nodes, optimal, objective, nclusters, nwindows, rung) =
    let idle_total, idle_max = Idle.summarize sched in
    ( sched,
      {
        pairs;
        clusters = nclusters;
        windows = nwindows;
        nodes;
        optimal;
        objective;
        solve_seconds = Unix.gettimeofday () -. wall0;
        cpu_seconds = Sys.time () -. t0;
        idle_total;
        idle_max;
        rung;
      } )
  in
  let parallel_rung () = (Par_sched.schedule device circuit, 0, false, nan, 0, 0, Parallel) in
  let greedy_rung () =
    match Greedy_sched.schedule ~threshold ~device ~xtalk circuit with
    | sched, _serialized -> (sched, 0, false, nan, 0, 0, Greedy)
    | exception _ -> parallel_rung ()
  in
  let windowed_rung () =
    match
      Window_sched.schedule ~window_gates ~omega ~threshold ~node_budget
        ~deadline:remaining ~jobs ~device ~xtalk circuit
    with
    | Some r ->
      ( r.Window_sched.schedule,
        r.Window_sched.nodes,
        false,
        r.Window_sched.objective,
        r.Window_sched.clusters,
        r.Window_sched.windows,
        Windowed )
    | None -> greedy_rung ()
    | exception _ -> greedy_rung ()
  in
  match
    let dag, durations, instances =
      match prep with
      | Some p -> p
      | None ->
        let durations = Durations.assign device circuit in
        let dag = Dag.of_circuit circuit in
        let instances = Encoding.interfering_instances ~device ~xtalk ~threshold ~dag in
        (dag, durations, instances)
    in
    let build ?instances () =
      Encoding.build ?instances ~device ~xtalk ~omega ~threshold ~dag ~durations ()
    in
    (* Cheap list schedules whose pair decisions seed the solver's
       incumbent; built on first use only. *)
    let hint_schedules =
      lazy
        (let from f = match f () with s -> [ s ] | exception _ -> [] in
         from (fun () -> Par_sched.schedule device circuit)
         @ from (fun () -> fst (Greedy_sched.schedule ~threshold ~device ~xtalk circuit)))
    in
    let warm_starts enc = Encoding.warm_hints ~schedules:(Lazy.force hint_schedules) enc in
    let solve ?(warm = true) enc =
      Solver.solve ~node_budget ?deadline_seconds:(remaining ())
        ~warm_starts:(if warm then warm_starts enc else [])
        enc.Encoding.solver
    in
    let cluster_rung () =
      (* Past a couple of windows' worth of gates the monolithic
         decision replay (full encoding, powerset cost groups over the
         whole circuit) is itself the bottleneck — hand over to the
         windowed rung, which replays window by window. *)
      if Circuit.length circuit > 2 * window_gates then windowed_rung ()
      else
        match
          (* Cluster decomposition: optimize each connected component of
             interfering pairs separately — concurrently on the domain
             pool when [jobs > 1]; clusters are independent problems and
             the merge is by cluster index, so the result is identical at
             every [jobs] — then evaluate the union of decisions once
             (zero remaining booleans). *)
          (* Force the shared hint schedules before fanning out: a lazy
             must not be forced concurrently from several domains. *)
          ignore (Lazy.force hint_schedules);
          let nclusters, cluster_nodes, decisions =
            Window_sched.solve_cluster_decisions ~jobs ~node_budget
              ~deadline:remaining
              ~build:(fun ~instances -> build ~instances ())
              ~warm:warm_starts instances
          in
          let enc = build ~instances () in
          (* Pin every boolean with unit clauses; a single propagation
             then reaches the unique leaf.  Pairs whose cluster timed out
             without an incumbent stay free, so give the replay solve its
             own deadline share too. *)
          Window_sched.pin_decisions enc decisions;
          match solve ~warm:false enc with
          | Some sol ->
            Some
              ( extract_schedule circuit durations enc sol,
                cluster_nodes + sol.nodes,
                false,
                sol.objective,
                nclusters,
                0,
                Clustered )
          | None -> None
        with
        | Some r -> r
        | None -> windowed_rung ()
        | exception _ -> windowed_rung ()
    in
    let exact_rung () =
      (* The length check mirrors cluster_rung's: even with few
         interfering pairs, a monolithic encoding of a thousands-of-
         gates circuit is the bottleneck — window it instead. *)
      if List.length instances > max_exact_pairs || Circuit.length circuit > 2 * window_gates
      then cluster_rung ()
      else begin
        match
          let enc = build ~instances () in
          solve enc |> Option.map (fun sol -> (enc, sol))
        with
        | Some (enc, sol) ->
          let rung = if sol.Solver.optimal then Exact else Incumbent in
          ( extract_schedule circuit durations enc sol,
            sol.nodes,
            sol.optimal,
            sol.objective,
            1,
            0,
            rung )
        | None -> cluster_rung ()
        | exception _ -> cluster_rung ()
      end
    in
    let result =
      match ladder_start with
      | Exact | Incumbent -> exact_rung ()
      | Clustered -> cluster_rung ()
      | Windowed -> windowed_rung ()
      | Greedy -> greedy_rung ()
      | Parallel -> parallel_rung ()
    in
    (result, List.length instances)
  with
  | result, pairs -> finish ~pairs result
  | exception _ ->
    (* Even building the encoding failed (malformed crosstalk data,
       pathological DAG): serve the parallel schedule rather than
       failing the compile. *)
    finish ~pairs:0 (parallel_rung ())
  end

let schedule ?(omega = 0.5) ?(threshold = 3.0) ?(node_budget = 2_000_000)
    ?(max_exact_pairs = 14) ?deadline_seconds ?(ladder_start = Exact)
    ?(window_gates = 160) ?(jobs = 1) ~device ~xtalk circuit =
  let circuit = Circuit.decompose_swaps circuit in
  schedule_decomposed ~omega ~threshold ~node_budget ~max_exact_pairs ~deadline_seconds
    ~ladder_start ~window_gates ~jobs ~device ~xtalk ~prep:None circuit

let tune_omega ?(candidates = [ 0.0; 0.05; 0.2; 0.5; 0.8; 1.0 ]) ?(threshold = 3.0)
    ?(jobs = 1) ~device ~xtalk circuit =
  if candidates = [] then invalid_arg "Xtalk_sched.tune_omega: no candidates";
  let circuit = Circuit.decompose_swaps circuit in
  (* One DAG/durations/instances preparation shared by every omega
     candidate (the interfering-pair enumeration does not depend on
     omega).  If preparation fails, each candidate's ladder handles it
     on its own. *)
  let prep =
    try
      let durations = Durations.assign device circuit in
      let dag = Dag.of_circuit circuit in
      Some (dag, durations, Encoding.interfering_instances ~device ~xtalk ~threshold ~dag)
    with _ -> None
  in
  let arr = Array.of_list candidates in
  let scored =
    Pool.parallel_chunks ~jobs ~n:(Array.length arr) (fun ~lo ~hi ->
        Array.init (hi - lo) (fun k ->
            let omega = arr.(lo + k) in
            (* Candidates already run concurrently, so each schedules
               sequentially — the pool must not be re-entered from a
               worker domain. *)
            let sched, stats =
              schedule_decomposed ~omega ~threshold ~node_budget:2_000_000
                ~max_exact_pairs:14 ~deadline_seconds:None ~ladder_start:Exact
                ~window_gates:160 ~jobs:1 ~device ~xtalk ~prep circuit
            in
            let err = (Evaluate.model device ~xtalk sched).Evaluate.error in
            (err, (omega, sched, stats))))
    |> List.concat_map Array.to_list
  in
  let best =
    List.fold_left
      (fun acc candidate -> if fst candidate < fst acc then candidate else acc)
      (List.hd scored) (List.tl scored)
  in
  snd best
