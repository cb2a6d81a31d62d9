(* Bechamel microbenchmarks of the core computational kernels: one
   Test.make per reproduced table/figure's dominant kernel, so the
   cost structure of the harness itself is visible.

   fig3/fig4  -> SRB circuit generation + noisy stabilizer execution
   fig5/fig7  -> XtalkSched solve on a SWAP circuit + tomography step
   fig8/fig9  -> noisy statevector execution of a QAOA instance
   fig10      -> randomized first-fit bin packing
   tab1/scale -> ParSched ASAP pass and a supremacy-scale solve *)

open Bechamel
open Toolkit

let device = Core.Presets.poughkeepsie ()
let xtalk = Core.Device.ground_truth device

let test_tableau =
  Test.make ~name:"fig3: 40-clifford SRB layer on tableau"
    (Staged.stage (fun () ->
         let rng = Core.Rng.create 1 in
         let t = Core.Tableau.create 4 in
         for _ = 1 to 40 do
           Core.Clifford2.apply_word t (Core.Clifford2.sample rng)
         done))

let srb_pair = [ (10, 15); (11, 12) ]

let test_srb =
  Test.make ~name:"fig4: one tiny SRB experiment (m in {4,16}, 64 trials)"
    (Staged.stage (fun () ->
         let rng = Core.Rng.create 2 in
         let params = { Core.Rb.lengths = [ 4; 16 ]; seeds = 1; trials = 64 } in
         ignore (Core.Rb.run device ~rng ~params srb_pair)))

let swap_circuit =
  Core.Circuit.measure_all
    (Core.Swap_circuits.build device ~src:0 ~dst:13).Core.Swap_circuits.circuit

let test_xtalksched =
  Test.make ~name:"fig5: XtalkSched solve, SWAP path 0->13"
    (Staged.stage (fun () ->
         ignore (Core.Xtalk_sched.schedule ~omega:0.5 ~device ~xtalk swap_circuit)))

let test_tomography_exec =
  Test.make ~name:"fig7: 128-trial noisy execution of a SWAP circuit"
    (Staged.stage
       (let sched = Core.Par_sched.schedule device swap_circuit in
        fun () ->
          let rng = Core.Rng.create 3 in
          ignore (Core.Exec.run device sched ~rng ~trials:128 ~backend:Core.Exec.Stabilizer)))

let qaoa_sched =
  let rng = Core.Rng.create 4 in
  let qaoa = Core.Qaoa.build device ~rng ~region:[ 5; 10; 11; 12 ] in
  fst (Core.Xtalk_sched.schedule ~omega:0.5 ~device ~xtalk qaoa.Core.Qaoa.circuit)

let test_qaoa =
  Test.make ~name:"fig8: 256-trial noisy statevector QAOA"
    (Staged.stage (fun () ->
         let rng = Core.Rng.create 5 in
         ignore (Core.Exec.run device qaoa_sched ~rng ~trials:256 ~backend:Core.Exec.Statevector)))

let ncores = Core.Pool.default_jobs ()

let test_qaoa_jobs =
  Test.make ~name:(Printf.sprintf "fig8: 256-trial noisy statevector QAOA (jobs=%d)" ncores)
    (Staged.stage (fun () ->
         let rng = Core.Rng.create 5 in
         ignore
           (Core.Exec.run ~jobs:ncores device qaoa_sched ~rng ~trials:256
              ~backend:Core.Exec.Statevector)))

let test_binpack =
  Test.make ~name:"fig10: bin packing of 1-hop SRB pairs (32 restarts)"
    (Staged.stage (fun () ->
         let rng = Core.Rng.create 6 in
         let topo = Core.Device.topology device in
         ignore
           (Core.Binpack.pack topo ~rng ~min_separation:2 ~attempts:32
              (Core.Topology.one_hop_gate_pairs topo))))

let test_parsched =
  Test.make ~name:"tab1: ParSched on a 500-gate supremacy circuit"
    (Staged.stage
       (let rng = Core.Rng.create 7 in
        let s = Core.Supremacy.build device ~rng ~nqubits:18 ~target_gates:500 in
        fun () -> ignore (Core.Par_sched.schedule device s.Core.Supremacy.circuit)))

let all_tests =
  [
    test_tableau; test_srb; test_xtalksched; test_tomography_exec; test_qaoa; test_qaoa_jobs;
    test_binpack; test_parsched;
  ]

(* Wall-clock throughput of the sharded executor on the fig8 workload,
   recorded to BENCH_exec.json (by --bench-exec only) so speedups are
   tracked across revisions.  Bechamel measures CPU-biased ns/run; for
   a multi-domain executor wall clock is the honest metric.  One
   256-trial run takes well under a millisecond, which is timer noise,
   so each jobs value repeats runs back to back until [window] seconds
   have passed and reports the mean seconds per run. *)
let bench_exec_json () =
  let trials = 256 and window = 0.2 in
  let time_run jobs =
    let once () =
      let rng = Core.Rng.create 5 in
      ignore (Core.Exec.run ~jobs device qaoa_sched ~rng ~trials ~backend:Core.Exec.Statevector)
    in
    once ();
    once ();
    let t0 = Unix.gettimeofday () in
    let rec go runs =
      once ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt >= window then dt /. float_of_int (runs + 1) else go (runs + 1)
    in
    go 0
  in
  let jobs_list = List.sort_uniq compare [ 1; 4; ncores ] in
  let entries =
    List.map
      (fun jobs ->
        let dt = time_run jobs in
        let rate = float_of_int trials /. dt in
        Printf.printf "exec fig8 jobs=%-2d %8.3f ms/run  %10.1f trials/sec\n%!" jobs (1e3 *. dt)
          rate;
        Core.Json.Object
          [
            ("jobs", Core.Json.Number (float_of_int jobs));
            ("seconds", Core.Json.Number dt);
            ("trials_per_sec", Core.Json.Number rate);
          ])
      jobs_list
  in
  let doc =
    Core.Json.Object
      [
        ("workload", Core.Json.String "fig8: 256-trial noisy statevector QAOA");
        ("trials", Core.Json.Number (float_of_int trials));
        ("ncores", Core.Json.Number (float_of_int ncores));
        ("runs", Core.Json.Array entries);
      ]
  in
  let oc = open_out "BENCH_exec.json" in
  output_string oc (Core.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote BENCH_exec.json\n%!"

let run () =
  Core.Tablefmt.section "Bechamel microbenchmarks (one kernel per table/figure)";
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.8) ~kde:(Some 500) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "%-55s %12.1f ns/run\n" name est
        | _ -> Printf.printf "%-55s (no estimate)\n" name)
      results
  in
  List.iter benchmark all_tests
