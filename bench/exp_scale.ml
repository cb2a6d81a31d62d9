(* Section 9.4 scalability study: XtalkSched compile time on
   quantum-supremacy-style random circuits, 6-18 qubits, 100-1000
   gates.  The paper reports < 2 minutes for 18 qubits / 500 gates and
   < 15 minutes for 1000 gates; with the cluster decomposition our
   solver should stay well inside both.

   [bench] is the standalone `--bench-scale` harness: it compiles a
   1000+-gate supremacy circuit on the generated 127-qubit heavy-hex
   device through the windowed rung, gates wall time, jobs-determinism
   and schedule validity, checks the windowed objective against the
   exact solver on <= 20-qubit control slices, and writes
   BENCH_scale.json (exit 1 on any failed gate). *)

let instances (ctx : Ctx.t) =
  match ctx.Ctx.quality with
  | Ctx.Quick -> [ (6, 100); (10, 250); (14, 500); (18, 500); (18, 1000) ]
  | Ctx.Full -> [ (6, 100); (8, 150); (10, 250); (12, 350); (14, 500); (16, 750); (18, 1000) ]

let compile_row table device xtalk rng (nqubits, target_gates) =
  let bench = Core.Supremacy.build device ~rng ~nqubits ~target_gates in
  (* Wall clock, not [Sys.time]: the pool-parallel rungs spread work
     over domains, so CPU seconds overstate the latency a user sees
     (and under a deadline it is wall time that matters).  Both are
     reported; the stats carry the CPU figure. *)
  let t0 = Unix.gettimeofday () in
  let _, stats =
    Core.Xtalk_sched.schedule ~omega:0.5 ~node_budget:200_000 ~device ~xtalk
      bench.Core.Supremacy.circuit
  in
  let wall = Unix.gettimeofday () -. t0 in
  Core.Tablefmt.add_row table
    [
      Core.Device.name device;
      string_of_int nqubits;
      string_of_int (Core.Circuit.length bench.Core.Supremacy.circuit);
      string_of_int stats.Core.Xtalk_sched.pairs;
      string_of_int stats.Core.Xtalk_sched.clusters;
      string_of_int stats.Core.Xtalk_sched.nodes;
      Core.Xtalk_sched.rung_name stats.Core.Xtalk_sched.rung;
      Printf.sprintf "%.2f" wall;
      Printf.sprintf "%.2f" stats.Core.Xtalk_sched.cpu_seconds;
    ]

let run (ctx : Ctx.t) =
  Core.Tablefmt.section "Section 9.4: scheduler scalability (supremacy circuits)";
  let device, xtalk = Ctx.poughkeepsie ctx in
  let rng = Ctx.rng_for "scale" in
  let table =
    Core.Tablefmt.create
      [
        "device"; "qubits"; "gates"; "interfering pairs"; "clusters"; "nodes"; "rung";
        "wall (s)"; "cpu (s)";
      ]
  in
  List.iter (compile_row table device xtalk rng) (instances ctx);
  (* Beyond the paper: a synthetic 36-qubit grid with random crosstalk
     (ground truth used directly; characterizing a 6x6 grid is the
     expensive part on real hardware, not the compile), and the
     127-qubit heavy-hex preset through the windowed rung. *)
  let big = Core.Presets.grid ~rows:6 ~cols:6 () in
  let big_xtalk = Core.Device.ground_truth big in
  List.iter (compile_row table big big_xtalk rng) [ (24, 600); (36, 1000) ];
  let hh = Core.Presets.heavy_hex_127 () in
  let hh_xtalk = Core.Device.ground_truth hh in
  List.iter (compile_row table hh hh_xtalk rng) [ (127, 1000) ];
  Core.Tablefmt.print table;
  Printf.printf "\npaper (with Z3): < 2 min at 18 qubits/500 gates, < 15 min at 1000 gates\n"

(* ---- the --bench-scale harness ---- *)

(* Documented quality gate: on control slices small enough for the
   exact solver, the windowed objective must stay within this factor
   of the exact objective (DESIGN.md section 11). *)
let quality_factor = 2.5

(* Full-run wall bound for the 127-qubit compile, per jobs setting.
   "Minutes, not hours": generous enough for CI machines, tight enough
   to catch a quadratic regression. *)
let wall_bound = 240.0

let fingerprint sched =
  List.map
    (fun g ->
      ( g.Core.Gate.id,
        Core.Schedule.start sched g.Core.Gate.id,
        Core.Schedule.duration sched g.Core.Gate.id ))
    (Core.Circuit.gates (Core.Schedule.circuit sched))

let bench ~smoke ~jobs ~out =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let device = Core.Presets.heavy_hex_127 () in
  let xtalk = Core.Device.ground_truth device in
  let target_gates = if smoke then 500 else 1100 in
  let bench_circ =
    Core.Supremacy.build device ~rng:(Core.Rng.create 0x5CA1E) ~nqubits:127 ~target_gates
  in
  let circuit = bench_circ.Core.Supremacy.circuit in
  let jobs_list = List.sort_uniq compare (if smoke then [ 1; jobs ] else [ 1; 2; jobs ]) in
  Printf.printf "scale benchmark (%s): %s, %d gates, jobs %s\n%!"
    (if smoke then "smoke" else "full")
    (Core.Device.name device) (Core.Circuit.length circuit)
    (String.concat "/" (List.map string_of_int jobs_list));
  let baseline = ref None in
  let rows =
    List.map
      (fun j ->
        let t0 = Unix.gettimeofday () in
        let sched, stats = Core.Xtalk_sched.schedule ~omega:0.5 ~jobs:j ~device ~xtalk circuit in
        let wall = Unix.gettimeofday () -. t0 in
        let rung = Core.Xtalk_sched.rung_name stats.Core.Xtalk_sched.rung in
        Printf.printf
          "  jobs %d: rung %s, %d windows, %d clusters, %d nodes, %.1f s wall (%.1f s cpu)\n%!"
          j rung stats.Core.Xtalk_sched.windows stats.Core.Xtalk_sched.clusters
          stats.Core.Xtalk_sched.nodes wall stats.Core.Xtalk_sched.cpu_seconds;
        if rung <> "windowed" then
          fail "jobs %d: expected the windowed rung, got %s" j rung;
        if stats.Core.Xtalk_sched.windows < 2 then
          fail "jobs %d: expected >= 2 windows, got %d" j stats.Core.Xtalk_sched.windows;
        (match Core.Schedule.validate sched with
        | Ok () -> ()
        | Error e -> fail "jobs %d: invalid schedule: %s" j e);
        if (not smoke) && wall > wall_bound then
          fail "jobs %d: wall %.1f s over the %.0f s bound" j wall wall_bound;
        let fp = fingerprint sched in
        (match !baseline with
        | None -> baseline := Some fp
        | Some fp0 ->
          if fp <> fp0 then fail "schedule differs between --jobs 1 and --jobs %d" j);
        Core.Json.Object
          [
            ("jobs", Core.Json.Number (float_of_int j));
            ("rung", Core.Json.String rung);
            ("windows", Core.Json.Number (float_of_int stats.Core.Xtalk_sched.windows));
            ("clusters", Core.Json.Number (float_of_int stats.Core.Xtalk_sched.clusters));
            ("nodes", Core.Json.Number (float_of_int stats.Core.Xtalk_sched.nodes));
            ("wall_seconds", Core.Json.Number wall);
            ("cpu_seconds", Core.Json.Number stats.Core.Xtalk_sched.cpu_seconds);
            ("objective", Core.Json.Number stats.Core.Xtalk_sched.objective);
          ])
      jobs_list
  in
  (* Quality gate: on <= 20-qubit control slices the exact solver is
     tractable; forcing the windowed rung with a small window on the
     same workloads bounds the cost of window stitching. *)
  let control_device = Core.Presets.poughkeepsie () in
  let control_xtalk = Core.Device.ground_truth control_device in
  let controls =
    let regions = Core.Presets.qaoa_regions control_device in
    List.map
      (fun region ->
        let qaoa =
          Core.Qaoa.build control_device
            ~rng:(Core.Rng.create (Hashtbl.hash ("scale-controls", region)))
            ~region
        in
        ( Printf.sprintf "qaoa[%s]" (String.concat ";" (List.map string_of_int region)),
          qaoa.Core.Qaoa.circuit ))
      regions
    @ [
        (let s =
           Core.Supremacy.build control_device
             ~rng:(Core.Rng.create 0x5CA1E) ~nqubits:14 ~target_gates:120
         in
         ("supremacy14", s.Core.Supremacy.circuit));
      ]
  in
  let control_rows =
    List.map
      (fun (name, c) ->
        let problem =
          Core.Encoding.prepare ~device:control_device ~xtalk:control_xtalk ~threshold:3.0 c
        in
        let objective_of =
          Core.Evaluate.objective ~omega:0.5 control_device ~xtalk:control_xtalk problem
        in
        let exact_sched, exact_stats =
          Core.Xtalk_sched.schedule ~omega:0.5 ~max_exact_pairs:1000 ~device:control_device
            ~xtalk:control_xtalk c
        in
        let win_sched, win_stats =
          Core.Xtalk_sched.schedule ~omega:0.5 ~ladder_start:Core.Xtalk_sched.Windowed
            ~window_gates:24 ~device:control_device ~xtalk:control_xtalk c
        in
        let oe = objective_of exact_sched and ow = objective_of win_sched in
        let exact_rung = Core.Xtalk_sched.rung_name exact_stats.Core.Xtalk_sched.rung in
        let win_rung = Core.Xtalk_sched.rung_name win_stats.Core.Xtalk_sched.rung in
        Printf.printf "  control %-16s exact %.6f (%s) | windowed %.6f (%s) | ratio %.2f\n%!"
          name oe exact_rung ow win_rung
          (ow /. Float.max 1e-12 oe);
        if exact_rung <> "exact" then
          fail "control %s: exact compile served from rung %s" name exact_rung;
        if win_rung <> "windowed" then
          fail "control %s: windowed compile served from rung %s" name win_rung;
        if ow > (oe *. quality_factor) +. 1e-6 then
          fail "control %s: windowed objective %.6f exceeds %.1fx exact %.6f" name ow
            quality_factor oe;
        Core.Json.Object
          [
            ("workload", Core.Json.String name);
            ("exact_objective", Core.Json.Number oe);
            ("windowed_objective", Core.Json.Number ow);
            ("ratio", Core.Json.Number (ow /. Float.max 1e-12 oe));
          ])
      controls
  in
  let doc =
    Core.Json.Object
      [
        ("bench", Core.Json.String "scale: windowed scheduler on generated large devices");
        ("device", Core.Json.String (Core.Device.name device));
        ("smoke", Core.Json.Bool smoke);
        ("gates", Core.Json.Number (float_of_int (Core.Circuit.length circuit)));
        ( "jobs_checked",
          Core.Json.Array (List.map (fun j -> Core.Json.Number (float_of_int j)) jobs_list) );
        ("wall_bound_seconds", Core.Json.Number wall_bound);
        ("quality_factor", Core.Json.Number quality_factor);
        ("compiles", Core.Json.Array rows);
        ("controls", Core.Json.Array control_rows);
        ("failures", Core.Json.Array (List.rev_map (fun m -> Core.Json.String m) !failures));
      ]
  in
  let oc = open_out out in
  output_string oc (Core.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  if !failures <> [] then begin
    List.iter (fun m -> Printf.eprintf "FAIL: %s\n" m) (List.rev !failures);
    exit 1
  end
