(* Experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 4 for the index), plus
   Bechamel microbenchmarks of the underlying kernels.

   Usage (every flag from --list on selects one standalone mode, and
   the [modes] table below maps each to its runner and flag defaults;
   with none of them the paper's experiments run; the compile
   service's load generator is perfbench, see perfbench/README.md):
     dune exec bench/main.exe                 # all experiments, quick settings
     dune exec bench/main.exe -- --full       # paper-scale trial counts (slow)
     dune exec bench/main.exe -- --only fig5  # one experiment
     dune exec bench/main.exe -- --no-bechamel
     dune exec bench/main.exe -- --list       # available experiment ids
     dune exec bench/main.exe -- --bench-exec  # executor throughput -> BENCH_exec.json
     dune exec bench/main.exe -- --chaos-bench --seeds 20 --requests 60 --jobs 2
       (seeded service-fault campaign: corrupted frames, failing/stalling
        compiles, full-disk journal appends, kill -9 journal truncation;
        writes BENCH_chaos.json, exits 1 unless availability = 1.0 and
        recovery is corruption-free)
     dune exec bench/main.exe -- --chaos-client --socket S --mode record|verify|load
       (out-of-process client for the ci.sh crash-recovery smoke test)
     dune exec bench/main.exe -- --bench-sched --jobs 4 --repeats 5
       (the solver's one search core on the fig8/fig9 scheduling
        workloads against the frozen legacy baseline; writes
        BENCH_sched.json, exits 1 unless nodes are >= 2x below the
        frozen totals with equal-or-better objectives and
        jobs-independent schedules; --smoke runs 1 repeat)
     dune exec bench/main.exe -- --drift-bench --days 20 --seed 7
       (simulated drift campaign over the calibration data plane:
        daily workload + drift detection + Opt-3 incremental
        re-characterization + canary-gated promotion under injected
        calibration faults; sweeps --jobs 1/2/4 and writes
        BENCH_drift.json, exits 1 unless availability is 1.0, no
        epoch skips the canary, rollbacks are bit-identical, the
        incremental cost stays under 25% of a full pass, and the
        campaign digests match across jobs; --smoke shortens it)
     dune exec bench/main.exe -- --drift-drill --socket S
       (out-of-process poisoned-epoch drill for ci.sh: inject a
        truncated merge through the calibrate op and assert the gate
        rejects it with epoch and cache intact)
     dune exec bench/main.exe -- --mitig-bench --jobs 4 --seed 7
       (error-mitigation leaderboard: schedulers x {none, dd, zne,
        dd+zne} with a readout-mitigated column, over idle-heavy SWAP
        chains, Hidden Shift and QAOA parity workloads; writes
        BENCH_mitig.json, exits 1 unless DD strictly beats no-DD on
        the idle-heavy XtalkSched slice, ZNE beats the unmitigated
        aggregate, DD+ZNE is never worse than the better single
        strategy, and the cell table is bit-identical at --jobs 1/2/4;
        --smoke shrinks workloads and trials, --trials N overrides)
     dune exec bench/main.exe -- --fleet-bench
       (sharded serve tier under kill-a-shard chaos: a determinism
        matrix over shard counts x jobs, then seeded single-shard
        kill -9 drills with peer-replica rebuild, plus fault seeds
        that partition/slow the replica streams and tear the replica
        tail; writes BENCH_fleet.json, exits 1 unless the matrix is
        bit-identical, zero acknowledged schedules are lost, clean
        rebuilds are byte-identical, and availability >= 0.99;
        --smoke shrinks the matrix and seed counts)
     dune exec bench/main.exe -- --fleet-drill --socket S --shards 3
       (out-of-process drill assertion for ci.sh: poll the router's
        aggregated health until every shard is live with zero
        replication lag and a failover was recorded)
     dune exec bench/main.exe -- --bench-scale --jobs 4
       (windowed scheduler on the generated 127-qubit heavy-hex
        device, 1000+-gate supremacy circuit; writes BENCH_scale.json,
        exits 1 unless the windowed rung serves it inside the wall
        bound with jobs-identical schedules and the windowed objective
        stays within the documented factor of exact on <= 20-qubit
        control slices; --smoke shrinks the circuit and skips the
        wall gate) *)

let experiments =
  [ "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "tab1"; "scale"; "ablation" ]

(* [--name value] lookups over the command line; a missing flag takes
   its default. *)
let int_flag args name default =
  let rec find = function
    | flag :: v :: _ when flag = name -> (
      match int_of_string_opt v with
      | Some n -> n
      | None ->
        Printf.eprintf "%s expects an integer, got %s\n" name v;
        exit 2)
    | _ :: rest -> find rest
    | [] -> default
  in
  find args

let str_flag args name default =
  let rec find = function
    | flag :: v :: _ when flag = name -> v
    | _ :: rest -> find rest
    | [] -> default
  in
  find args

(* Standalone modes: the first entry whose flag is on the command line
   runs, then the harness exits.  Without any of them the paper's
   experiments run. *)
let modes args =
  let int_flag = int_flag args and str_flag = str_flag args in
  let smoke = List.mem "--smoke" args in
  [
    ("--list", fun () -> List.iter print_endline experiments);
    ("--bench-exec", Microbench.bench_exec_json);
    ( "--fleet-bench",
      fun () ->
        Exp_fleet.run ~smoke ~dir:(str_flag "--fleet-dir" "fleet-scratch")
          ~out:(str_flag "--out" "BENCH_fleet.json") );
    ( "--fleet-drill",
      fun () ->
        Exp_fleet.drill
          ~socket:(str_flag "--socket" "qcx-serve.sock")
          ~shards:(int_flag "--shards" 3)
          ~timeout:(float_of_int (int_flag "--timeout" 30)) );
    ( "--mitig-bench",
      fun () ->
        Exp_mitig.run ~smoke ~jobs:(int_flag "--jobs" 4) ~seed:(int_flag "--seed" 7)
          ~trials:(int_flag "--trials" 0)
          ~out:(str_flag "--out" "BENCH_mitig.json") );
    ( "--drift-bench",
      fun () ->
        Exp_drift.run ~days:(int_flag "--days" 20) ~seed:(int_flag "--seed" 7)
          ~dir:(str_flag "--drift-dir" "drift-scratch")
          ~out:(str_flag "--out" "BENCH_drift.json")
          ~smoke );
    ( "--drift-drill",
      fun () ->
        Exp_drift.drill
          ~socket:(str_flag "--socket" "qcx-serve.sock")
          ~device_name:(str_flag "--device" "example6q") );
    ( "--bench-scale",
      fun () ->
        Exp_scale.bench ~smoke ~jobs:(int_flag "--jobs" 4)
          ~out:(str_flag "--out" "BENCH_scale.json") );
    ( "--bench-sched",
      fun () ->
        Exp_sched.run ~smoke ~jobs:(int_flag "--jobs" 4) ~repeats:(int_flag "--repeats" 5)
          ~out:(str_flag "--out" "BENCH_sched.json") );
    ( "--chaos-bench",
      fun () ->
        Exp_chaos.run ~seeds:(int_flag "--seeds" 20) ~requests:(int_flag "--requests" 60)
          ~jobs:(int_flag "--jobs" 2)
          ~dir:(str_flag "--chaos-dir" "chaos-scratch")
          ~out:(str_flag "--out" "BENCH_chaos.json") );
    ( "--chaos-client",
      fun () ->
        Exp_chaos.client
          ~socket:(str_flag "--socket" "qcx-serve.sock")
          ~mode:(str_flag "--mode" "record")
          ~file:(str_flag "--file" "chaos-expected.json")
          ~requests:(int_flag "--requests" 24) ~seed:(int_flag "--seed" 7)
          ~min_cached:(int_flag "--min-cached" 0) );
  ]

let () =
  let args = Array.to_list Sys.argv in
  (match List.find_opt (fun (flag, _) -> List.mem flag args) (modes args) with
  | Some (_, run) ->
    run ();
    exit 0
  | None -> ());
  let quality = if List.mem "--full" args then Ctx.Full else Ctx.Quick in
  let only =
    let rec find = function
      | "--only" :: id :: _ -> Some id
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let want id = match only with None -> true | Some o -> o = id in
  (match only with
  | Some id when not (List.mem id experiments) ->
    Printf.eprintf "unknown experiment %s; use --list\n" id;
    exit 1
  | _ -> ());
  Printf.printf
    "Crosstalk mitigation on NISQ computers (ASPLOS 2020) - reproduction harness\n";
  Printf.printf "quality: %s\n" (match quality with Ctx.Quick -> "quick" | Ctx.Full -> "full");
  let t0 = Sys.time () in
  Printf.printf "characterizing the three devices (1-hop + bin-packing policy)...\n%!";
  let ctx = Ctx.create quality in
  Printf.printf "characterization done in %.1f s (CPU)\n%!" (Sys.time () -. t0);
  if want "fig3" then Exp_fig3.run ctx;
  if want "fig4" then Exp_fig4.run ctx;
  let fig5_results = if want "fig5" then Some (Exp_fig5.run ctx) else None in
  if want "fig6" then Exp_fig6.run ctx;
  if want "fig7" then Exp_fig7.run ctx fig5_results;
  if want "fig8" then Exp_fig8.run ctx;
  if want "fig9" then Exp_fig9.run ctx;
  if want "fig10" then Exp_fig10.run ctx;
  if want "tab1" then Exp_tab1.run ctx;
  if want "scale" then Exp_scale.run ctx;
  if want "ablation" then Exp_ablation.run ctx;
  if only = None && not (List.mem "--no-bechamel" args) then Microbench.run ();
  Printf.printf "\ntotal harness CPU time: %.1f s\n" (Sys.time () -. t0)
