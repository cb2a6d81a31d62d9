(* CLI: compile a workload with one of the three schedulers and show
   the result.

     dune exec bin/qcx_schedule.exe -- --src 0 --dst 13 --scheduler xtalk --omega 0.5

   The crosstalk data comes from a quick characterization pass (the
   honest pipeline), or from the device's ground truth with
   --oracle-xtalk (for experimentation). *)

open Cmdliner

let scheduler_term =
  let doc = "Scheduler: par | serial | xtalk." in
  Arg.(value & opt string "xtalk" & info [ "s"; "scheduler" ] ~docv:"ALGO" ~doc)

let omega_term =
  let doc = "Crosstalk weight factor (xtalk scheduler only)." in
  Arg.(value & opt float 0.5 & info [ "omega" ] ~docv:"W" ~doc)

let src_term = Arg.(value & opt int 0 & info [ "src" ] ~docv:"QUBIT" ~doc:"SWAP path source.")
let dst_term = Arg.(value & opt int 13 & info [ "dst" ] ~docv:"QUBIT" ~doc:"SWAP path target.")

let xtalk_file_term =
  let doc = "Load characterized conditional rates from FILE (JSON, as written by qcx_characterize --output) instead of characterizing." in
  Arg.(value & opt (some string) None & info [ "xtalk" ] ~docv:"FILE" ~doc)

let oracle_term =
  let doc = "Use ground-truth crosstalk instead of running characterization." in
  Arg.(value & flag & info [ "oracle-xtalk" ] ~doc)

let emit_qasm_term =
  let doc = "Print the barrier-enforced OpenQASM output." in
  Arg.(value & flag & info [ "qasm" ] ~doc)

let deadline_term =
  let doc =
    "Wall-clock compile deadline in seconds; on expiry the degradation ladder serves \
     the request (best incumbent, clusters, greedy, parallel)."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let ladder_term =
  let doc =
    "Degradation-ladder entry rung (xtalk scheduler only): exact | incumbent | clustered \
     | windowed | greedy | parallel.  Lower rungs skip the more expensive solves; \
     'windowed' forces the hierarchical window scheduler regardless of circuit size."
  in
  Arg.(value & opt (some string) None & info [ "ladder" ] ~docv:"RUNG" ~doc)

let window_term =
  let doc =
    "Window size in gates for the windowed rung (xtalk scheduler only).  Circuits \
     longer than twice this bound are windowed automatically; default 160."
  in
  Arg.(value & opt (some int) None & info [ "window" ] ~docv:"GATES" ~doc)

let dd_term =
  let doc =
    "Pad the schedule's idle windows with a dynamical-decoupling pulse train after \
     scheduling: xy4 | x2 | cpmg.  Original gate start times are untouched; with \
     --cache-dir the padding runs inside the serving layer and becomes part of the \
     cache key."
  in
  Arg.(value & opt (some string) None & info [ "dd" ] ~docv:"SEQ" ~doc)

let cache_dir_term =
  let doc =
    "Persist the content-addressed schedule cache in DIR (xtalk scheduler only): \
     repeated compiles of the same circuit, crosstalk epoch and knobs are served \
     from DIR/schedule-cache.json instead of re-solving; cache and registry stats \
     are printed after the compile."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

(* Compile through the serving layer's persisted cache: recover
   DIR/schedule-cache.json and its journal, serve or solve, checkpoint,
   and report the cache/registry counters. *)
let compile_cached ~dir device ~xtalk ~omega ~deadline ~ladder_start ~window ~mitigation
    circuit =
  let registry = Core.Registry.create () in
  let id = Core.Device.name device in
  ignore (Core.Registry.add_static registry ~id ~device ~xtalk);
  let service = Core.Service.create registry in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let cache_path = Filename.concat dir "schedule-cache.json" in
  let existed = Sys.file_exists cache_path in
  (match Core.Service.recover service ~cache_file:cache_path () with
  | Ok r ->
    if existed then
      Printf.printf "cache: warm-started %d entries from %s\n"
        (r.Core.Service.snapshot_entries + r.Core.Service.journal_entries)
        cache_path;
    if r.Core.Service.snapshot_dropped > 0 then
      Printf.printf "cache: dropped %d damaged line(s) of %s\n" r.Core.Service.snapshot_dropped
        cache_path
  | Error e -> Printf.printf "cache: not persisting to %s: %s\n" cache_path e);
  let params =
    let base =
      { Core.Wire.default_params with Core.Wire.omega; deadline; window; mitigation }
    in
    match ladder_start with
    | None -> base
    | Some rung -> { base with Core.Wire.ladder_start = rung }
  in
  match Core.Service.compile service ~device:id ~params circuit with
  | Error e ->
    Printf.eprintf "compile failed: %s\n" e;
    exit 1
  | Ok o ->
    (match Core.Service.checkpoint service with
    | Ok () -> ()
    | Error e -> Printf.eprintf "cache: failed to persist %s: %s\n" cache_path e);
    let c = Core.Cache.counters (Core.Service.cache service) in
    Printf.printf "cache: %s (key %s..., epoch %s...)\n"
      (if o.Core.Service.cached then "HIT" else "miss -> compiled and stored")
      (String.sub o.Core.Service.key 0 12)
      (String.sub o.Core.Service.epoch 0 12);
    Printf.printf "cache: hits %d, misses %d, evictions %d, size %d/%d\n" c.Core.Cache.hits
      c.Core.Cache.misses c.Core.Cache.evictions c.Core.Cache.size c.Core.Cache.capacity;
    (o.Core.Service.schedule, Some o.Core.Service.stats)

let run device seed jobs src dst scheduler omega oracle xtalk_file deadline ladder window
    dd cache_dir emit_qasm =
  let ladder_start =
    match ladder with
    | None -> None
    | Some name -> (
      match Core.Wire.rung_of_name name with
      | Ok rung -> Some rung
      | Error e ->
        Printf.eprintf "--ladder: %s\n" e;
        exit 2)
  in
  let dd_sequence =
    match dd with
    | None -> None
    | Some name -> (
      match Core.Dd.sequence_of_name name with
      | Ok seq -> Some seq
      | Error e ->
        Printf.eprintf "--dd: %s\n" e;
        exit 2)
  in
  let rng = Core.Rng.create seed in
  let bench = Core.Swap_circuits.build device ~src ~dst in
  let circuit = Core.Circuit.measure_all bench.Core.Swap_circuits.circuit in
  let xtalk =
    match xtalk_file with
    | Some path -> (
      match Core.Store.load_crosstalk ~topology:(Core.Device.topology device) ~path () with
      | Ok x ->
        Printf.printf "loaded crosstalk data from %s\n" path;
        x
      | Error e ->
        Printf.eprintf "failed to load %s: %s\n" path e;
        exit 1)
    | None ->
      if oracle then Core.Device.ground_truth device
      else begin
        Printf.printf "characterizing (1-hop + bin-packing)...\n%!";
        Common.characterize device ~rng ~jobs ~params:Core.Rb.default_params
      end
  in
  let sched_kind =
    match scheduler with
    | "par" -> Core.Par_sched
    | "serial" -> Core.Serial_sched
    | "xtalk" -> Core.Xtalk_sched omega
    | other ->
      Printf.eprintf "unknown scheduler %s\n" other;
      exit 2
  in
  let sched, stats =
    match (cache_dir, sched_kind) with
    | Some dir, Core.Xtalk_sched omega ->
      compile_cached ~dir device ~xtalk ~omega ~deadline ~ladder_start ~window
        ~mitigation:dd_sequence circuit
    | _ ->
      let sched, stats =
        if cache_dir <> None then
          Printf.printf "cache: only the xtalk scheduler is cached; compiling directly\n";
        Core.Pipeline.compile ~scheduler:sched_kind ?deadline_seconds:deadline ?ladder_start
          ?window_gates:window ~jobs device ~xtalk circuit
      in
      (match dd_sequence with
      | None -> (sched, stats)
      | Some sequence ->
        let padded, _protection, d = Core.Dd.pad ~sequence ~device sched in
        Printf.printf "dd: %s padded %d/%d idle windows with %d pulses (%.0f of %.0f ns idle)\n"
          (Core.Dd.sequence_name sequence) d.Core.Dd.windows_padded d.Core.Dd.windows_total
          d.Core.Dd.pulses d.Core.Dd.idle_protected d.Core.Dd.idle_total;
        (padded, stats))
  in
  Printf.printf "device: %s\n" (Core.Device.name device);
  Printf.printf "workload: SWAP path %d -> %d (%d gates, %d CNOTs)\n" src dst
    (Core.Circuit.length (Core.Schedule.circuit sched))
    (Core.Circuit.two_qubit_count (Core.Schedule.circuit sched));
  Printf.printf "scheduler: %s\n" (Core.scheduler_name sched_kind);
  (match stats with
  | Some s ->
    Printf.printf
      "solver: %d interfering pairs, %d nodes, optimal=%b, rung=%s%s, %.3f s wall (%.3f s cpu)\n"
      s.Core.Xtalk_sched.pairs s.Core.Xtalk_sched.nodes s.Core.Xtalk_sched.optimal
      (Core.Xtalk_sched.rung_name s.Core.Xtalk_sched.rung)
      (if s.Core.Xtalk_sched.windows > 0 then
         Printf.sprintf " (%d windows)" s.Core.Xtalk_sched.windows
       else "")
      s.Core.Xtalk_sched.solve_seconds s.Core.Xtalk_sched.cpu_seconds;
    Printf.printf "idle: %.0f ns total across qubits (longest window %.0f ns)\n"
      s.Core.Xtalk_sched.idle_total s.Core.Xtalk_sched.idle_max
  | None ->
    let idle_total, idle_max = Core.Idle.summarize sched in
    Printf.printf "idle: %.0f ns total across qubits (longest window %.0f ns)\n" idle_total
      idle_max);
  Printf.printf "program duration: %.0f ns\n" (Core.Evaluate.duration sched);
  let oracle_view = Core.Evaluate.oracle device sched in
  Printf.printf "oracle expected error: %.4f\n" oracle_view.Core.Evaluate.error;
  Format.printf "%a@?" Core.Schedule.pp_timeline sched;
  if emit_qasm then begin
    let instances =
      (Core.Encoding.prepare ~device ~xtalk ~threshold:3.0 (Core.Schedule.circuit sched))
        .Core.Encoding.instances
    in
    let serialized = Core.Barriers.serialized_pairs sched ~pairs:instances in
    print_string (Core.Qasm.of_circuit (Core.Barriers.insert sched ~serialized))
  end

let cmd =
  let info = Cmd.info "qcx_schedule" ~doc:"Compile a SWAP workload with a chosen scheduler" in
  Cmd.v info
    Term.(
      const run $ Common.device_term $ Common.seed_term $ Common.jobs_term $ src_term $ dst_term
      $ scheduler_term $ omega_term $ oracle_term $ xtalk_file_term $ deadline_term
      $ ladder_term $ window_term $ dd_term $ cache_dir_term $ emit_qasm_term)

let () = exit (Cmd.eval cmd)
