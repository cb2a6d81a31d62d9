(* CLI: run crosstalk characterization on a simulated device.

     dune exec bin/qcx_characterize.exe -- --device poughkeepsie --policy binpacked

   Prints the plan (experiments, machine-time estimate under the
   paper's cost model) and the measured high-crosstalk pairs. *)

open Cmdliner

let output_term =
  let doc = "Write the characterized conditional rates to FILE (JSON)." in
  Cmdliner.Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let policy_term =
  let doc = "Characterization policy: all-pairs | one-hop | binpacked | high-only." in
  Arg.(value & opt string "binpacked" & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

let resilient_term =
  let doc =
    "Run the fault-tolerant characterization front end (per-experiment timeout/retry, \
     fit validation, stale-data fallback) and report per-pair freshness."
  in
  Arg.(value & flag & info [ "resilient" ] ~doc)

let fault_seed_term =
  let doc =
    "Inject faults from the deterministic plan seeded with N (implies --resilient)."
  in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"N" ~doc)

let fault_day_term =
  let doc = "Campaign day the fault plan is evaluated at (with --fault-seed)." in
  Arg.(value & opt int 0 & info [ "fault-day" ] ~docv:"D" ~doc)

let previous_term =
  let doc =
    "Previous characterization snapshot (JSON) used as the stale-data fallback when an \
     experiment stays broken (with --resilient)."
  in
  Arg.(value & opt (some string) None & info [ "previous" ] ~docv:"FILE" ~doc)

let incremental_term =
  let doc =
    "Opt-3 incremental re-characterization: re-measure only the pairs FILE (a previous \
     snapshot) flags as high-crosstalk and merge the fresh rates into it — the same code \
     path the serving layer's calibrator runs.  Falls back to a full pass when the \
     snapshot flags nothing."
  in
  Arg.(value & opt (some string) None & info [ "incremental" ] ~docv:"FILE" ~doc)

let load_snapshot device path =
  match Core.Store.load_crosstalk ~topology:(Core.Device.topology device) ~path () with
  | Ok x -> x
  | Error e ->
    Printf.eprintf "failed to load snapshot %s: %s\n" path e;
    exit 1

let run_incremental device seed jobs threshold fault_seed fault_day path output =
  let rng = Core.Rng.create seed in
  let previous = load_snapshot device path in
  let inject =
    Option.map
      (fun s -> Core.Fault_plan.inject (Core.Fault_plan.create ~seed:s) ~day:fault_day)
      fault_seed
  in
  let inc =
    Core.Policy.characterize_incremental ~jobs ~threshold ?inject ~rng device ~previous
  in
  Printf.printf "device: %s\n" (Core.Device.name device);
  Printf.printf "mode: %s (%d pair(s) flagged by %s)\n"
    (Core.Policy.incremental_mode_name inc.Core.Policy.mode)
    (List.length inc.Core.Policy.flagged)
    path;
  List.iter
    (fun ((t1, t2), (s1, s2)) -> Printf.printf "  CX%d,%d | CX%d,%d\n" t1 t2 s1 s2)
    inc.Core.Policy.flagged;
  Printf.printf "executions: %d (a full pass costs %d — %.1f%%)\n"
    inc.Core.Policy.run_executions inc.Core.Policy.full_executions
    (100.0 *. inc.Core.Policy.cost_fraction);
  let r = inc.Core.Policy.resilient in
  Printf.printf "resilient run: %d attempts, %d injected faults, %.1f s charged\n"
    r.Core.Policy.attempts r.Core.Policy.faults r.Core.Policy.simulated_seconds;
  let cal = Core.Device.calibration device in
  let flagged_after =
    Core.Crosstalk.high_crosstalk_pairs inc.Core.Policy.merged cal ~threshold
  in
  Printf.printf "merged snapshot: %d conditional rates, %d high-crosstalk pair(s)\n"
    (List.length (Core.Crosstalk.entries inc.Core.Policy.merged))
    (List.length flagged_after);
  match output with
  | None -> ()
  | Some out -> (
    match Core.Store.save_crosstalk ~path:out inc.Core.Policy.merged with
    | Ok () -> Printf.printf "wrote %s\n" out
    | Error e ->
      Printf.eprintf "failed to write %s: %s\n" out e;
      exit 1)

let run_plain device seed jobs threshold policy_name resilient fault_seed fault_day previous
    output =
  let rng = Core.Rng.create seed in
  let policy =
    match policy_name with
    | "all-pairs" -> Core.Policy.All_pairs
    | "one-hop" -> Core.Policy.One_hop
    | "binpacked" -> Core.Policy.One_hop_binpacked
    | "high-only" ->
      (* Re-measure the pairs a first 1-hop pass flags. *)
      let first = Core.Policy.plan ~rng device Core.Policy.One_hop_binpacked in
      let outcome = Core.Policy.characterize ~jobs ~rng device first in
      Core.Policy.High_crosstalk_only
        (Core.Policy.high_pairs_of_outcome ~threshold device outcome)
    | other ->
      Printf.eprintf "unknown policy %s\n" other;
      exit 2
  in
  let plan = Core.Policy.plan ~rng device policy in
  Printf.printf "device: %s\n" (Core.Device.name device);
  Printf.printf "policy: %s\n" (Core.Policy.policy_name policy);
  Printf.printf "experiments: %d\n" (Core.Policy.experiment_count plan);
  Printf.printf "machine time at paper settings: %.2f hours\n" (Core.Policy.estimated_hours plan);
  let resilient = resilient || fault_seed <> None in
  let outcome =
    if not resilient then Core.Policy.characterize ~jobs ~rng device plan
    else begin
      let inject =
        Option.map
          (fun s -> Core.Fault_plan.inject (Core.Fault_plan.create ~seed:s) ~day:fault_day)
          fault_seed
      in
      let prev =
        match previous with
        | None -> Core.Crosstalk.empty
        | Some path -> (
          match
            Core.Store.load_crosstalk ~topology:(Core.Device.topology device) ~path ()
          with
          | Ok x -> x
          | Error e ->
            Printf.eprintf "failed to load previous snapshot %s: %s\n" path e;
            exit 1)
      in
      let r =
        Core.Policy.characterize_resilient ~jobs ?inject ~previous:prev ~rng device plan
      in
      Printf.printf "\nresilient run: %d attempts, %d injected faults, %.1f s charged\n"
        r.Core.Policy.attempts r.Core.Policy.faults r.Core.Policy.simulated_seconds;
      List.iter
        (fun (((t1, t2), (s1, s2)), f) ->
          match f with
          | Core.Policy.Fresh -> ()
          | f ->
            Printf.printf "  CX%d,%d | CX%d,%d: %s\n" t1 t2 s1 s2
              (Core.Policy.freshness_name f))
        r.Core.Policy.freshness;
      r.Core.Policy.outcome
    end
  in
  let flagged = Core.Policy.high_pairs_of_outcome ~threshold device outcome in
  Printf.printf "\nhigh-crosstalk pairs (ratio > %.1fx):\n" threshold;
  let cal = Core.Device.calibration device in
  List.iter
    (fun ((e1 : int * int), (e2 : int * int)) ->
      let cond target spectator =
        Core.Crosstalk.conditional_or_independent outcome.Core.Policy.xtalk cal ~target
          ~spectator
      in
      Printf.printf "  CX%d,%d | CX%d,%d   E(g1|g2)=%.4f E(g2|g1)=%.4f\n" (fst e1) (snd e1)
        (fst e2) (snd e2) (cond e1 e2) (cond e2 e1))
    flagged;
  Printf.printf "\n%d conditional rates measured in total\n"
    (List.length outcome.Core.Policy.measurements);
  match output with
  | None -> ()
  | Some path -> (
    match Core.Store.save_crosstalk ~path outcome.Core.Policy.xtalk with
    | Ok () -> Printf.printf "wrote %s\n" path
    | Error e ->
      Printf.eprintf "failed to write %s: %s\n" path e;
      exit 1)

let run device seed jobs threshold policy_name resilient fault_seed fault_day previous
    incremental output =
  match incremental with
  | Some path -> run_incremental device seed jobs threshold fault_seed fault_day path output
  | None ->
    run_plain device seed jobs threshold policy_name resilient fault_seed fault_day previous
      output

let cmd =
  let info = Cmd.info "qcx_characterize" ~doc:"Characterize crosstalk on a simulated IBMQ device" in
  Cmd.v info
    Term.(
      const run $ Common.device_term $ Common.seed_term $ Common.jobs_term $ Common.threshold_term
      $ policy_term $ resilient_term $ fault_seed_term $ fault_day_term $ previous_term
      $ incremental_term $ output_term)

let () = exit (Cmd.eval cmd)
