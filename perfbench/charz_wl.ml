(* The characterize workload: one full one-hop bin-packed SRB pass over
   Poughkeepsie (Policy.plan + Policy.characterize, Rb.default_params),
   run in the benchmark process on [jobs] domains.  The traced run
   replays the pass experiment by experiment through Rb's public
   functions, so each SRB experiment and each independent RB gets a
   span. *)

module Device = Core.Device
module Topology = Core.Topology
module Policy = Core.Policy
module Rb = Core.Rb

let jobs = 2
let threshold = 3.0
let setups = 20

let device () = Core.Presets.poughkeepsie ()
let plan_rng seed = Core.Rng.split_nth (Core.Rng.create seed) 0
let measure_rng seed = Core.Rng.split_nth (Core.Rng.create seed) 1

let pair_set pairs =
  List.map
    (fun (a, b) ->
      let a = Topology.normalize a and b = Topology.normalize b in
      if compare a b <= 0 then (a, b) else (b, a))
    pairs
  |> List.sort_uniq compare

(* Schedule quality the characterized data buys: XtalkSched compiles
   Poughkeepsie's SWAP circuits with it, and the oracle prices them. *)
let oracle_error_mean device xtalk =
  Core.Presets.swap_endpoints device
  |> List.map (fun (src, dst) ->
         let c = Inputs.measured (Core.Swap_circuits.build device ~src ~dst).Core.Swap_circuits.circuit in
         let sched, _ = Core.Xtalk_sched.schedule ~device ~xtalk c in
         (Core.Evaluate.oracle device sched).Core.Evaluate.error)
  |> Measure.mean

(* ---- the traced replay ----

   The loop of Policy.characterize, drawn from the same stream: each
   experiment's SRB run, then the independent RB of each target not
   measured yet, in pair order.  It calls the public Rb.run and
   Rb.independent, each inside a span, so the replay's raw rates must
   equal the untraced pass bit for bit; a mismatch means Policy's loop
   has changed and is reported as trace.replay_match 0. *)

let span = Trace.with_span

(* (target, spectator, raw conditional, raw independent), in the
   order Policy.characterize records its measurements. *)
let replay device ~rng (plan : Policy.plan) =
  let params = Rb.default_params in
  let independent = Hashtbl.create 16 in
  let independent_of edge =
    match Hashtbl.find_opt independent edge with
    | Some v -> v
    | None ->
      let v = span "rb.independent" (fun () -> (Rb.independent ~jobs device ~rng ~params edge).Rb.error_rate) in
      Hashtbl.replace independent edge v;
      v
  in
  List.concat
    (List.mapi
       (fun k experiment ->
         let gates = List.concat_map (fun (e1, e2) -> [ e1; e2 ]) experiment in
         let fits = span ~req:k "rb.experiment" (fun () -> Rb.run ~jobs device ~rng ~params gates) in
         let rate_of e = (List.find (fun f -> f.Rb.edge = e) fits).Rb.error_rate in
         List.concat_map
           (fun (e1, e2) ->
             let record target spectator = (target, spectator, rate_of target, Float.max 1e-4 (independent_of target)) in
             let r1 = record (Topology.normalize e1) (Topology.normalize e2) in
             let r2 = record (Topology.normalize e2) (Topology.normalize e1) in
             [ r1; r2 ])
           experiment)
       plan.Policy.experiments)

let raw (o : Policy.outcome) =
  List.map
    (fun m -> (m.Policy.target, m.Policy.spectator, m.Policy.raw_conditional, m.Policy.raw_independent))
    o.Policy.measurements

let run ~seed ~seconds ~trace =
  let setup () =
    let t0 = Measure.now () in
    (* The two-qubit Clifford tables are built on first use; build them
       here, not inside the first timed pass. *)
    ignore (Core.Clifford2.inverse_word (Core.Tableau.create 2));
    let d = device () in
    let plan = span "policy.plan" (fun () -> Policy.plan ~rng:(plan_rng seed) d Policy.One_hop_binpacked) in
    (d, plan, Measure.now () -. t0)
  in
  Trace.enabled := trace;
  let d, plan, _ = setup () in
  Trace.enabled := false;
  let plan_s = Trace.durations_of "policy.plan" in
  let setup_times = if trace then [] else List.init setups (fun _ -> let _, _, t = setup () in t) in
  let nexp = Policy.experiment_count plan in
  let pass () =
    let cpu0 = Measure.self_cpu () in
    let t0 = Measure.now () in
    let o = Policy.characterize ~jobs ~rng:(measure_rng seed) d plan in
    (o, Measure.now () -. t0, Measure.self_cpu () -. cpu0)
  in
  let started = Measure.now () in
  let rec passes acc =
    let ((_, wall, _) as p) = pass () in
    let acc = p :: acc in
    if trace || Measure.now () -. started +. wall > seconds then List.rev acc else passes acc
  in
  let runs = passes [] in
  (* The pass must flag exactly the ground truth's high-crosstalk pairs. *)
  let truth = pair_set (Device.true_high_crosstalk_pairs d ~threshold) in
  let mismatches (o, _, _) =
    let flagged = pair_set (Policy.high_pairs_of_outcome ~threshold d o) in
    List.length (List.filter (fun p -> not (List.mem p truth)) flagged)
    + List.length (List.filter (fun p -> not (List.mem p flagged)) truth)
  in
  let wrong = List.fold_left (fun n r -> n + mismatches r) 0 runs in
  let failures =
    if wrong = 0 then []
    else [ Printf.sprintf "%d pair classification(s) differ from the ground truth's high-crosstalk set" wrong ]
  in
  let outcome, _, _ = List.hd runs in
  let walls = List.map (fun (_, w, _) -> w) runs in
  let cpu = List.fold_left (fun a (_, _, c) -> a +. c) 0.0 runs in
  let npasses = List.length runs in
  let pairs = List.length (pair_set (List.concat plan.Policy.experiments)) in
  if not trace then begin
    Measure.set "setup_s" "s" (Measure.median setup_times)
      ~note:(Printf.sprintf "median of %d set-ups (device + Policy.plan)" setups);
    Measure.set "characterize_s" "s" (Measure.median walls) ~note:(Printf.sprintf "median of %d pass(es)" npasses);
    Measure.set "srb_experiments" "count" (float_of_int nexp);
    Measure.set "cpu_ms_per_op" "ms" (1000.0 *. cpu /. float_of_int (nexp * npasses))
      ~note:"process utime+stime per SRB experiment";
    Measure.set "peak_rss_mb" "MB" (Measure.peak_rss_mb "self") ~note:"benchmark process VmHWM";
    Measure.set "oracle_error_mean" "fraction" (oracle_error_mean d outcome.Policy.xtalk)
      ~note:"mean oracle error of XtalkSched SWAP-circuit schedules compiled with the characterized data"
  end
  else begin
    let untraced = List.hd walls in
    Trace.enabled := true;
    let t1 = Measure.now () in
    let replayed = replay d ~rng:(measure_rng seed) plan in
    let t2 = Measure.now () in
    Trace.enabled := false;
    let matches = replayed = raw outcome in
    if not matches then prerr_endline "characterize: the traced replay no longer reproduces Policy.characterize";
    Measure.set "policy.plan_ms" "ms" (1000.0 *. Measure.median plan_s);
    Measure.set "policy.flag_mismatches" "count" (float_of_int wrong);
    let exp_s = Trace.durations_of "rb.experiment" in
    Measure.set "rb.experiment_s_p50" "s" (Measure.median exp_s);
    Measure.set "rb.experiment_s_max" "s" (Measure.percentile 100.0 exp_s);
    let ind_s = Trace.durations_of "rb.independent" in
    let sum = List.fold_left ( +. ) 0.0 in
    Measure.set "rb.independent_s" "s" (sum ind_s);
    (* Every RB run executes the same number of noisy trials. *)
    let executions = Rb.experiment_executions Rb.default_params * (List.length exp_s + List.length ind_s) in
    Measure.set "rb.executions" "count" (float_of_int executions)
      ~note:"noisy trials executed (lengths x seeds x trials per RB run), SRB experiments plus independent RB";
    Measure.set "rb.shots_per_s" "1/s"
      (float_of_int executions /. (sum exp_s +. sum ind_s))
      ~note:"trials per second of Rb.run time";
    Measure.set "trace.coverage" "ratio" (Trace.coverage ~lo:t1 ~hi:t2);
    Measure.set "trace.overhead" "ratio" ((t2 -. t1) /. untraced -. 1.0)
      ~note:(Printf.sprintf "traced replay %.3f s vs untraced pass %.3f s" (t2 -. t1) untraced);
    Measure.set "trace.replay_match" "bool" (if matches then 1.0 else 0.0)
  end;
  Measure.set "failed_frac" "ratio" (float_of_int wrong /. float_of_int (pairs * npasses));
  { Measure.attempted = pairs * npasses; failed = wrong; failures }
