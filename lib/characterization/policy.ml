module Device = Qcx_device.Device
module Topology = Qcx_device.Topology
module Calibration = Qcx_device.Calibration
module Crosstalk = Qcx_device.Crosstalk
module Rng = Qcx_util.Rng

type policy =
  | All_pairs
  | One_hop
  | One_hop_binpacked
  | High_crosstalk_only of Binpack.pair list

let policy_name = function
  | All_pairs -> "all-pairs"
  | One_hop -> "one-hop"
  | One_hop_binpacked -> "one-hop+binpack"
  | High_crosstalk_only _ -> "high-crosstalk-only"

type plan = { policy : policy; experiments : Binpack.pair list list }

let plan ?(min_separation = 2) ?(attempts = 32) ~rng device policy =
  let topo = Device.topology device in
  let experiments =
    match policy with
    | All_pairs -> List.map (fun p -> [ p ]) (Topology.parallel_gate_pairs topo)
    | One_hop -> List.map (fun p -> [ p ]) (Topology.one_hop_gate_pairs topo)
    | One_hop_binpacked ->
      Binpack.pack topo ~rng ~min_separation ~attempts (Topology.one_hop_gate_pairs topo)
    | High_crosstalk_only known -> Binpack.pack topo ~rng ~min_separation ~attempts known
  in
  { policy; experiments }

let experiment_count plan = List.length plan.experiments

let estimated_hours ?(sequences = 100) ?(trials = 1024) ?(seconds_per_execution = 0.00127) plan =
  float_of_int (experiment_count plan * sequences * trials) *. seconds_per_execution /. 3600.0

type measurement = {
  target : Topology.edge;
  spectator : Topology.edge;
  conditional : float;
  raw_conditional : float;
  raw_independent : float;
}

type outcome = {
  xtalk : Crosstalk.t;
  measurements : measurement list;
  experiments : int;
}

let characterize ?(params = Rb.default_params) ?(jobs = 1) ~rng device (cplan : plan) =
  let cal = Device.calibration device in
  (* Independent rates, measured once per distinct gate by standard
     two-qubit RB (on real systems these come with the daily
     calibration). *)
  let independent_cache : (Topology.edge, float) Hashtbl.t = Hashtbl.create 16 in
  let independent_of edge =
    match Hashtbl.find_opt independent_cache edge with
    | Some v -> v
    | None ->
      let fit = Rb.independent ~jobs device ~rng ~params edge in
      Hashtbl.replace independent_cache edge fit.Rb.error_rate;
      fit.Rb.error_rate
  in
  let measurements = ref [] in
  List.iter
    (fun experiment ->
      let gates = List.concat_map (fun (e1, e2) -> [ e1; e2 ]) experiment in
      let fits = Rb.run ~jobs device ~rng ~params gates in
      let rate_of edge =
        match List.find_opt (fun f -> f.Rb.edge = Topology.normalize edge) fits with
        | Some f -> f.Rb.error_rate
        | None -> invalid_arg "Policy.characterize: missing fit"
      in
      List.iter
        (fun (e1, e2) ->
          let record target spectator =
            let raw_conditional = rate_of target in
            let raw_independent = max 1e-4 (independent_of target) in
            (* Ratio anchoring: both raw rates carry the same additive
               idle-decoherence inflation, so their ratio is the clean
               crosstalk signal; rescaling the daily calibration rate
               by it puts the estimate on the calibration scale the
               scheduler works in.  Flagging stored data at threshold
               t is then exactly the paper's raw-measured
               E(gi|gj) > t E(gi) test. *)
            let ratio = max 1.0 (raw_conditional /. raw_independent) in
            let anchored = (Calibration.gate cal target).Calibration.cnot_error *. ratio in
            measurements :=
              {
                target;
                spectator;
                conditional = Qcx_util.Stats.clamp ~lo:0.0 ~hi:1.0 anchored;
                raw_conditional;
                raw_independent;
              }
              :: !measurements
          in
          record (Topology.normalize e1) (Topology.normalize e2);
          record (Topology.normalize e2) (Topology.normalize e1))
        experiment)
    cplan.experiments;
  let xtalk =
    List.fold_left
      (fun acc m -> Crosstalk.set acc ~target:m.target ~spectator:m.spectator m.conditional)
      Crosstalk.empty !measurements
  in
  { xtalk; measurements = List.rev !measurements; experiments = experiment_count cplan }

(* ---- resilient characterization ----

   The plain [characterize] above assumes a perfect backend: every SRB
   experiment returns, every fit is physical.  The operational loop
   cannot — experiments hang, shots drop, fits diverge.  The resilient
   variant wraps each experiment in a timeout + bounded-retry loop
   with exponential backoff, validates every fitted rate before
   ingesting it, and falls back to the previous day's stored value (or
   the calibration rate) when an experiment stays broken, tracking
   per-pair freshness so consumers can see what is stale. *)

type injected_fault =
  | Inject_hang
  | Inject_dropout of float
  | Inject_corrupt_rate of float

type retry = {
  max_attempts : int;
  timeout_seconds : float;
  base_backoff_seconds : float;
  backoff_factor : float;
  max_backoff_seconds : float;
  jitter : float;
}

let default_retry =
  {
    max_attempts = 3;
    timeout_seconds = 30.0;
    base_backoff_seconds = 2.0;
    backoff_factor = 2.0;
    max_backoff_seconds = 60.0;
    jitter = 0.5;
  }

type freshness = Fresh | Recovered of int | Stale_previous | Stale_calibration

let freshness_name = function
  | Fresh -> "fresh"
  | Recovered n -> Printf.sprintf "recovered(%d)" n
  | Stale_previous -> "stale-previous"
  | Stale_calibration -> "stale-calibration"

type resilient_outcome = {
  outcome : outcome;
  freshness : ((Topology.edge * Topology.edge) * freshness) list;
  attempts : int;
  faults : int;
  simulated_seconds : float;
}

let valid_rate_float r = Float.is_finite r && r >= 0.0 && r <= 1.0

(* A physical SRB fit: finite decay in [0,1] and a finite per-CNOT
   rate in [0,1].  Anything else means the experiment or the fitter
   failed, and must not reach the scheduler. *)
let valid_fit (f : Rb.fit) =
  Float.is_finite f.Rb.alpha
  && f.Rb.alpha >= 0.0
  && f.Rb.alpha <= 1.0
  && Float.is_finite f.Rb.error_rate
  && f.Rb.error_rate >= 0.0
  && f.Rb.error_rate <= 1.0

let characterize_resilient ?(params = Rb.default_params) ?(jobs = 1) ?(retry = default_retry)
    ?(previous = Crosstalk.empty) ?inject ~rng device (cplan : plan) =
  if retry.max_attempts < 1 then invalid_arg "Policy.characterize_resilient: max_attempts < 1";
  let inject =
    match inject with Some f -> f | None -> fun ~experiment:_ ~attempt:_ -> None
  in
  let cal = Device.calibration device in
  let nexp = List.length cplan.experiments in
  (* Child streams, random-access so a retry of experiment [i] never
     perturbs the draws of experiment [j] (and the campaign stays
     deterministic at every [jobs]). *)
  let exp_rng i attempt = Rng.split_nth (Rng.split_nth rng i) attempt in
  let aux_rng = Rng.split_nth rng nexp in
  let independent_rng = Rng.split_nth aux_rng 0 in
  let backoff_rng = Rng.split_nth aux_rng 1 in
  let attempts = ref 0 in
  let faults = ref 0 in
  let simulated_seconds = ref 0.0 in
  let backoff_of a =
    let base =
      min retry.max_backoff_seconds
        (retry.base_backoff_seconds *. (retry.backoff_factor ** float_of_int a))
    in
    base *. (1.0 +. (retry.jitter *. Rng.unit_float backoff_rng))
  in
  let independent_cache : (Topology.edge, float) Hashtbl.t = Hashtbl.create 16 in
  let independent_of edge =
    match Hashtbl.find_opt independent_cache edge with
    | Some v -> v
    | None ->
      let fit = Rb.independent ~jobs device ~rng:(Rng.split independent_rng) ~params edge in
      let v =
        if valid_fit fit then fit.Rb.error_rate
        else (Calibration.gate cal edge).Calibration.cnot_error
      in
      Hashtbl.replace independent_cache edge v;
      v
  in
  let measurements = ref [] in
  let freshness = ref [] in
  List.iteri
    (fun i experiment ->
      let gates = List.concat_map (fun (e1, e2) -> [ e1; e2 ]) experiment in
      (* Timeout + bounded retry with exponential backoff: each
         attempt either yields a full set of validated fits or burns
         (simulated) wall-clock and tries again. *)
      let rec attempt_loop a =
        if a >= retry.max_attempts then None
        else begin
          incr attempts;
          if a > 0 then simulated_seconds := !simulated_seconds +. backoff_of (a - 1);
          match inject ~experiment:i ~attempt:a with
          | Some Inject_hang ->
            incr faults;
            simulated_seconds := !simulated_seconds +. retry.timeout_seconds;
            attempt_loop (a + 1)
          | fault ->
            let params_a =
              match fault with
              | Some (Inject_dropout keep) ->
                incr faults;
                let keep = Qcx_util.Stats.clamp ~lo:0.0 ~hi:1.0 keep in
                { params with Rb.trials = max 16 (int_of_float (float_of_int params.Rb.trials *. keep)) }
              | _ -> params
            in
            let fits = Rb.run ~jobs device ~rng:(exp_rng i a) ~params:params_a gates in
            let fits =
              match fault with
              | Some (Inject_corrupt_rate bad) ->
                incr faults;
                (match fits with
                | f :: rest -> { f with Rb.error_rate = bad } :: rest
                | [] -> [])
              | _ -> fits
            in
            if fits <> [] && List.for_all valid_fit fits then Some (fits, a)
            else attempt_loop (a + 1)
        end
      in
      match attempt_loop 0 with
      | Some (fits, attempts_used) ->
        let rate_of edge =
          match List.find_opt (fun f -> f.Rb.edge = Topology.normalize edge) fits with
          | Some f -> f.Rb.error_rate
          | None -> invalid_arg "Policy.characterize_resilient: missing fit"
        in
        let fresh = if attempts_used = 0 then Fresh else Recovered attempts_used in
        List.iter
          (fun (e1, e2) ->
            let record target spectator =
              let raw_conditional = rate_of target in
              let raw_independent = max 1e-4 (independent_of target) in
              let ratio = max 1.0 (raw_conditional /. raw_independent) in
              let anchored = (Calibration.gate cal target).Calibration.cnot_error *. ratio in
              measurements :=
                {
                  target;
                  spectator;
                  conditional = Qcx_util.Stats.clamp ~lo:0.0 ~hi:1.0 anchored;
                  raw_conditional;
                  raw_independent;
                }
                :: !measurements;
              freshness := ((target, spectator), fresh) :: !freshness
            in
            record (Topology.normalize e1) (Topology.normalize e2);
            record (Topology.normalize e2) (Topology.normalize e1))
          experiment
      | None ->
        (* Exhausted: serve yesterday's stored value when one exists,
           otherwise assume no crosstalk beyond the calibration rate.
           Either way the pair is marked stale, and the compile goes
           on. *)
        List.iter
          (fun (e1, e2) ->
            let record target spectator =
              let target = Topology.normalize target
              and spectator = Topology.normalize spectator in
              let cal_rate = (Calibration.gate cal target).Calibration.cnot_error in
              let conditional, fresh =
                match Crosstalk.conditional previous ~target ~spectator with
                | Some r when valid_rate_float r -> (r, Stale_previous)
                | _ -> (cal_rate, Stale_calibration)
              in
              measurements :=
                {
                  target;
                  spectator;
                  conditional;
                  raw_conditional = conditional;
                  raw_independent = cal_rate;
                }
                :: !measurements;
              freshness := ((target, spectator), fresh) :: !freshness
            in
            record e1 e2;
            record e2 e1)
          experiment)
    cplan.experiments;
  let xtalk =
    List.fold_left
      (fun acc m -> Crosstalk.set acc ~target:m.target ~spectator:m.spectator m.conditional)
      Crosstalk.empty !measurements
  in
  {
    outcome =
      {
        xtalk;
        measurements = List.rev !measurements;
        experiments = experiment_count cplan;
      };
    freshness = List.rev !freshness;
    attempts = !attempts;
    faults = !faults;
    simulated_seconds = !simulated_seconds;
  }

let high_pairs_of_outcome ?(threshold = 3.0) device outcome =
  Crosstalk.high_crosstalk_pairs outcome.xtalk (Device.calibration device) ~threshold

(* ---- Opt-3 incremental re-characterization ----

   One code path shared by the offline tool (qcx_characterize
   --incremental) and the service calibrator: re-measure only the
   pairs the last-good snapshot flags as high-crosstalk, run them
   through the resilient front end, and merge the fresh rates over
   the last-good data.  Falls back to a full one-hop bin-packed pass
   when the snapshot flags nothing (first epoch, or a wiped device). *)

type incremental_mode = Flagged_only | Full_fallback

let incremental_mode_name = function
  | Flagged_only -> "flagged-only"
  | Full_fallback -> "full-fallback"

type incremental_outcome = {
  resilient : resilient_outcome;
  merged : Crosstalk.t;
  mode : incremental_mode;
  flagged : Binpack.pair list;
  run_executions : int;
  full_executions : int;
  cost_fraction : float;
}

let characterize_incremental ?(params = Rb.default_params) ?(jobs = 1) ?(retry = default_retry)
    ?(threshold = 3.0) ?inject ~rng device ~previous =
  let flagged = Crosstalk.high_crosstalk_pairs previous (Device.calibration device) ~threshold in
  (* Independent child streams so pricing the full plan never perturbs
     the measurement draws (and vice versa). *)
  let plan_rng = Rng.split_nth rng 0 in
  let cost_rng = Rng.split_nth rng 1 in
  let run_rng = Rng.split_nth rng 2 in
  let full_plan = plan ~rng:cost_rng device One_hop_binpacked in
  let mode, cplan =
    if flagged = [] then (Full_fallback, full_plan)
    else (Flagged_only, plan ~rng:plan_rng device (High_crosstalk_only flagged))
  in
  let resilient =
    characterize_resilient ~params ~jobs ~retry ~previous ?inject ~rng:run_rng device cplan
  in
  let merged =
    match mode with
    | Full_fallback -> resilient.outcome.xtalk
    | Flagged_only -> Crosstalk.merge previous resilient.outcome.xtalk
  in
  let per = Rb.experiment_executions params in
  let run_executions = experiment_count cplan * per in
  let full_executions = max 1 (experiment_count full_plan * per) in
  {
    resilient;
    merged;
    mode;
    flagged;
    run_executions;
    full_executions;
    cost_fraction = float_of_int run_executions /. float_of_int full_executions;
  }
