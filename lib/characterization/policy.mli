(** The four crosstalk-characterization policies of Sections 5 and 10:
    all-pairs SRB, 1-hop pairs only (Opt 1), 1-hop with bin-packed
    parallel experiments (Opt 2), and daily re-measurement of known
    high-crosstalk pairs only (Opt 3).

    A {e plan} is a list of experiments, each a set of SRB gate pairs
    measured in one run.  [characterize] executes a plan on the
    simulated device and produces the conditional-error data the
    scheduler consumes.  [estimated_hours] prices a plan with the
    paper's cost model (sequences x trials x per-execution latency),
    reproducing Figure 10 without burning simulation time.

    Conditional rates are stored {e ratio-anchored}: the measured
    ratio [E(gi|gj) / E(gi)] (both rates measured by the same
    protocol, so idle-decoherence inflation cancels) rescales the
    daily calibration rate [E_cal(gi)].  This keeps characterized
    data on the calibration scale the scheduler's independent rates
    come from, and makes threshold flagging of the stored data
    coincide with the paper's raw-measured ratio test. *)

type policy =
  | All_pairs
  | One_hop
  | One_hop_binpacked
  | High_crosstalk_only of Binpack.pair list
      (** the previously known high-crosstalk pairs to re-measure *)

val policy_name : policy -> string

type plan = { policy : policy; experiments : Binpack.pair list list }

val plan :
  ?min_separation:int ->
  ?attempts:int ->
  rng:Qcx_util.Rng.t ->
  Qcx_device.Device.t ->
  policy ->
  plan
(** Defaults: [min_separation = 2], [attempts = 32] (bin-packing
    restarts).  [All_pairs] and [One_hop] plans put one pair per
    experiment; the other two bin-pack. *)

val experiment_count : plan -> int

val estimated_hours :
  ?sequences:int -> ?trials:int -> ?seconds_per_execution:float -> plan -> float
(** Machine-time estimate.  Defaults are the paper's: 100 random
    sequences and 1024 trials per experiment, at 1.27 ms per
    execution (8 h / 22.6 M executions). *)

type measurement = {
  target : Qcx_device.Topology.edge;
  spectator : Qcx_device.Topology.edge;
  conditional : float;  (** baseline-anchored, fed to the scheduler *)
  raw_conditional : float;  (** SRB-measured E(target|spectator) *)
  raw_independent : float;  (** RB-measured E(target) *)
}

type outcome = {
  xtalk : Qcx_device.Crosstalk.t;
  measurements : measurement list;
  experiments : int;
}

val characterize :
  ?params:Rb.params ->
  ?jobs:int ->
  rng:Qcx_util.Rng.t ->
  Qcx_device.Device.t ->
  plan ->
  outcome
(** Run every experiment of the plan via {!Rb.run} (default
    [Rb.default_params]) plus one independent RB per distinct gate
    (cached; the paper gets these from daily calibration, so they are
    not charged to the plan's experiment count).  [jobs] (default 1)
    parallelizes the underlying noisy executions across domains
    without changing any measured value. *)

(** {2 Resilient characterization}

    The operational loop's fault-tolerant front end: identical
    measurement physics to {!characterize}, wrapped in per-experiment
    timeout/retry with validation and stale-data fallback so that a
    broken experiment can never poison — or abort — the day's
    characterization. *)

type injected_fault =
  | Inject_hang  (** the experiment never returns (consumes the timeout) *)
  | Inject_dropout of float
      (** only this fraction of the requested shots arrives *)
  | Inject_corrupt_rate of float
      (** the fitter returns this (typically non-physical) rate *)

type retry = {
  max_attempts : int;  (** total attempts per experiment, >= 1 *)
  timeout_seconds : float;  (** simulated cost of a hung experiment *)
  base_backoff_seconds : float;
  backoff_factor : float;  (** exponential: base * factor^attempt *)
  max_backoff_seconds : float;
  jitter : float;  (** backoff is scaled by 1 + jitter * U[0,1) *)
}

val default_retry : retry
(** 3 attempts, 30 s timeout, 2 s backoff doubling up to 60 s, 0.5
    jitter. *)

type freshness =
  | Fresh  (** first attempt succeeded *)
  | Recovered of int  (** succeeded after this many failed attempts *)
  | Stale_previous  (** serving the previous characterization's value *)
  | Stale_calibration  (** no previous value; calibration rate assumed *)

val freshness_name : freshness -> string

type resilient_outcome = {
  outcome : outcome;
  freshness : ((Qcx_device.Topology.edge * Qcx_device.Topology.edge) * freshness) list;
      (** per directed (target, spectator) pair of the plan *)
  attempts : int;  (** experiment attempts run in total *)
  faults : int;  (** injected faults encountered *)
  simulated_seconds : float;  (** timeout + backoff wall-clock charged *)
}

val characterize_resilient :
  ?params:Rb.params ->
  ?jobs:int ->
  ?retry:retry ->
  ?previous:Qcx_device.Crosstalk.t ->
  ?inject:(experiment:int -> attempt:int -> injected_fault option) ->
  rng:Qcx_util.Rng.t ->
  Qcx_device.Device.t ->
  plan ->
  resilient_outcome
(** Run the plan like {!characterize}, but survive a faulty backend:

    - each experiment gets [retry.max_attempts] tries with exponential
      backoff (+ jitter) between them; a hang costs
      [retry.timeout_seconds] of (simulated) wall-clock;
    - every fitted rate is validated (finite, in [0,1], sane decay)
      before ingestion — non-physical fits trigger a retry;
    - an experiment that stays broken falls back to [previous]'s
      stored conditional rate, or the calibration independent rate
      when no previous value exists, and is reported stale.

    [inject] is the fault-injection hook (see [Qcx_faults.Fault_plan]);
    [None] (default) means a perfect backend.  Draws use random-access
    child streams of [rng], so results are deterministic for a given
    plan and fault sequence at every [jobs]. *)

(** {2 Opt-3 incremental re-characterization}

    The shared code path behind [qcx_characterize --incremental] and
    the serving layer's calibrator: flag, re-measure, merge — with the
    resilient front end and an explicit cost accounting against the
    full one-hop bin-packed pass it replaces. *)

type incremental_mode =
  | Flagged_only  (** only the snapshot's high-crosstalk pairs re-measured *)
  | Full_fallback
      (** nothing flagged (first epoch / wiped device): full one-hop
          bin-packed pass *)

val incremental_mode_name : incremental_mode -> string

type incremental_outcome = {
  resilient : resilient_outcome;  (** the measurement run that was executed *)
  merged : Qcx_device.Crosstalk.t;
      (** fresh rates merged over [previous] (fresh entries win);
          in [Full_fallback] mode this is the fresh data alone *)
  mode : incremental_mode;
  flagged : Binpack.pair list;  (** pairs the previous snapshot flagged *)
  run_executions : int;  (** executions charged to the run actually made *)
  full_executions : int;  (** executions a full re-characterization costs *)
  cost_fraction : float;  (** [run_executions / full_executions] *)
}

val characterize_incremental :
  ?params:Rb.params ->
  ?jobs:int ->
  ?retry:retry ->
  ?threshold:float ->
  ?inject:(experiment:int -> attempt:int -> injected_fault option) ->
  rng:Qcx_util.Rng.t ->
  Qcx_device.Device.t ->
  previous:Qcx_device.Crosstalk.t ->
  incremental_outcome
(** The daily Optimization-3 workflow through the resilient front end:
    bin-pack and re-measure only the pairs [previous] flags at
    [threshold] (default 3), with timeout/retry/fallback per
    experiment, and merge the fresh conditional rates over the old
    data.  When [previous] flags nothing the full [One_hop_binpacked]
    plan runs instead ([Full_fallback]) so a blank device still gets
    characterized.  The full plan is always priced (never run in
    flagged mode) to report [cost_fraction].  Plan construction,
    pricing and measurement use independent child streams of [rng],
    so results are deterministic at every [jobs]. *)

val high_pairs_of_outcome :
  ?threshold:float -> Qcx_device.Device.t -> outcome -> Binpack.pair list
(** Flag pairs whose characterized conditional rate exceeds
    [threshold] (default 3) times the calibration independent rate —
    the Figure 3 red-edge criterion on characterized data. *)
