(** XtalkSched: the paper's crosstalk-adaptive scheduler.

    Serializes high-crosstalk instruction pairs while balancing the
    exponential decoherence cost of longer schedules, by solving the
    Section 7 constrained optimization ({!Encoding}) to optimality
    with [Qcx_smt.Solver].

    [omega] is the crosstalk weight factor of eq. 17: [0.] ignores
    crosstalk (the result coincides with ParSched's parallelism);
    [1.] ignores decoherence, which the paper equates with full
    SerialSched behaviour (Table 1) — implemented here as exactly
    that special case.  The paper's default for the SWAP experiments
    is 0.5.

    For programs whose interfering-pair count exceeds
    [max_exact_pairs], pairs are partitioned into clusters (connected
    components over shared gates), each cluster is optimized
    separately, and the union of decisions is evaluated once — the
    compile-time optimization the paper alludes to for large
    supremacy-style workloads (Section 9.4). *)

type rung =
  | Exact  (** solver proved optimality (or the serial omega=1 case) *)
  | Incumbent  (** budget/deadline expired; best-so-far schedule served *)
  | Clustered  (** per-cluster decomposition *)
  | Windowed  (** windowed hierarchical solve ({!Window_sched}) *)
  | Greedy  (** GreedySched serialization *)
  | Parallel  (** plain ParSched — the floor; always succeeds *)

val rung_name : rung -> string

val all_rungs : rung list
(** In degradation order, best first. *)

type stats = {
  pairs : int;  (** interfering CNOT instance pairs *)
  clusters : int;  (** 1 when solved exactly in one shot; 0 below Windowed *)
  windows : int;  (** windows stitched by the Windowed rung; 0 elsewhere *)
  nodes : int;  (** total branch-and-bound nodes *)
  optimal : bool;  (** false when decomposed or budget-limited *)
  objective : float;
  solve_seconds : float;
      (** wall-clock seconds of the compile (the latency a caller
          actually observes — cluster solving may use several domains) *)
  cpu_seconds : float;  (** process CPU seconds over the same window *)
  idle_total : float;
      (** total idle time across qubits in the served schedule, ns
          ({!Idle.total}) — the decoherence exposure DD can pad *)
  idle_max : float;  (** longest single idle window, ns ({!Idle.max_window}) *)
  rung : rung;  (** which degradation-ladder rung served this compile *)
}

val tune_omega :
  ?candidates:float list ->
  ?threshold:float ->
  ?jobs:int ->
  device:Qcx_device.Device.t ->
  xtalk:Qcx_device.Crosstalk.t ->
  Qcx_circuit.Circuit.t ->
  float * Qcx_circuit.Schedule.t * stats
(** Compile at several omega values and keep the schedule whose
    *model-predicted* error (calibration + characterized crosstalk via
    [Evaluate.model]) is lowest — the "careful tuning" knob of
    Section 9.3, automated without touching the hardware.  Default
    candidates: [0.; 0.05; 0.2; 0.5; 0.8; 1.].  Returns the chosen
    omega with its schedule and stats.

    One {!Encoding.prepare} (SWAP decomposition, DAG predecessors,
    durations, flagged pairs, interfering instances) is shared by all
    candidates, since none of it depends on omega; if it fails, every
    candidate serves ParSched.  With [jobs > 1] the candidates are compiled
    concurrently on the domain pool, ties broken toward the earlier
    candidate regardless of [jobs].  Must be called from the domain
    that owns the pool (not from inside another parallel region). *)

val schedule :
  ?omega:float ->
  ?threshold:float ->
  ?node_budget:int ->
  ?max_exact_pairs:int ->
  ?deadline_seconds:float ->
  ?ladder_start:rung ->
  ?window_gates:int ->
  ?jobs:int ->
  device:Qcx_device.Device.t ->
  xtalk:Qcx_device.Crosstalk.t ->
  Qcx_circuit.Circuit.t ->
  Qcx_circuit.Schedule.t * stats
(** Defaults: [omega = 0.5], [threshold = 3.], [node_budget =
    2_000_000], [max_exact_pairs = 14], no deadline.  Logical SWAPs
    are decomposed internally; the returned schedule is over the
    decomposed circuit.  [xtalk] is characterized conditional-error
    data (from [Qcx_characterization]), not the device ground truth.

    A compile request {e never fails}: on solver deadline/budget
    expiry, unsatisfiability, or any internal error, the request
    degrades rung by rung — best-so-far incumbent, per-cluster
    decomposition, windowed hierarchical solve, GreedySched, finally
    ParSched — and [stats.rung] records which rung actually served it.
    The compile prepares one {!Encoding.problem} inside that guard
    (a failed preparation serves ParSched with [pairs = 0]); every
    rung, warm-start hint and {!Evaluate.objective} reads it.
    [deadline_seconds] is a wall-clock bound shared by all solver
    calls of the compile.  [ladder_start] (default [Exact]) starts the
    descent lower — useful for very large programs and for testing the
    lower rungs.

    [window_gates] (default 160) sizes the Windowed rung's windows and
    doubles as the auto-escalation bound: circuits longer than
    [2 * window_gates] gates skip the monolithic Exact and Clustered
    encodings entirely (even when few pairs interfere) and go straight
    to {!Window_sched}, which is what lets 127-qubit, 1k+-gate
    programs compile in bounded time (see the scale bench).

    [jobs] (default 1) parallelizes the Clustered rung (connected
    components are independent subproblems solved concurrently on
    [Qcx_util.Pool] and merged by cluster index) and the Windowed
    rung (windows solved concurrently, stitched sequentially in
    window order), so the schedule is bit-identical at every [jobs]
    (absent a deadline, which makes any solver cutoff
    timing-dependent).  Leave it at 1 when calling from
    inside another pool-parallel region (e.g. the service's batch
    compile), which would otherwise re-enter the pool.

    The solver has one search core.  Warm starts derived from the
    greedy/parallel list schedules seed its incumbent, so its exact
    solves explore at most half the nodes of the seed's search core,
    whose frozen counts [bench/exp_sched.ml] keeps as the baseline. *)
