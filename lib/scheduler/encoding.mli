(** The Section 7 constraint encoding, targeting [Qcx_smt.Solver].

    Variables: one start time per gate plus a synchronized-readout
    variable [R] (the sink); per interfering CNOT pair, three booleans
    - an overlap indicator [o] (constraint 2) and two serialization
    orders - tied together by exactly-one clauses.

    Constraints, as in the paper:
    - data dependencies (eq. 1) as difference edges;
    - overlap semantics: [o] activates the IBMQ full-containment
      constraints (eqs. 11-13; with constant durations only the
      shorter-inside-longer direction is satisfiable, so no extra
      boolean is needed), the two order booleans activate the
      corresponding serialization edges;
    - gate error scenarios (eqs. 3-8): the powerset of each gate's
      pruned [CanOlp] set becomes a cost group whose scenario cost is
      the worst conditional error among overlapping partners;
    - decoherence (eqs. 9-10): a span cost [(1-omega)/T_q * (R - F_q)]
      per qubit, where [F_q] is the qubit's statically-known first
      gate (per-qubit gate order is fixed by data dependencies);
    - simultaneous readout: measure start times are equated to [R].

    Objective: the paper's eq. 17 in log-success form (matching the
    reference Qiskit pass): minimize
    [omega * sum_g -log(1 - eps_g) + (1-omega) * sum_q t_q / T_q].

    Only CNOT pairs flagged as high-crosstalk in the *characterized*
    data participate - the paper's pruning of CanOlp to 1-hop
    high-conditional-error pairs. *)

type pair = {
  gate1 : int;  (** gate id *)
  gate2 : int;
  o : int;  (** overlap indicator boolean *)
  before : int;  (** gate1 strictly before gate2 *)
  after : int;  (** gate2 strictly before gate1 *)
}

type t = {
  solver : Qcx_smt.Solver.t;
  tau : int array;  (** numeric variable per gate id *)
  readout : int;  (** the R variable *)
  pairs : pair list;
}

type problem = {
  circuit : Qcx_circuit.Circuit.t;  (** SWAP-decomposed; gate ids [0 .. n-1] *)
  gates : Qcx_circuit.Gate.t array;  (** [circuit]'s gates, indexed by id *)
  preds : int list array;  (** direct DAG predecessors per gate id ({!Qcx_circuit.Dag.preds}) *)
  durations : float array;  (** {!Durations.assign} per gate id *)
  flagged : (Qcx_device.Topology.edge * Qcx_device.Topology.edge) list;
      (** characterized high-crosstalk edge pairs at the threshold *)
  instances : (int * int) list;  (** pruned CanOlp pairs [(i, j)], [i < j] ({!prepare}) *)
}
(** Everything a compile derives from the circuit before any omega is
    chosen.  One value serves every rung of {!Xtalk_sched}'s ladder,
    its warm-start hints, the windows of {!Window_sched} (as slices)
    and {!Evaluate.objective}. *)

val prepare :
  device:Qcx_device.Device.t ->
  xtalk:Qcx_device.Crosstalk.t ->
  threshold:float ->
  Qcx_circuit.Circuit.t ->
  problem
(** Decompose SWAPs, then derive the problem.  [threshold] is the
    conditional/independent ratio above which a characterized pair
    counts as high-crosstalk (the paper uses 3).  [instances] is the
    paper's pruned CanOlp rule, the pairs that receive booleans: of
    all CNOT pairs that can overlap (neither is a DAG ancestor of the
    other), only those whose hardware edges form a flagged pair,
    listed by first gate then second gate in program order.  The one
    place a compile builds an ancestor closure
    ({!Qcx_circuit.Dag.of_circuit}); it is dropped once the pairs are
    enumerated. *)

val slice : problem -> lo:int -> hi:int -> problem
(** The sub-problem of gate ids [\[lo, hi)], renumbered from 0: the
    sub-circuit with its own direct predecessors, the durations'
    [Array.sub], and the instances inside the range shifted by [-lo].
    Equal to {!prepare} on the sub-circuit, since DAG edges run
    forward in gate id and every path between two gates of the range
    stays inside it. *)

val build :
  device:Qcx_device.Device.t ->
  xtalk:Qcx_device.Crosstalk.t ->
  omega:float ->
  instances:(int * int) list ->
  problem ->
  t
(** Encode [problem] with booleans for [instances] only — the
    problem's own [instances], or one cluster of them in the cluster
    decomposition. *)

val warm_hints : ?schedules:Qcx_circuit.Schedule.t list -> t -> bool array list
(** Candidate full boolean assignments to seed the solver's incumbent
    ({!Qcx_smt.Solver.solve}'s [warm_starts]): the all-serial
    assignment (every pair ordered [gate1] before [gate2], program
    order — always feasible), the all-overlap assignment, and one
    assignment per given schedule (pairs overlapping in the schedule
    get [o], the rest the matching order boolean).  Infeasible hints
    cost the solver one propagation each and are otherwise ignored. *)

val edge_of : Qcx_circuit.Gate.t -> Qcx_device.Topology.edge
(** The normalized hardware edge of a two-qubit gate. *)

val cost_of_error : omega:float -> float -> float
(** [omega * -log(1 - eps)], with [eps] clamped below 1 — the gate
    error term of eq. 17 for one CNOT. *)

val conditional_rate :
  Qcx_device.Crosstalk.t ->
  Qcx_device.Calibration.t ->
  target:Qcx_device.Topology.edge ->
  spectator:Qcx_device.Topology.edge ->
  float
(** The characterized conditional error of [target] while [spectator]
    runs, floored at the independent rate.  Exposed so schedule
    evaluation ({!Evaluate.objective}) prices overlaps exactly as the
    encoding does. *)
