(** Windowed hierarchical scheduler — the scale rung of the ladder.

    The exact encoding cannot follow circuits past a few hundred gates
    (the replayed full encoding alone becomes the bottleneck), so this
    module partitions the gate stream into id-contiguous time windows,
    solves each window's interfering-pair clusters with the solver
    (pool-parallel {e across} windows), and stitches the
    committed windows together with boundary constraints:

    - {b qubit-availability frontiers}: every gate is released no
      earlier than the committed finish of its qubits' last gates in
      earlier windows (dependencies are id-ordered, so an
      id-contiguous partition never cuts one backwards);
    - {b crosstalk frontiers}: a CNOT on a flagged edge is released
      past the committed finish of every interfering partner already
      scheduled — cross-window flagged pairs are conservatively
      serialized, since the per-window encoding only prices
      intra-window overlaps.

    Releases enter the solver as absolute lower bounds
    ({!Qcx_smt.Solver.add_release}), so each window is solved in the
    global time frame and the composed schedule needs no per-window
    shifting.  Both phases merge results in window order; combined
    with the per-window sequential cluster solve this makes the
    composed schedule bit-identical at every [jobs].

    Quality: within a window, decisions come from the same clustered
    optimization as the [Clustered] rung; the only losses versus a
    monolithic solve are at window boundaries (serialized flagged
    pairs that an exact solve might have preferred to overlap, and
    frontier slack).  The scale bench gates the end-to-end objective
    against exact solves on <= 20-qubit control slices. *)

type result = {
  schedule : Qcx_circuit.Schedule.t;
  windows : int;  (** windows the circuit was partitioned into *)
  clusters : int;  (** total clusters solved across windows *)
  nodes : int;  (** total solver nodes (cluster solves + replays) *)
  objective : float;  (** {!Evaluate.objective} of the composed schedule *)
  boundary_releases : int;
      (** gates whose release was raised by a cross-window flagged
          partner (beyond plain qubit availability) *)
}

val clusters_of : (int * int) list -> (int * int) list list
(** Connected components of instances sharing a gate, sorted by
    smallest member for a [jobs]-independent order.  Shared with
    [Xtalk_sched]'s clustered rung. *)

val solve_cluster_decisions :
  jobs:int ->
  node_budget:int ->
  deadline:(unit -> float option) ->
  build:(instances:(int * int) list -> Encoding.t) ->
  warm:(Encoding.t -> bool array list) ->
  (int * int) list ->
  int * int * ((int * int) * (bool * bool * bool)) list
(** Solve each cluster independently (pool-parallel, merged in cluster
    order) and return [(nclusters, total_nodes, decisions)] where each
    decision maps [(gate1, gate2)] to its [(o, before, after)] values.
    Failed cluster solves contribute no decisions. *)

val pin_decisions : Encoding.t -> ((int * int) * (bool * bool * bool)) list -> unit
(** Pin an encoding's pair booleans to the given decisions with unit
    clauses; undecided pairs stay free. *)

val schedule :
  ?window_gates:int ->
  omega:float ->
  threshold:float ->
  node_budget:int ->
  deadline:(unit -> float option) ->
  jobs:int ->
  device:Qcx_device.Device.t ->
  xtalk:Qcx_device.Crosstalk.t ->
  Qcx_circuit.Circuit.t ->
  result option
(** Schedule an already-SWAP-decomposed circuit in windows of
    [window_gates] gates (default 160; the measure suffix always joins
    the final window so readout stays synchronized).  [deadline] is a
    thunk yielding the remaining solver deadline, polled before every
    solve.  Returns [None] on any failure — deadline expiry mid-stitch,
    invalid composed schedule — letting the ladder fall through to
    greedy. *)
