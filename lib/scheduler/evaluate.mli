(** Schedule quality metrics.

    Two views:
    - the {e model} view, computed from calibration plus characterized
      crosstalk data — what the compiler believes (used for objective
      sanity checks); and
    - the {e oracle} view, computed from the device's ground truth with
      the same error composition as the noise engine — the analytic
      expectation of a hardware run (used by the figure harnesses
      alongside full Monte-Carlo tomography). *)

type breakdown = {
  gate_success : float;  (** product of per-gate success probabilities *)
  decoherence_success : float;  (** product of per-qubit e^{-t/T} *)
  readout_success : float;  (** product of per-measure (1 - readout error) *)
  success : float;  (** product of the three *)
  error : float;  (** 1 - success *)
}

val oracle : Qcx_device.Device.t -> Qcx_circuit.Schedule.t -> breakdown
(** Uses [Device.ground_truth] via [Qcx_noise.Exec.effective_cnot_error]. *)

val model :
  Qcx_device.Device.t -> xtalk:Qcx_device.Crosstalk.t -> Qcx_circuit.Schedule.t -> breakdown
(** Uses characterized data and the paper's max-over-overlaps rule. *)

val objective :
  omega:float ->
  Qcx_device.Device.t ->
  xtalk:Qcx_device.Crosstalk.t ->
  Encoding.problem ->
  Qcx_circuit.Schedule.t ->
  float
(** Recompute the encoding's eq. 17 objective from a schedule of the
    problem's circuit (the interfering instances are the problem's, so
    the threshold is the one it was prepared at):
    [omega * sum -log(1 - eps_g)] over CNOTs with at least one
    interfering instance (eps is the worst conditional rate among
    partners actually overlapping in the schedule), plus
    [(1-omega)/T_q * (R - F_q)] per qubit.  Omits the encoding's
    infinitesimal makespan tie-break, so it can differ from a solver
    objective by ~1e-9 * makespan.  Used by the scale bench's quality
    gate to compare windowed against exact schedules. *)

val duration : Qcx_circuit.Schedule.t -> float
(** Program duration: makespan of the unitary portion (readout
    excluded), the quantity of Figure 5(d). *)

val lifetimes : Qcx_circuit.Schedule.t -> (int * float) list
(** Per-qubit lifetimes in ns (first gate start to last op finish). *)
