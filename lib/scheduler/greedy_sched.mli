(** GreedySched: a cheap heuristic alternative to the SMT scheduler.

    Serializes {e every} interfering CNOT instance pair in program
    order (no overlap-allowance reasoning, no reordering in favour of
    low-coherence qubits) and replays the result through the ordinary
    parallel scheduler.  Linear-time in the number of interfering
    pairs — a useful baseline for the `ablation` bench, quantifying
    what the paper's exact optimization buys over the obvious greedy
    fix, and a practical fallback for very large programs. *)

val schedule : Qcx_device.Device.t -> Encoding.problem -> Qcx_circuit.Schedule.t * int
(** Returns the schedule of the problem's (SWAP-decomposed) circuit
    and the number of instance pairs serialized — the problem's
    [instances], so the threshold is the one it was prepared at.  As
    the ladder's Greedy rung and as a warm-start hint it reads the
    compile's one preparation and derives nothing again. *)
