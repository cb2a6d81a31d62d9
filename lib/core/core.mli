(** Top-level facade for the crosstalk-mitigation toolchain.

    Re-exports every subsystem under one roof and provides
    {!Pipeline}, the end-to-end flow of the paper's Figure 2:
    characterize the device's crosstalk, compile a program with a
    crosstalk-adaptive schedule, and execute it on the (simulated)
    hardware.

    {1 Quick start}

    {[
      let device = Core.Presets.poughkeepsie () in
      let rng = Core.Rng.create 7 in
      (* 1. characterize (Sections 5/10) *)
      let xtalk = Core.Pipeline.characterize device ~rng in
      (* 2. compile with XtalkSched (Sections 6/7) *)
      let bench = Core.Swap_circuits.build device ~src:0 ~dst:13 in
      let circuit = Core.Circuit.measure_all bench.Core.Swap_circuits.circuit in
      let sched, _stats = Core.Pipeline.compile device ~xtalk ~omega:0.5 circuit in
      (* 3. execute *)
      let counts = Core.Pipeline.execute device sched ~rng ~trials:1024 in
      ignore counts
    ]} *)

module Rng = Qcx_util.Rng
module Pool = Qcx_util.Pool
module Stats = Qcx_util.Stats
module Fit = Qcx_util.Fit
module Tablefmt = Qcx_util.Tablefmt
module Cplx = Qcx_linalg.Cplx
module Mat = Qcx_linalg.Mat
module Gates = Qcx_linalg.Gates
module Gate = Qcx_circuit.Gate
module Circuit = Qcx_circuit.Circuit
module Dag = Qcx_circuit.Dag
module Schedule = Qcx_circuit.Schedule
module Qasm = Qcx_circuit.Qasm
module Topology = Qcx_device.Topology
module Calibration = Qcx_device.Calibration
module Crosstalk = Qcx_device.Crosstalk
module Device = Qcx_device.Device
module Presets = Qcx_device.Presets
module Drift = Qcx_device.Drift
module Tableau = Qcx_stabilizer.Tableau
module State = Qcx_statevector.State
module Density = Qcx_densitymatrix.Density
module Json = Qcx_persist.Json
module Store = Qcx_persist.Store
module Channel = Qcx_noise.Channel
module Exec = Qcx_noise.Exec
module Solver = Qcx_smt.Solver
module Dgraph = Qcx_smt.Dgraph
module Clifford1 = Qcx_characterization.Clifford1
module Clifford2 = Qcx_characterization.Clifford2
module Rb = Qcx_characterization.Rb
module Binpack = Qcx_characterization.Binpack
module Policy = Qcx_characterization.Policy
module Routing = Qcx_scheduler.Routing
module Layout = Qcx_scheduler.Layout
module Durations = Qcx_scheduler.Durations
module Par_sched = Qcx_scheduler.Par_sched
module Serial_sched = Qcx_scheduler.Serial_sched
module Encoding = Qcx_scheduler.Encoding
module Xtalk_sched = Qcx_scheduler.Xtalk_sched
module Window_sched = Qcx_scheduler.Window_sched
module Greedy_sched = Qcx_scheduler.Greedy_sched
module Barriers = Qcx_scheduler.Barriers
module Evaluate = Qcx_scheduler.Evaluate
module Idle = Qcx_scheduler.Idle
module Dd = Qcx_mitigation.Dd
module Zne = Qcx_mitigation.Zne
module Leaderboard = Qcx_mitigation.Leaderboard
module Swap_circuits = Qcx_benchmarks.Swap_circuits
module Qaoa = Qcx_benchmarks.Qaoa
module Hidden_shift = Qcx_benchmarks.Hidden_shift
module Supremacy = Qcx_benchmarks.Supremacy
module Fault_plan = Qcx_faults.Fault_plan
module Service_faults = Qcx_faults.Service_faults
module Canon = Qcx_serve.Canon
module Wire = Qcx_serve.Wire
module Cache = Qcx_serve.Cache
module Breaker = Qcx_serve.Breaker
module Journal = Qcx_serve.Journal
module Registry = Qcx_serve.Registry
module Calibrator = Qcx_serve.Calibrator
module Service = Qcx_serve.Service
module Server = Qcx_serve.Server
module Ring = Qcx_serve.Ring
module Replica = Qcx_serve.Replica
module Shard = Qcx_serve.Shard
module Router = Qcx_serve.Router
module Fleet = Qcx_serve.Fleet
module Tomography = Qcx_metrics.Tomography
module Cross_entropy = Qcx_metrics.Cross_entropy
module Readout_mitigation = Qcx_metrics.Readout_mitigation

(** The three schedulers of Table 1. *)
type scheduler =
  | Serial_sched  (** full serialization: mitigates crosstalk only *)
  | Par_sched  (** maximal parallelism: mitigates decoherence only *)
  | Xtalk_sched of float  (** SMT optimization with weight factor omega *)

val scheduler_name : scheduler -> string

module Pipeline : sig
  (** End-to-end flow (Figure 2). *)

  val characterize :
    ?policy:Policy.policy ->
    ?params:Rb.params ->
    ?jobs:int ->
    Device.t ->
    rng:Rng.t ->
    Crosstalk.t
  (** Run crosstalk characterization and return the conditional-error
      data for the compiler.  Default policy: 1-hop pairs with
      bin-packed parallel experiments (Optimizations 1+2). *)

  val compile :
    ?scheduler:scheduler ->
    ?node_budget:int ->
    ?deadline_seconds:float ->
    ?ladder_start:Xtalk_sched.rung ->
    ?window_gates:int ->
    ?jobs:int ->
    Device.t ->
    xtalk:Crosstalk.t ->
    Circuit.t ->
    Schedule.t * Xtalk_sched.stats option
  (** Schedule a hardware-compliant circuit (SWAPs are decomposed
      internally).  Default: [Xtalk_sched 0.5].  Stats are [None] for
      the baseline schedulers.  [node_budget] and [deadline_seconds]
      bound the SMT solve; on expiry {!Xtalk_sched.schedule}'s
      degradation ladder serves the compile, so this never fails.
      [ladder_start], [window_gates] and [jobs] pass through to
      {!Xtalk_sched.schedule} (entry rung, windowed-rung window size,
      and worker-pool width). *)

  val execute :
    ?backend:Exec.backend ->
    ?jobs:int ->
    Device.t ->
    Schedule.t ->
    rng:Rng.t ->
    trials:int ->
    Exec.counts
  (** Run on the simulated hardware.  Default backend: stabilizer;
      [jobs] (default 1) shards trajectories over domains with
      bit-identical counts (see {!Exec.run}). *)
end
