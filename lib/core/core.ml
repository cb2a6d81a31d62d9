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

type scheduler = Serial_sched | Par_sched | Xtalk_sched of float

let scheduler_name = function
  | Serial_sched -> "SerialSched"
  | Par_sched -> "ParSched"
  | Xtalk_sched omega -> Printf.sprintf "XtalkSched(w=%.2f)" omega

module Pipeline = struct
  let characterize ?policy ?params ?jobs device ~rng =
    let policy =
      match policy with
      | Some p -> p
      | None -> Qcx_characterization.Policy.One_hop_binpacked
    in
    let plan = Qcx_characterization.Policy.plan ~rng device policy in
    let outcome = Qcx_characterization.Policy.characterize ?params ?jobs ~rng device plan in
    outcome.Qcx_characterization.Policy.xtalk

  let compile ?(scheduler = Xtalk_sched 0.5) ?node_budget ?deadline_seconds ?ladder_start
      ?window_gates ?jobs device ~xtalk circuit =
    let circuit = Qcx_circuit.Circuit.decompose_swaps circuit in
    match scheduler with
    | Serial_sched -> (Qcx_scheduler.Serial_sched.schedule device circuit, None)
    | Par_sched -> (Qcx_scheduler.Par_sched.schedule device circuit, None)
    | Xtalk_sched omega ->
      let sched, stats =
        Qcx_scheduler.Xtalk_sched.schedule ~omega ?node_budget ?deadline_seconds
          ?ladder_start ?window_gates ?jobs ~device ~xtalk circuit
      in
      (sched, Some stats)

  let execute ?(backend = Qcx_noise.Exec.Stabilizer) ?jobs device sched ~rng ~trials =
    Qcx_noise.Exec.run ?jobs device sched ~rng ~trials ~backend
end
