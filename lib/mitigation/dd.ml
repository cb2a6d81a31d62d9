module Circuit = Qcx_circuit.Circuit
module Gate = Qcx_circuit.Gate
module Schedule = Qcx_circuit.Schedule
module Device = Qcx_device.Device
module Calibration = Qcx_device.Calibration
module Idle = Qcx_scheduler.Idle
module Channel = Qcx_noise.Channel
module Exec = Qcx_noise.Exec

type sequence = XY4 | X2 | CPMG

let all_sequences = [ XY4; X2; CPMG ]

let sequence_name = function XY4 -> "xy4" | X2 -> "x2" | CPMG -> "cpmg"

let sequence_of_name name =
  match List.find_opt (fun s -> sequence_name s = name) all_sequences with
  | Some s -> Ok s
  | None -> Error ("unknown DD sequence " ^ name ^ " (expected xy4 | x2 | cpmg)")

let pulses_of = function
  | XY4 -> [ Gate.X; Gate.Y; Gate.X; Gate.Y ]
  | X2 -> [ Gate.X; Gate.X ]
  | CPMG -> [ Gate.Y; Gate.Y ]

(* Echo residuals: XY4 refocuses both quadratures and suppresses the
   twirled dephasing hardest; the two-pulse trains echo only one axis
   and leave more residual.  T1 (px/py) is never suppressed. *)
let z_suppression = function XY4 -> 0.05 | CPMG -> 0.10 | X2 -> 0.15

type stats = {
  windows_total : int;
  windows_padded : int;
  pulses : int;
  idle_total : float;
  idle_protected : float;
}

(* A pulse staged for insertion: kind, qubit, start, duration. *)
type pulse = { k : Gate.kind; q : int; at : float; dur : float }

let pad ?(sequence = XY4) ~device sched =
  let circuit = Schedule.circuit sched in
  let cal = Device.calibration device in
  let train = pulses_of sequence in
  let npulses = List.length train in
  let z = z_suppression sequence in
  let windows = Idle.windows sched in
  (* Barriers have zero duration and are invisible to the idle
     windows, but they order the rebuilt circuit's DAG: never pad a
     window a barrier cuts through the middle of (a pulse could
     straddle it and break program order).  Barriers sitting exactly on
     a window boundary are fine — pulses are clamped inside the window,
     so they stay on the right side of it. *)
  let barriers = List.filter Gate.is_barrier (Circuit.gates circuit) in
  let barrier_blocks (w : Idle.window) =
    List.exists
      (fun (g : Gate.t) ->
        List.mem w.Idle.w_qubit g.Gate.qubits
        &&
        let s = Schedule.start sched g.Gate.id in
        s > w.Idle.w_start +. 1e-9 && s < w.Idle.w_finish -. 1e-9)
      barriers
  in
  let staged, nwindows_padded, protected_ns =
    List.fold_left
      (fun (staged, npadded, prot) (w : Idle.window) ->
        let q = w.Idle.w_qubit in
        let qc = Calibration.qubit cal q in
        let d = qc.Calibration.single_qubit_duration in
        let len = w.Idle.w_finish -. w.Idle.w_start in
        let fits = d > 0.0 && len +. 1e-9 >= float_of_int npulses *. d in
        let worthwhile =
          fits
          &&
          (* Pad only when the dephasing the echo removes exceeds the
             depolarizing error the pulses add. *)
          let idle =
            Channel.idle_channel ~t1:qc.Calibration.t1 ~t2:qc.Calibration.t2 ~duration:len
          in
          idle.Channel.pz *. (1.0 -. z)
          > float_of_int npulses *. qc.Calibration.single_qubit_error
        in
        if not (worthwhile && not (barrier_blocks w)) then (staged, npadded, prot)
        else begin
          (* Even spread: pulse k centred at (k + 1/2)/n of the window,
             i.e. tau/2 margins at both ends (CPMG timing). *)
          let step = len /. float_of_int npulses in
          let pulses =
            List.mapi
              (fun k kind ->
                let raw = w.Idle.w_start +. ((float_of_int k +. 0.5) *. step) -. (d /. 2.0) in
                (* Clamp against float round-off so a snug train can
                   never overhang the window by an ulp (the schedule
                   exclusivity check has no tolerance). *)
                let at = Float.max w.Idle.w_start (Float.min (w.Idle.w_finish -. d) raw) in
                { k = kind; q; at; dur = d })
              train
          in
          ((w, pulses) :: staged, npadded + 1, prot +. len)
        end)
      ([], 0, 0.0) windows
  in
  let staged = List.rev staged in
  let pulse_list = List.concat_map snd staged in
  let idle_total = List.fold_left (fun acc (w : Idle.window) -> acc +. (w.w_finish -. w.w_start)) 0.0 windows in
  let stats =
    {
      windows_total = List.length windows;
      windows_padded = nwindows_padded;
      pulses = List.length pulse_list;
      idle_total;
      idle_protected = protected_ns;
    }
  in
  if pulse_list = [] then (sched, [], stats)
  else begin
    (* Rebuild the circuit in time order with the pulses woven in.
       Program order defines the schedule DAG, so time order keeps
       every dependency satisfied; at equal start times the original
       gates come first (rank below any pulse), which keeps zero-width
       barriers ahead of pulses that begin exactly where they sit. *)
    let originals = Schedule.gates_by_start sched in
    let items =
      List.mapi
        (fun rank (g : Gate.t) ->
          ( Schedule.start sched g.Gate.id,
            rank,
            g.Gate.kind,
            g.Gate.qubits,
            Schedule.duration sched g.Gate.id ))
        originals
      @ List.mapi
          (fun i p -> (p.at, List.length originals + i, p.k, [ p.q ], p.dur))
          pulse_list
    in
    let items =
      List.sort
        (fun (s1, r1, _, _, _) (s2, r2, _, _, _) ->
          let c = compare s1 s2 in
          if c <> 0 then c else compare r1 r2)
        items
    in
    let padded_circuit =
      List.fold_left
        (fun c (_, _, kind, qubits, _) -> Circuit.add c kind qubits)
        (Circuit.create (Circuit.nqubits circuit))
        items
    in
    let starts = Array.of_list (List.map (fun (s, _, _, _, _) -> s) items) in
    let durations = Array.of_list (List.map (fun (_, _, _, _, d) -> d) items) in
    let padded = Schedule.make padded_circuit ~starts ~durations in
    (match Schedule.validate padded with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Dd.pad: padded schedule invalid: " ^ msg));
    let protection =
      List.map
        (fun ((w : Idle.window), _) ->
          {
            Exec.p_qubit = w.Idle.w_qubit;
            p_start = w.Idle.w_start;
            p_finish = w.Idle.w_finish;
            p_xy = 1.0;
            p_z = z;
          })
        staged
    in
    (padded, protection, stats)
  end
