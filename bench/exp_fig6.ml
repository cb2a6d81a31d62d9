(* Figure 6: the three schedules for the SWAP path 0 -> 13 on IBMQ
   Poughkeepsie (0-5-10-11-12-13), shown as ASCII timelines, plus the
   barriered circuit XtalkSched emits.

   Things to observe, as in the paper: SerialSched strings all four
   SWAPs out; ParSched overlaps SWAP 5,10 with SWAP 11,12 (the high
   crosstalk pair); XtalkSched serializes exactly those two, and
   orders SWAP 11,12 *first* so that low-coherence qubit 10 (T1 < 6us)
   starts as late as possible. *)

let run (ctx : Ctx.t) =
  Core.Tablefmt.section "Figure 6: schedules for SWAP path 0 -> 13 (Poughkeepsie)";
  let device, xtalk = Ctx.poughkeepsie ctx in
  let bench = Core.Swap_circuits.build device ~src:0 ~dst:13 in
  let circuit = Core.Circuit.measure_all bench.Core.Swap_circuits.circuit in
  Printf.printf "path: %s; CNOT lands on (%d, %d)\n"
    (String.concat "-"
       (List.map string_of_int (Core.Routing.swap_path_qubits device ~src:0 ~dst:13)))
    (fst bench.Core.Swap_circuits.bell)
    (snd bench.Core.Swap_circuits.bell);
  let show name sched =
    let b = Core.Evaluate.oracle device sched in
    Printf.printf "\n--- %s (duration %.0f ns, oracle error %.3f) ---\n" name
      (Core.Evaluate.duration sched) b.Core.Evaluate.error;
    Format.printf "%a@?" Core.Schedule.pp_timeline sched
  in
  show "SerialSched" (Core.Serial_sched.schedule device circuit);
  show "ParSched" (Core.Par_sched.schedule device circuit);
  let sched, _ = Core.Xtalk_sched.schedule ~omega:0.5 ~device ~xtalk circuit in
  show "XtalkSched w=0.5" sched;
  (* The barrier-enforced circuit, as it would be submitted to IBMQ. *)
  let instances =
    (Core.Encoding.prepare ~device ~xtalk ~threshold:3.0 (Core.Schedule.circuit sched))
      .Core.Encoding.instances
  in
  let serialized = Core.Barriers.serialized_pairs sched ~pairs:instances in
  let barriered = Core.Barriers.insert sched ~serialized in
  Printf.printf "\nXtalkSched output with barriers (OpenQASM):\n%s"
    (Core.Qasm.of_circuit barriered);
  (* Ordering check: qubit 10's first gate should start later under
     XtalkSched than qubit 12's (SWAP 11,12 scheduled first). *)
  (match
     ( Core.Schedule.qubit_lifetime sched 10,
       Core.Schedule.qubit_lifetime sched 12 )
   with
  | Some (f10, _), Some (f12, _) ->
    Printf.printf
      "\nqubit 10 (T1 < 6us) first gate at %.0f ns vs qubit 12 at %.0f ns -> %s\n" f10 f12
      (if f10 >= f12 then "low-coherence qubit enters late, as in the paper" else "UNEXPECTED")
  | _ -> ())
