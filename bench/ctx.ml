(* Shared context for the experiment harness: the three devices with
   crosstalk data characterized through the real pipeline (1-hop +
   bin-packing policy), plus quality knobs.

   Every experiment seeds its own Rng from here, so experiments are
   reproducible and order-independent. *)

type quality = Quick | Full

type t = {
  quality : quality;
  devices : (Core.Device.t * Core.Crosstalk.t) list;
      (** device, characterized conditional-error data *)
}

let rb_params = function
  | Quick -> { Core.Rb.lengths = [ 1; 2; 4; 8; 16; 32 ]; seeds = 6; trials = 192 }
  | Full -> { Core.Rb.lengths = [ 1; 2; 4; 6; 10; 16; 24; 32; 40 ]; seeds = 8; trials = 256 }

let tomography_trials = function Quick -> 192 | Full -> 1024
let distribution_trials = function Quick -> 2048 | Full -> 8192

let characterize quality device =
  let rng = Core.Rng.create (Hashtbl.hash (Core.Device.name device, "bench-characterize")) in
  let plan = Core.Policy.plan ~rng device Core.Policy.One_hop_binpacked in
  let outcome = Core.Policy.characterize ~params:(rb_params quality) ~rng device plan in
  outcome.Core.Policy.xtalk

let create quality =
  let devices =
    List.map (fun d -> (d, characterize quality d)) (Core.Presets.all ())
  in
  { quality; devices }

let poughkeepsie t = List.hd t.devices

let rng_for name = Core.Rng.create (Hashtbl.hash (name, "bench-seed"))

(* Crosstalk-prone SWAP endpoints for Figure 5: the paper's published
   endpoint lists filtered to circuits that actually cross a
   characterized high-crosstalk pair, topped up with additional prone
   paths so the three devices together provide ~46 circuits. *)
let swap_endpoints device ~xtalk =
  let listed = Core.Presets.swap_endpoints device in
  let prone (src, dst) =
    src <> dst
    && Core.Topology.qubit_distance (Core.Device.topology device) src dst >= 1
    &&
    let bench = Core.Swap_circuits.build device ~src ~dst in
    Core.Swap_circuits.is_crosstalk_prone device ~xtalk bench
  in
  let from_list = List.filter prone listed in
  if List.length from_list >= 12 then from_list
  else begin
    (* Fall back to scanning the device for prone paths. *)
    let n = Core.Device.nqubits device in
    let all = ref [] in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        if
          Core.Topology.qubit_distance (Core.Device.topology device) a b >= 2
          && prone (a, b)
        then all := (a, b) :: !all
      done
    done;
    let extra = List.filter (fun p -> not (List.mem p from_list)) (List.rev !all) in
    let rec take k = function
      | [] -> []
      | x :: rest -> if k <= 0 then [] else x :: take (k - 1) rest
    in
    from_list @ take (max 0 (14 - List.length from_list)) extra
  end

(* Solve the XtalkSched optimization once on [base + measures], then
   return a scheduler function that replays the serialization
   decisions on any extension of the base circuit (tomography basis
   rotations, etc.) through the ordinary parallel scheduler — the
   paper's barrier-deployment path. *)
let deployed_xtalk_scheduler ?(omega = 0.5) device ~xtalk base_circuit =
  let probe = Core.Circuit.measure_all base_circuit in
  let sched0, stats =
    Core.Xtalk_sched.schedule ~omega ~device ~xtalk probe
  in
  let instances =
    (Core.Encoding.prepare ~device ~xtalk ~threshold:3.0 (Core.Schedule.circuit sched0))
      .Core.Encoding.instances
  in
  let serialized = Core.Barriers.serialized_pairs sched0 ~pairs:instances in
  let scheduler c = Core.Par_sched.schedule_with_orderings device c ~extra:serialized in
  (scheduler, stats)
