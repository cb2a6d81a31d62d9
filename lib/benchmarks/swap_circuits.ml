module Circuit = Qcx_circuit.Circuit
module Device = Qcx_device.Device
module Topology = Qcx_device.Topology
module Routing = Qcx_scheduler.Routing
module Encoding = Qcx_scheduler.Encoding

type t = {
  circuit : Circuit.t;
  bell : int * int;
  src : int;
  dst : int;
  path_length : int;
}

let assemble device ~src ~dst (swaps, bell) =
  let path_length = Topology.qubit_distance (Device.topology device) src dst in
  let c = Circuit.create (Device.nqubits device) in
  let c = Circuit.h c src in
  let c = List.fold_left (fun acc (a, b) -> Circuit.swap acc a b) c swaps in
  let ba, bb = bell in
  let c = Circuit.cnot c ~control:ba ~target:bb in
  { circuit = Circuit.decompose_swaps c; bell; src; dst; path_length }

let build device ~src ~dst = assemble device ~src ~dst (Routing.meet_in_middle device ~src ~dst)

let build_aware device ~xtalk ?(threshold = 3.0) ?(penalty = 0.9) ~src ~dst () =
  assemble device ~src ~dst
    (Routing.meet_in_middle_aware device ~xtalk ~threshold ~penalty ~src ~dst ())

let swap_count t = (Circuit.two_qubit_count t.circuit - 1) / 3

let is_crosstalk_prone device ~xtalk ?(threshold = 3.0) t =
  (Encoding.prepare ~device ~xtalk ~threshold t.circuit).instances <> []

let crosstalk_free_paths device ~xtalk ?(threshold = 3.0) ~length () =
  let topo = Device.topology device in
  let n = Topology.nqubits topo in
  let out = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if Topology.qubit_distance topo a b = length then begin
        let t = build device ~src:a ~dst:b in
        if not (is_crosstalk_prone device ~xtalk ~threshold t) then out := (a, b) :: !out
      end
    done
  done;
  List.rev !out
