(* Seeded request streams for the serve workloads, and the reference
   each served response is checked against. *)

module Circuit = Core.Circuit
module Device = Core.Device
module Json = Core.Json
module Wire = Core.Wire
module Xtalk_sched = Core.Xtalk_sched

type device = { id : string; device : Device.t; xtalk : Core.Crosstalk.t; epoch : string }

(* Devices as [qcx_serve --oracle-xtalk] registers them. *)
let device id =
  let device =
    match id with
    | "example6q" -> Core.Presets.example_6q ()
    | n -> Option.get (Core.Presets.by_name n)
  in
  let xtalk = Device.ground_truth device in
  { id; device; xtalk; epoch = Core.Registry.epoch_of_xtalk xtalk }

type request = { dev : device; circuit : Circuit.t; params : Wire.params; label : string }

let measured c = List.fold_left Circuit.measure c (Circuit.used_qubits c)

let swap dev ~src ~dst =
  let b = Core.Swap_circuits.build dev.device ~src ~dst in
  measured b.Core.Swap_circuits.circuit

let request ?(mitigation = None) dev label circuit =
  { dev; circuit; params = { Wire.default_params with Wire.mitigation }; label }

(* ---- serve-hot: a fixed template set ---- *)

let hot_devices () = List.map device [ "poughkeepsie"; "johannesburg"; "example6q" ]

(* The templates do not depend on the seed (QAOA angles come from a
   fixed stream), so every seed replays the same working set and only
   the draw order changes. *)
let hot_templates devs =
  let angles = Core.Rng.create 1 in
  List.concat_map
    (fun dev ->
      let regions = Core.Presets.qaoa_regions dev.device in
      let swaps =
        match Core.Presets.swap_endpoints dev.device with
        | [] -> [ (0, 5) ]
        | eps -> List.filteri (fun i _ -> i < 4) eps
      in
      let swaps =
        List.map
          (fun (src, dst) -> request dev (Printf.sprintf "%s/swap-%d-%d" dev.id src dst) (swap dev ~src ~dst))
          swaps
      in
      let qaoas =
        List.filteri (fun i _ -> i < 2) regions
        |> List.mapi (fun i region ->
               request dev (Printf.sprintf "%s/qaoa-%d" dev.id i)
                 (Core.Qaoa.build dev.device ~rng:angles ~region).Core.Qaoa.circuit)
      in
      let shifts =
        match regions with
        | [] -> []
        | region :: _ ->
          List.mapi
            (fun i shift ->
              request dev (Printf.sprintf "%s/hs-%d" dev.id i)
                (Core.Hidden_shift.build dev.device ~region ~shift ~redundancy:0).Core.Hidden_shift.circuit)
            [ [ true; false; true; false ]; [ false; true; true; true ] ]
      in
      swaps @ qaoas @ shifts)
    devs

(* Zipf popularity over the template list: rank r has weight 1/(r+1). *)
let zipf_stream ~rng templates n =
  let weighted = List.mapi (fun r t -> (1.0 /. float_of_int (r + 1), t)) templates in
  Array.init n (fun _ -> Core.Rng.weighted_choice rng weighted)

(* ---- serve-cold: distinct seeded circuits ---- *)

let cold_devices () = List.map device [ "poughkeepsie"; "johannesburg"; "heavy-hex-127" ]

(* Request kinds cycle in a fixed order, so every stretch of the
   stream (in particular the 256 entries a cache snapshot holds) has
   the same mix; sizes, angles and endpoints are drawn from the seed.
   Every fifth request asks for DD padding. *)
type kind = Sup_small | Sup_big | Qaoa | Swap

let kinds =
  [| Sup_small; Qaoa; Swap; Sup_big; Sup_small; Swap; Qaoa; Sup_small; Swap; Qaoa;
     Sup_big; Sup_small; Swap; Qaoa; Sup_small; Swap; Sup_big; Qaoa; Sup_small; Swap |]

(* Supremacy circuits on the 20-qubit devices stay small enough for
   the exact rung; on heavy-hex-127 they pass twice the default window
   (320 gates), so the windowed rung serves them.  Every circuit is
   distinct: fresh rotation draws for supremacy and QAOA, a (device,
   endpoints, mitigation) triple used once for SWAP chains. *)
let cold_stream ~rng devs =
  let arr = Array.of_list devs in
  let big = List.find (fun d -> Device.nqubits d.device > 100) devs in
  let small = List.filter (fun d -> Device.nqubits d.device <= 100) devs |> Array.of_list in
  let used = Hashtbl.create 256 in
  let range lo hi = lo + Core.Rng.int rng (hi - lo + 1) in
  let rec draw i =
    let mitigation = if i mod 5 = 4 then Some Core.Dd.XY4 else None in
    let tag = if mitigation = None then "" else "+dd" in
    match kinds.(i mod Array.length kinds) with
    | Sup_small ->
      let dev = Core.Rng.choice rng small in
      let nqubits = range 4 8 and target_gates = range 20 60 in
      let s = Core.Supremacy.build dev.device ~rng ~nqubits ~target_gates in
      request ~mitigation dev (Printf.sprintf "%s/sup-%dq-%d%s" dev.id nqubits target_gates tag) s.Core.Supremacy.circuit
    | Sup_big ->
      let nqubits = range 16 40 and target_gates = range 330 520 in
      let s = Core.Supremacy.build big.device ~rng ~nqubits ~target_gates in
      request ~mitigation big (Printf.sprintf "%s/sup-%dq-%d%s" big.id nqubits target_gates tag) s.Core.Supremacy.circuit
    | Qaoa ->
      let dev = Core.Rng.choice rng small in
      let region = Core.Rng.choice rng (Array.of_list (Core.Presets.qaoa_regions dev.device)) in
      request ~mitigation dev (Printf.sprintf "%s/qaoa-%d%s" dev.id i tag)
        (Core.Qaoa.build dev.device ~rng ~region).Core.Qaoa.circuit
    | Swap ->
      let dev = Core.Rng.choice rng arr in
      let nq = Device.nqubits dev.device in
      let src = Core.Rng.int rng nq and dst = Core.Rng.int rng nq in
      let key = (dev.id, min src dst, max src dst, mitigation) in
      let dist = Core.Topology.qubit_distance (Device.topology dev.device) src dst in
      if src = dst || dist < 2 || dist > 8 || Hashtbl.mem used key then draw i
      else begin
        Hashtbl.add used key ();
        request ~mitigation dev (Printf.sprintf "%s/swap-%d-%d%s" dev.id src dst tag) (swap dev ~src ~dst)
      end
  in
  (* Drawn in order on first use, so a prefix of the stream never
     depends on how much of it a run consumes. *)
  let drawn = Hashtbl.create 1024 in
  fun i ->
    while Hashtbl.length drawn <= i do
      let n = Hashtbl.length drawn in
      Hashtbl.add drawn n (draw n)
    done;
    Hashtbl.find drawn i

(* ---- wire lines ---- *)

(* The compact request line with its id left as a hole, split around
   the hole so a phase can stamp ids without re-rendering. *)
let line_parts r =
  let doc =
    Wire.request_to_json (Wire.Compile { id = "@ID@"; device = r.dev.id; circuit = r.circuit; params = r.params })
  in
  let s = Json.to_string ~indent:false doc in
  let i =
    let rec find k = if String.sub s k 4 = "@ID@" then k else find (k + 1) in
    find 0
  in
  (String.sub s 0 i, String.sub s (i + 4) (String.length s - i - 4))

(* ---- the reference ---- *)

type reference = { key : string; schedule : Core.Schedule.t; stats : Xtalk_sched.stats }

(* What a cold compile of [r] must serve, made without the service:
   Xtalk_sched directly on the canonical circuit, then DD padding
   when asked for. *)
let reference r =
  let device = r.dev.device in
  let canon = Core.Canon.normalize ~nqubits:(Device.nqubits device) r.circuit in
  let p = r.params in
  let sched, stats =
    Xtalk_sched.schedule ~omega:p.Wire.omega ~threshold:p.Wire.threshold ~ladder_start:p.Wire.ladder_start
      ?window_gates:p.Wire.window ~device ~xtalk:r.dev.xtalk canon
  in
  let schedule, stats =
    match p.Wire.mitigation with
    | None -> (sched, stats)
    | Some sequence ->
      let padded, _, _ = Core.Dd.pad ~sequence ~device sched in
      let idle_total, idle_max = Core.Idle.summarize padded in
      (padded, { stats with Xtalk_sched.idle_total; idle_max })
  in
  { key = Core.Service.cache_key ~device_id:r.dev.id ~epoch:r.dev.epoch ~params:p canon; schedule; stats }

let oracle_error r (ref_ : reference) = (Core.Evaluate.oracle r.dev.device ref_.schedule).Core.Evaluate.error

let timing_fields = [ "solve_seconds"; "cpu_seconds"; "compile_seconds" ]

let strip_timing = function
  | Json.Object fields -> Json.Object (List.filter (fun (k, _) -> not (List.mem k timing_fields)) fields)
  | j -> j

(* A served response is correct when it is [ok], names the request's
   device, epoch and cache key, carries the reference schedule and
   stats (wall-clock fields aside), and its schedule is valid. *)
let check_response r (ref_ : reference) ~cached line =
  let ( let* ) = Result.bind in
  let field k j = Option.to_result ~none:("missing " ^ k) (Json.member k j) in
  let expect what got want = if got = want then Ok () else Error (what ^ " differs") in
  let* doc = Json.of_string line in
  let* status = Json.find_str "status" doc in
  let* () = expect "status" status "ok" in
  let* device = Json.find_str "device" doc in
  let* () = expect "device" device r.dev.id in
  let* epoch = Json.find_str "epoch" doc in
  let* () = expect "epoch" epoch r.dev.epoch in
  let* key = Json.find_str "key" doc in
  let* () = expect "key" key ref_.key in
  let* c = field "cached" doc in
  let* () = expect "cached" c (Json.Bool cached) in
  let* rung = Json.find_str "rung" doc in
  let* () = expect "rung" rung (Xtalk_sched.rung_name ref_.stats.Xtalk_sched.rung) in
  let* stats = field "stats" doc in
  let* () = expect "stats" (strip_timing stats) (strip_timing (Wire.stats_to_json ref_.stats)) in
  let* sched = field "schedule" doc in
  let* () = expect "schedule" sched (Wire.schedule_to_json ref_.schedule) in
  let* served = Wire.schedule_of_json sched in
  Core.Schedule.validate served
