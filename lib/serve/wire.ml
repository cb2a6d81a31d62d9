module Circuit = Qcx_circuit.Circuit
module Gate = Qcx_circuit.Gate
module Schedule = Qcx_circuit.Schedule
module Xtalk_sched = Qcx_scheduler.Xtalk_sched
module Dd = Qcx_mitigation.Dd
module Json = Qcx_persist.Json

let ( let* ) = Result.bind

(* ---- circuits ---- *)

let gate_to_json (g : Gate.t) =
  let params =
    match g.kind with
    | Gate.Rx t | Gate.Ry t | Gate.Rz t -> [ ("p", Json.Array [ Json.Number t ]) ]
    | Gate.U2 (p, l) -> [ ("p", Json.Array [ Json.Number p; Json.Number l ]) ]
    | _ -> []
  in
  Json.Object
    ([ ("g", Json.String (Gate.kind_name g.kind)) ]
    @ params
    @ [ ("q", Json.Array (List.map (fun q -> Json.Number (float_of_int q)) g.qubits)) ])

let kind_of_name name params =
  match (name, params) with
  | "h", [] -> Ok Gate.H
  | "x", [] -> Ok Gate.X
  | "y", [] -> Ok Gate.Y
  | "z", [] -> Ok Gate.Z
  | "s", [] -> Ok Gate.S
  | "sdg", [] -> Ok Gate.Sdg
  | "t", [] -> Ok Gate.T
  | "tdg", [] -> Ok Gate.Tdg
  | "rx", [ t ] -> Ok (Gate.Rx t)
  | "ry", [ t ] -> Ok (Gate.Ry t)
  | "rz", [ t ] -> Ok (Gate.Rz t)
  | "u2", [ p; l ] -> Ok (Gate.U2 (p, l))
  | ("cx" | "cnot"), [] -> Ok Gate.Cnot
  | "swap", [] -> Ok Gate.Swap
  | "barrier", [] -> Ok Gate.Barrier
  | "measure", [] -> Ok Gate.Measure
  | ("rx" | "ry" | "rz"), _ -> Error (name ^ " takes exactly one parameter")
  | "u2", _ -> Error "u2 takes exactly two parameters"
  | _, _ :: _ -> Error (name ^ " takes no parameters")
  | _ -> Error ("unknown gate " ^ name)

let gate_of_json doc =
  let* name = Json.find_str "g" doc in
  let* params =
    match Json.member "p" doc with
    | None -> Ok []
    | Some p ->
      let* items = Json.to_list p in
      List.fold_left
        (fun acc item ->
          let* tl = acc in
          let* x = Json.to_float item in
          if Float.is_finite x then Ok (x :: tl) else Error "non-finite gate parameter")
        (Ok []) items
      |> Result.map List.rev
  in
  let* kind = kind_of_name name params in
  let* qubits =
    let* items = Json.find_list "q" doc in
    List.fold_left
      (fun acc item ->
        let* tl = acc in
        let* q = Json.to_int item in
        Ok (q :: tl))
      (Ok []) items
    |> Result.map List.rev
  in
  Ok (kind, qubits)

let circuit_to_json circuit =
  Json.Object
    [
      ("nqubits", Json.Number (float_of_int (Circuit.nqubits circuit)));
      ("gates", Json.Array (List.map gate_to_json (Circuit.gates circuit)));
    ]

let circuit_of_json doc =
  let* nq =
    match Json.member "nqubits" doc with
    | Some v -> Json.to_int v
    | None -> Error "missing nqubits"
  in
  if nq <= 0 then Error "nqubits must be positive"
  else
    let* gate_docs = Json.find_list "gates" doc in
    List.fold_left
      (fun acc gdoc ->
        let* circuit = acc in
        let* kind, qubits = gate_of_json gdoc in
        try Ok (Circuit.add circuit kind qubits) with Invalid_argument m -> Error m)
      (Ok (Circuit.create nq))
      gate_docs

(* ---- schedules ---- *)

let schedule_to_json sched =
  let circuit = Schedule.circuit sched in
  let per f = Json.Array (List.map (fun (g : Gate.t) -> Json.Number (f g.id)) (Circuit.gates circuit)) in
  Json.Object
    [
      ("circuit", circuit_to_json circuit);
      ("starts", per (Schedule.start sched));
      ("durations", per (Schedule.duration sched));
    ]

let float_array_of_json what doc =
  let* items = Json.find_list what doc in
  let* values =
    List.fold_left
      (fun acc item ->
        let* tl = acc in
        let* x = Json.to_float item in
        if Float.is_finite x then Ok (x :: tl)
        else Error (what ^ " entries must be finite"))
      (Ok []) items
  in
  Ok (Array.of_list (List.rev values))

let schedule_of_json doc =
  let* circuit =
    match Json.member "circuit" doc with
    | Some c -> circuit_of_json c
    | None -> Error "missing circuit"
  in
  let* starts = float_array_of_json "starts" doc in
  let* durations = float_array_of_json "durations" doc in
  let n = Circuit.length circuit in
  if Array.length starts <> n || Array.length durations <> n then
    Error "starts/durations do not cover the circuit"
  else try Ok (Schedule.make circuit ~starts ~durations) with Invalid_argument m -> Error m

(* ---- scheduler stats ---- *)

let rung_of_name name =
  match
    List.find_opt (fun r -> Xtalk_sched.rung_name r = name) Xtalk_sched.all_rungs
  with
  | Some r -> Ok r
  | None -> Error ("unknown rung " ^ name)

let stats_to_json (s : Xtalk_sched.stats) =
  Json.Object
    [
      ("pairs", Json.Number (float_of_int s.pairs));
      ("clusters", Json.Number (float_of_int s.clusters));
      ("windows", Json.Number (float_of_int s.windows));
      ("nodes", Json.Number (float_of_int s.nodes));
      ("optimal", Json.Bool s.optimal);
      ("objective", Json.Number s.objective);
      ("solve_seconds", Json.Number s.solve_seconds);
      ("cpu_seconds", Json.Number s.cpu_seconds);
      ("idle_total", Json.Number s.idle_total);
      ("idle_max", Json.Number s.idle_max);
      ("rung", Json.String (Xtalk_sched.rung_name s.rung));
    ]

let stats_of_json doc =
  let* pairs = Json.find_float "pairs" doc in
  let* clusters = Json.find_float "clusters" doc in
  let* nodes = Json.find_float "nodes" doc in
  let* optimal =
    match Json.member "optimal" doc with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "missing optimal"
  in
  let* objective = Json.find_float "objective" doc in
  let* solve_seconds = Json.find_float "solve_seconds" doc in
  (* cpu_seconds, windows and the idle fields are absent in cache
     entries persisted before the fields existed. *)
  let cpu_seconds =
    match Json.find_float "cpu_seconds" doc with Ok v -> v | Error _ -> 0.0
  in
  let windows =
    match Json.find_float "windows" doc with Ok v -> int_of_float v | Error _ -> 0
  in
  let idle_total =
    match Json.find_float "idle_total" doc with Ok v -> v | Error _ -> 0.0
  in
  let idle_max =
    match Json.find_float "idle_max" doc with Ok v -> v | Error _ -> 0.0
  in
  let* rung_name = Json.find_str "rung" doc in
  let* rung = rung_of_name rung_name in
  Ok
    {
      Xtalk_sched.pairs = int_of_float pairs;
      clusters = int_of_float clusters;
      windows;
      nodes = int_of_float nodes;
      optimal;
      objective;
      solve_seconds;
      cpu_seconds;
      idle_total;
      idle_max;
      rung;
    }

(* ---- requests ---- *)

type params = {
  omega : float;
  threshold : float;
  deadline : float option;
  ladder_start : Xtalk_sched.rung;
  window : int option;
  mitigation : Dd.sequence option;
}

let default_params =
  {
    omega = 0.5;
    threshold = 3.0;
    deadline = None;
    ladder_start = Xtalk_sched.Exact;
    window = None;
    mitigation = None;
  }

let mitigation_name = function
  | None -> "none"
  | Some seq -> "dd-" ^ Dd.sequence_name seq

let mitigation_of_name = function
  | "none" -> Ok None
  | "dd" -> Ok (Some Dd.XY4)
  | name -> (
    match String.length name > 3 && String.sub name 0 3 = "dd-" with
    | true -> (
      match Dd.sequence_of_name (String.sub name 3 (String.length name - 3)) with
      | Ok seq -> Ok (Some seq)
      | Error e -> Error e)
    | false ->
      Error ("unknown mitigation " ^ name ^ " (expected none | dd | dd-xy4 | dd-x2 | dd-cpmg)"))

type request =
  | Compile of { id : string; device : string; circuit : Circuit.t; params : params }
  | Stats of { id : string }
  | Devices of { id : string }
  | Bump of { id : string; device : string }
  | Calibrate of {
      id : string;
      device : string;
      day : int option;
      force : bool;
      full : bool;
      poison : bool;
    }
  | Epoch_status of { id : string; device : string option }
  | Rollback of { id : string; device : string }
  | Ping of { id : string }
  | Health of { id : string }
  | Shutdown of { id : string }

let request_id = function
  | Compile { id; _ } | Stats { id } | Devices { id } | Bump { id; _ }
  | Calibrate { id; _ } | Epoch_status { id; _ } | Rollback { id; _ } | Ping { id }
  | Health { id } | Shutdown { id } ->
    id

let find_float_opt key doc =
  match Json.member key doc with
  | None | Some Json.Null -> Ok None
  | Some v ->
    let* x = Json.to_float v in
    if Float.is_finite x then Ok (Some x) else Error (key ^ " must be finite")

let params_of_json doc =
  let* omega = find_float_opt "omega" doc in
  let omega = Option.value omega ~default:default_params.omega in
  if not (omega >= 0.0 && omega <= 1.0) then Error "omega must be in [0, 1]"
  else
    let* threshold = find_float_opt "threshold" doc in
    let threshold = Option.value threshold ~default:default_params.threshold in
    if not (threshold > 0.0) then Error "threshold must be positive"
    else
      let* deadline = find_float_opt "deadline" doc in
      let* () =
        match deadline with
        | Some d when d <= 0.0 -> Error "deadline must be positive"
        | _ -> Ok ()
      in
      let* ladder_start =
        match Json.member "ladder_start" doc with
        | None | Some Json.Null -> Ok default_params.ladder_start
        | Some v ->
          let* name = Json.to_str v in
          rung_of_name name
      in
      let* window =
        match Json.member "window" doc with
        | None | Some Json.Null -> Ok default_params.window
        | Some v ->
          let* w = Json.to_int v in
          if w >= 1 then Ok (Some w) else Error "window must be a positive gate count"
      in
      let* mitigation =
        (* Absent (every pre-knob client) means no mitigation. *)
        match Json.member "mitigation" doc with
        | None | Some Json.Null -> Ok default_params.mitigation
        | Some v ->
          let* name = Json.to_str v in
          mitigation_of_name name
      in
      Ok { omega; threshold; deadline; ladder_start; window; mitigation }

let request_of_json doc =
  let id = match Json.find_str "id" doc with Ok id -> id | Error _ -> "" in
  let* op = Json.find_str "op" doc in
  match op with
  | "compile" ->
    let* device = Json.find_str "device" doc in
    let* circuit =
      match Json.member "circuit" doc with
      | Some c -> circuit_of_json c
      | None -> Error "missing circuit"
    in
    let* params = params_of_json doc in
    Ok (Compile { id; device; circuit; params })
  | "stats" -> Ok (Stats { id })
  | "devices" -> Ok (Devices { id })
  | "bump" ->
    let* device = Json.find_str "device" doc in
    Ok (Bump { id; device })
  | "calibrate" ->
    let* device = Json.find_str "device" doc in
    let* day =
      match Json.member "day" doc with
      | None | Some Json.Null -> Ok None
      | Some v ->
        let* d = Json.to_int v in
        if d >= 0 then Ok (Some d) else Error "day must be non-negative"
    in
    let flag key =
      match Json.member key doc with
      | Some (Json.Bool b) -> Ok b
      | None | Some Json.Null -> Ok false
      | Some _ -> Error (key ^ " must be a boolean")
    in
    let* force = flag "force" in
    let* full = flag "full" in
    let* poison = flag "poison" in
    Ok (Calibrate { id; device; day; force; full; poison })
  | "epoch_status" ->
    let* device =
      match Json.member "device" doc with
      | None | Some Json.Null -> Ok None
      | Some v ->
        let* d = Json.to_str v in
        Ok (Some d)
    in
    Ok (Epoch_status { id; device })
  | "rollback" ->
    let* device = Json.find_str "device" doc in
    Ok (Rollback { id; device })
  | "ping" -> Ok (Ping { id })
  | "health" -> Ok (Health { id })
  | "shutdown" -> Ok (Shutdown { id })
  | other -> Error ("unknown op " ^ other)

let request_to_json req =
  let base op id = [ ("op", Json.String op); ("id", Json.String id) ] in
  match req with
  | Compile { id; device; circuit; params } ->
    Json.Object
      (base "compile" id
      @ [
          ("device", Json.String device);
          ("omega", Json.Number params.omega);
          ("threshold", Json.Number params.threshold);
          ( "deadline",
            match params.deadline with None -> Json.Null | Some d -> Json.Number d );
          ("ladder_start", Json.String (Xtalk_sched.rung_name params.ladder_start));
          ( "window",
            match params.window with
            | None -> Json.Null
            | Some w -> Json.Number (float_of_int w) );
          ("mitigation", Json.String (mitigation_name params.mitigation));
          ("circuit", circuit_to_json circuit);
        ])
  | Stats { id } -> Json.Object (base "stats" id)
  | Devices { id } -> Json.Object (base "devices" id)
  | Bump { id; device } -> Json.Object (base "bump" id @ [ ("device", Json.String device) ])
  | Calibrate { id; device; day; force; full; poison } ->
    Json.Object
      (base "calibrate" id
      @ [
          ("device", Json.String device);
          ("day", match day with None -> Json.Null | Some d -> Json.Number (float_of_int d));
          ("force", Json.Bool force);
          ("full", Json.Bool full);
          ("poison", Json.Bool poison);
        ])
  | Epoch_status { id; device } ->
    Json.Object
      (base "epoch_status" id
      @ [ ("device", match device with None -> Json.Null | Some d -> Json.String d) ])
  | Rollback { id; device } ->
    Json.Object (base "rollback" id @ [ ("device", Json.String device) ])
  | Ping { id } -> Json.Object (base "ping" id)
  | Health { id } -> Json.Object (base "health" id)
  | Shutdown { id } -> Json.Object (base "shutdown" id)

(* ---- response helpers ---- *)

let id_field = function None -> Json.Null | Some id -> Json.String id

let error_response ~id msg =
  Json.Object [ ("id", id_field id); ("status", Json.String "error"); ("error", Json.String msg) ]

let doc_id doc = match Json.member "id" doc with Some (Json.String id) -> Some id | _ -> None

let invalid_request_response doc msg = error_response ~id:(doc_id doc) msg

let typed_error ?(extra = []) ~id ~status msg =
  Json.Object
    ([ ("id", id_field id); ("status", Json.String status); ("error", Json.String msg) ]
    @ extra)

let overloaded_response ~id =
  typed_error ~id ~status:"overloaded" "admission queue full; retry later"

let deadline_exceeded_response ~id ~deadline ~elapsed =
  typed_error ~id ~status:"deadline_exceeded"
    (Printf.sprintf "compile exceeded its %.3fs deadline (%.3fs elapsed)" deadline elapsed)
    ~extra:[ ("deadline", Json.Number deadline); ("elapsed", Json.Number elapsed) ]

let breaker_open_response ~id ~device ~retry_after =
  typed_error ~id ~status:"breaker_open"
    (Printf.sprintf "device %s circuit breaker is open; retry in %.1fs" device retry_after)
    ~extra:[ ("device", Json.String device); ("retry_after", Json.Number retry_after) ]

let frame_too_large_response ~id ~limit =
  typed_error ~id ~status:"frame_too_large"
    (Printf.sprintf "input frame exceeds the %d byte limit" limit)
    ~extra:[ ("limit", Json.Number (float_of_int limit)) ]

let internal_error_response ~id msg = typed_error ~id ~status:"internal_error" msg

let unavailable_response ~id ~attempts =
  typed_error ~id ~status:"unavailable"
    (Printf.sprintf "no live shard could serve the request (%d attempt%s)" attempts
       (if attempts = 1 then "" else "s"))
    ~extra:[ ("attempts", Json.Number (float_of_int attempts)) ]

(* ---- id-tag demultiplexing (router pipelining) ----

   The router keeps several batches in flight per shard connection and
   matches responses back to requests by id.  Client ids are not
   unique across connections, so each forwarded compile is retagged
   with a router-unique id on the way out and the response is retagged
   back on the way in.  [retag_line] re-renders through the compact
   printer, which is an identity on printer output — so a retag
   round-trip (out and back to the original id) is byte-exact. *)

let line_id line =
  match Json.of_string line with
  | Error _ -> None
  | Ok doc -> doc_id doc

let with_id doc ~id =
  match doc with
  | Json.Object fields ->
    let replaced = ref false in
    let fields =
      List.map
        (fun (k, v) -> if k = "id" && not !replaced then (replaced := true; (k, Json.String id)) else (k, v))
        fields
    in
    Json.Object (if !replaced then fields else ("id", Json.String id) :: fields)
  | _ -> doc

let retag_line line ~id =
  match Json.of_string line with
  | Error _ -> line
  | Ok doc -> Json.to_string ~indent:false (with_id doc ~id)

let default_max_frame = 1 lsl 20
