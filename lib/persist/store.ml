module Crosstalk = Qcx_device.Crosstalk
module Calibration = Qcx_device.Calibration
module Topology = Qcx_device.Topology
module Device = Qcx_device.Device

let ( let* ) = Result.bind

(* ---- value validation ----

   Characterization data feeds straight into scheduling objectives, so
   a single NaN or negative rate ingested here poisons every compile
   of the day.  Loaders therefore reject anything non-physical instead
   of trusting the file. *)

let valid_rate r = Float.is_finite r && r >= 0.0 && r <= 1.0

let checked_rate ~what r =
  if valid_rate r then Ok r
  else Error (Printf.sprintf "%s out of range: %h (want finite in [0,1])" what r)

let checked_positive ~what v =
  if Float.is_finite v && v > 0.0 then Ok v
  else Error (Printf.sprintf "%s out of range: %h (want finite > 0)" what v)

let edge_to_json (a, b) = Json.Array [ Json.Number (float_of_int a); Json.Number (float_of_int b) ]

let edge_of_json = function
  | Json.Array [ a; b ] ->
    let* a = Json.to_int a in
    let* b = Json.to_int b in
    Ok (Topology.normalize (a, b))
  | _ -> Error "expected [a, b] edge"

let crosstalk_to_json xtalk =
  Json.Object
    [
      ("format", Json.String "qcx-crosstalk-v1");
      ( "entries",
        Json.Array
          (List.map
             (fun (target, spectator, rate) ->
               Json.Object
                 [
                   ("target", edge_to_json target);
                   ("spectator", edge_to_json spectator);
                   ("rate", Json.Number rate);
                 ])
             (Crosstalk.entries xtalk)) );
    ]

let crosstalk_of_json ?topology doc =
  let* fmt = Json.find_str "format" doc in
  if fmt <> "qcx-crosstalk-v1" then Error ("unknown format " ^ fmt)
  else
    let check_edge what e =
      match topology with
      | None -> Ok e
      | Some topo ->
        if Topology.has_edge topo e then Ok e
        else Error (Printf.sprintf "%s (%d, %d) is not a coupling-map edge" what (fst e) (snd e))
    in
    let* entries = Json.find_list "entries" doc in
    List.fold_left
      (fun acc entry ->
        let* xtalk = acc in
        let* target =
          match Json.member "target" entry with
          | Some e -> edge_of_json e
          | None -> Error "missing target"
        in
        let* target = check_edge "target" target in
        let* spectator =
          match Json.member "spectator" entry with
          | Some e -> edge_of_json e
          | None -> Error "missing spectator"
        in
        let* spectator = check_edge "spectator" spectator in
        let* rate = Json.find_float "rate" entry in
        let* rate = checked_rate ~what:"conditional rate" rate in
        if target = spectator then Error "target and spectator coincide"
        else Ok (Crosstalk.set xtalk ~target ~spectator rate))
      (Ok Crosstalk.empty) entries

let qubit_to_json (q : Calibration.qubit_cal) =
  Json.Object
    [
      ("t1", Json.Number q.Calibration.t1);
      ("t2", Json.Number q.Calibration.t2);
      ("readout_error", Json.Number q.Calibration.readout_error);
      ("single_qubit_error", Json.Number q.Calibration.single_qubit_error);
      ("single_qubit_duration", Json.Number q.Calibration.single_qubit_duration);
      ("readout_duration", Json.Number q.Calibration.readout_duration);
    ]

let qubit_of_json doc =
  let* t1 = Json.find_float "t1" doc in
  let* t1 = checked_positive ~what:"t1" t1 in
  let* t2 = Json.find_float "t2" doc in
  let* t2 = checked_positive ~what:"t2" t2 in
  let* readout_error = Json.find_float "readout_error" doc in
  let* readout_error = checked_rate ~what:"readout_error" readout_error in
  let* single_qubit_error = Json.find_float "single_qubit_error" doc in
  let* single_qubit_error = checked_rate ~what:"single_qubit_error" single_qubit_error in
  let* single_qubit_duration = Json.find_float "single_qubit_duration" doc in
  let* single_qubit_duration = checked_positive ~what:"single_qubit_duration" single_qubit_duration in
  let* readout_duration = Json.find_float "readout_duration" doc in
  let* readout_duration = checked_positive ~what:"readout_duration" readout_duration in
  Ok
    {
      Calibration.t1;
      t2;
      readout_error;
      single_qubit_error;
      single_qubit_duration;
      readout_duration;
    }

let calibration_to_json cal ~edges =
  Json.Object
    [
      ("format", Json.String "qcx-calibration-v1");
      ( "qubits",
        Json.Array
          (List.init (Calibration.nqubits cal) (fun q -> qubit_to_json (Calibration.qubit cal q)))
      );
      ( "gates",
        Json.Array
          (List.map
             (fun e ->
               let g = Calibration.gate cal e in
               Json.Object
                 [
                   ("edge", edge_to_json e);
                   ("cnot_error", Json.Number g.Calibration.cnot_error);
                   ("cnot_duration", Json.Number g.Calibration.cnot_duration);
                 ])
             edges) );
    ]

let calibration_of_json doc =
  let* fmt = Json.find_str "format" doc in
  if fmt <> "qcx-calibration-v1" then Error ("unknown format " ^ fmt)
  else
    let* qubit_docs = Json.find_list "qubits" doc in
    let* qubits =
      List.fold_left
        (fun acc qdoc ->
          let* tl = acc in
          let* q = qubit_of_json qdoc in
          Ok (q :: tl))
        (Ok []) qubit_docs
    in
    let qubits = Array.of_list (List.rev qubits) in
    if Array.length qubits = 0 then Error "calibration has no qubits"
    else
    let* gate_docs = Json.find_list "gates" doc in
    let* gates =
      List.fold_left
        (fun acc gdoc ->
          let* tl = acc in
          let* edge =
            match Json.member "edge" gdoc with
            | Some e -> edge_of_json e
            | None -> Error "missing edge"
          in
          let* cnot_error = Json.find_float "cnot_error" gdoc in
          let* cnot_error = checked_rate ~what:"cnot_error" cnot_error in
          let* cnot_duration = Json.find_float "cnot_duration" gdoc in
          let* cnot_duration = checked_positive ~what:"cnot_duration" cnot_duration in
          Ok ((edge, { Calibration.cnot_error; cnot_duration }) :: tl))
        (Ok []) gate_docs
    in
    (try Ok (Calibration.create ~qubits ~gates) with Invalid_argument m -> Error m)

let device_snapshot_to_json device =
  let topo = Device.topology device in
  Json.Object
    [
      ("format", Json.String "qcx-device-v1");
      ("name", Json.String (Device.name device));
      ("nqubits", Json.Number (float_of_int (Topology.nqubits topo)));
      ("edges", Json.Array (List.map edge_to_json (Topology.edges topo)));
      ( "calibration",
        calibration_to_json (Device.calibration device) ~edges:(Topology.edges topo) );
    ]

let device_snapshot_of_json doc =
  let* fmt = Json.find_str "format" doc in
  if fmt <> "qcx-device-v1" then Error ("unknown format " ^ fmt)
  else
    let* name = Json.find_str "name" doc in
    let* nq =
      match Json.member "nqubits" doc with Some v -> Json.to_int v | None -> Error "missing nqubits"
    in
    let* edge_docs = Json.find_list "edges" doc in
    let* edges =
      List.fold_left
        (fun acc e ->
          let* tl = acc in
          let* edge = edge_of_json e in
          Ok (edge :: tl))
        (Ok []) edge_docs
    in
    let* topo =
      try Ok (Topology.create ~nqubits:nq ~edges:(List.rev edges))
      with Invalid_argument m -> Error m
    in
    let* cal =
      match Json.member "calibration" doc with
      | Some c -> calibration_of_json c
      | None -> Error "missing calibration"
    in
    if Calibration.nqubits cal <> Topology.nqubits topo then
      Error "calibration qubit count disagrees with the coupling map"
    else Ok (name, topo, cal)

(* ---- file envelope (format v2) ----

   Every file carries a schema version and a content checksum over the
   canonical serialization of the payload.  [Json.to_string] emission
   is deterministic, so re-serializing the parsed payload reproduces
   the exact string the checksum was computed from; any bit damage to
   the payload region changes either the parse or the recomputed
   digest, and damage to the checksum field itself also fails the
   comparison.  Truncation fails the parse outright. *)

let envelope_format = "qcx-store-v2"

let payload_digest doc = Digest.to_hex (Digest.string (Json.to_string doc))

let envelope doc =
  Json.Object
    [
      ("format", Json.String envelope_format);
      ("checksum", Json.String (payload_digest doc));
      ("payload", doc);
    ]

let open_envelope doc =
  match doc with
  | Json.Object fields when List.mem_assoc "payload" fields -> (
    let* fmt = Json.find_str "format" doc in
    if fmt <> envelope_format then Error ("unsupported store version " ^ fmt)
    else
      let* checksum = Json.find_str "checksum" doc in
      match List.assoc_opt "payload" fields with
      | None -> Error "missing payload"
      | Some payload ->
        if String.lowercase_ascii checksum = payload_digest payload then Ok payload
        else Error "checksum mismatch: file content is damaged")
  | _ ->
    (* Legacy v1 files are bare payloads with their own per-type
       format tag; accept them so pre-v2 snapshots stay loadable. *)
    Ok doc

let fsync_dir dir =
  (* Durability of a rename needs the parent directory's metadata on
     disk too: the file data can be fsync'd and the rename still lost
     if the OS dies before the directory block is written.  Best
     effort — platforms that refuse to fsync a directory fd degrade to
     the old rename-only behavior instead of failing the save. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let write_atomic ~path write =
  (* Write-then-fsync-then-rename: a writer that dies mid-write leaves
     only a stale [.tmp], never a truncated file at [path] for a reader
     (or the server's registry) to quarantine; fsyncing the file before
     and the directory after the rename makes the commit survive an OS
     crash, not just a process crash. *)
  let tmp = path ^ ".tmp" in
  let discard_tmp () = try if Sys.file_exists tmp then Sys.remove tmp with Sys_error _ -> () in
  try
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let oc = Unix.out_channel_of_descr fd in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        write oc;
        flush oc;
        try Unix.fsync fd with Unix.Unix_error _ -> ());
    Sys.rename tmp path;
    fsync_dir (Filename.dirname path);
    Ok ()
  with
  | Sys_error msg ->
    discard_tmp ();
    Error msg
  | Unix.Unix_error (err, fn, _) ->
    discard_tmp ();
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))

let save ~path doc =
  write_atomic ~path (fun oc ->
      output_string oc (Json.to_string (envelope doc));
      output_char oc '\n')

let load ~path =
  try
    let ic = open_in path in
    let* doc =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Json.of_string (really_input_string ic (in_channel_length ic)))
    in
    open_envelope doc
  with
  | Sys_error msg -> Error msg
  | End_of_file -> Error (path ^ ": unexpected end of file")

let save_crosstalk ~path xtalk = save ~path (crosstalk_to_json xtalk)

let load_crosstalk ?topology ~path () =
  let* doc = load ~path in
  crosstalk_of_json ?topology doc

(* ---- quarantine and fallback ---- *)

let quarantine ~path =
  let rec fresh candidate n =
    if Sys.file_exists candidate then fresh (Printf.sprintf "%s.corrupt.%d" path n) (n + 1)
    else candidate
  in
  let target = fresh (path ^ ".corrupt") 1 in
  try
    Sys.rename path target;
    Ok target
  with Sys_error msg -> Error msg

type load_report = {
  data : Crosstalk.t option;
  source : string option;
  quarantined : (string * string) list;
}

let load_crosstalk_resilient ?topology ~paths () =
  let quarantined = ref [] in
  let rec attempt = function
    | [] -> { data = None; source = None; quarantined = List.rev !quarantined }
    | path :: rest ->
      if not (Sys.file_exists path) then attempt rest
      else begin
        match load_crosstalk ?topology ~path () with
        | Ok xtalk -> { data = Some xtalk; source = Some path; quarantined = List.rev !quarantined }
        | Error why ->
          (match quarantine ~path with
          | Ok _ -> quarantined := (path, why) :: !quarantined
          | Error rename_err -> quarantined := (path, why ^ "; quarantine failed: " ^ rename_err) :: !quarantined);
          attempt rest
      end
  in
  attempt paths
