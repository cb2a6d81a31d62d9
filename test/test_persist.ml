(* Tests for the persistence layer: the JSON reader/writer and the
   crosstalk/calibration/device stores. *)

module Json = Core.Json
module Store = Core.Store
module Crosstalk = Core.Crosstalk
module Presets = Core.Presets
module Device = Core.Device

(* ---- Json ---- *)

let json_roundtrip () =
  let doc =
    Json.Object
      [
        ("name", Json.String "hello \"world\"\nline two");
        ("count", Json.Number 42.0);
        ("rate", Json.Number 0.015625);
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("items", Json.Array [ Json.Number 1.0; Json.String "two"; Json.Bool false ]);
        ("nested", Json.Object [ ("deep", Json.Array [ Json.Object [] ]) ]);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "roundtrip" true (parsed = doc)
  | Error e -> Alcotest.fail e

let json_parse_whitespace_and_compact () =
  let src = {|  { "a" : [ 1 , 2.5 , -3e2 ] , "b" : { } , "c" : [ ] }  |} in
  match Json.of_string src with
  | Ok (Json.Object fields) ->
    Alcotest.(check int) "three fields" 3 (List.length fields);
    (match List.assoc "a" fields with
    | Json.Array [ Json.Number a; Json.Number b; Json.Number c ] ->
      Alcotest.(check (float 1e-9)) "1" 1.0 a;
      Alcotest.(check (float 1e-9)) "2.5" 2.5 b;
      Alcotest.(check (float 1e-9)) "-300" (-300.0) c
    | _ -> Alcotest.fail "bad array")
  | Ok _ -> Alcotest.fail "expected object"
  | Error e -> Alcotest.fail e

let json_parse_errors () =
  List.iter
    (fun src ->
      match Json.of_string src with
      | Ok _ -> Alcotest.failf "expected error for %S" src
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "\"unterminated"; "tru"; "1 2"; "{\"a\":}" ]

let json_accessors () =
  let doc = Json.Object [ ("x", Json.Number 3.0); ("s", Json.String "v") ] in
  Alcotest.(check bool) "find_float" true (Json.find_float "x" doc = Ok 3.0);
  Alcotest.(check bool) "find_str" true (Json.find_str "s" doc = Ok "v");
  Alcotest.(check bool) "missing" true (Result.is_error (Json.find_float "y" doc));
  Alcotest.(check bool) "to_int" true (Json.to_int (Json.Number 7.0) = Ok 7);
  Alcotest.(check bool) "to_int rejects fraction" true
    (Result.is_error (Json.to_int (Json.Number 7.5)))

let json_to_int_range () =
  let to_int x = Json.to_int (Json.Number x) in
  Alcotest.(check bool) "min_int" true (to_int (-4611686018427387904.0) = Ok min_int);
  Alcotest.(check bool) "largest float below 2^62" true
    (to_int 4611686018427387392.0 = Ok 4611686018427387392);
  List.iter
    (fun x ->
      Alcotest.(check bool) (Printf.sprintf "%g out of range" x) true
        (to_int x = Error "integer out of range"))
    [ 4611686018427387904.0; -4611686018427388928.0; 1e300; -1e300 ];
  (* 2^62 - 1 is not a float: it parses to 2^62. *)
  match Json.of_string "4611686018427387903" with
  | Ok doc -> Alcotest.(check bool) "parsed 2^62 - 1" true (Json.to_int doc = Error "integer out of range")
  | Error e -> Alcotest.fail e

(* ---- the codec against its reference ---- *)

(* Structural equality with floats compared bit for bit, so -0 and 0
   differ and nan equals nan. *)
let rec same_json a b =
  match (a, b) with
  | Json.Number x, Json.Number y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Array xs, Json.Array ys -> List.equal same_json xs ys
  | Json.Object xs, Json.Object ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && same_json x y) xs ys
  | _ -> a = b

let same_parse text =
  match (Json.of_string text, Json_ref.of_string text) with
  | Ok x, Ok y -> same_json x y
  | Error e, Error f -> String.equal e f
  | _ -> false

(* The printer's integer bound (1e15, and 1e17 where "%.17g" turns to
   exponents), 2^53, subnormals, the int range's edge. *)
let edge_floats =
  [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1e15; -1e15; 1e15 -. 1.0;
    -.(1e15 -. 1.0); 1e15 +. 2.0; 999999999999999.5; 1e17; -1e17; 1e17 -. 16.0;
    9007199254740992.0; 9007199254740994.0; -9007199254740992.0; 4.9e-324;
    2.2250738585072009e-308; 2.2250738585072014e-308; Float.max_float; 0.1; 1.0 /. 3.0;
    4611686018427387904.0; 1e300; 1e21; 1e-7 ]

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl edge_floats);
        (* every bit pattern: subnormals, 17-digit values, nan payloads *)
        (2, map Int64.float_of_bits ui64);
        (2, map float_of_int (int_range (-2000) 2000));
        (1, map float_of_int int);
        (1, map (fun (m, e) -> ldexp m e) (pair (float_range (-1.0) 1.0) (int_range (-1080) 1030)));
      ])

let gen_text =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (4, printable);
             (1, oneofl [ '"'; '\\'; '/'; '\n'; '\t'; '\r'; '\b'; '\012' ]);
             (1, map Char.chr (int_bound 31));
             (1, map Char.chr (int_range 128 255));
           ])
      (int_bound 12))

let gen_tree =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 (3, map (fun x -> Json.Number x) gen_float);
                 (2, map (fun s -> Json.String s) gen_text);
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Array l) (list_size (int_bound 5) (self (n / 4))));
                 (1, map (fun l -> Json.Object l) (list_size (int_bound 5) (pair gen_text (self (n / 4)))));
               ]))

let prop_render_matches_reference =
  QCheck.Test.make ~name:"to_string matches the reference" ~count:1000
    (QCheck.make ~print:(Json_ref.to_string ~indent:false) gen_tree)
    (fun doc ->
      List.for_all
        (fun indent ->
          let text = Json.to_string ~indent doc in
          String.equal text (Json_ref.to_string ~indent doc) && same_parse text)
        [ true; false ])

(* Mostly JSON's own bytes, so the parser gets past the first one. *)
let gen_bytes =
  let alphabet = "{}[],:\"\\ \t\n-+.eE0123456789truefalsnibu/" in
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (3, map (String.get alphabet) (int_bound (String.length alphabet - 1))); (1, char) ])
      (int_bound 60))

let prop_parse_random_bytes =
  QCheck.Test.make ~name:"of_string on random bytes matches the reference" ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_bytes)
    same_parse

(* A compile request, its response and the journal line it left, as
   the daemon writes them. *)
let served_lines =
  lazy
    (let device = Presets.example_6q () in
     let registry = Core.Registry.create () in
     ignore (Core.Registry.add_static registry ~id:"example6q" ~device ~xtalk:(Device.ground_truth device));
     let service = Core.Service.create registry in
     let circuit =
       Core.Circuit.measure_all (Core.Circuit.cnot (Core.Circuit.h (Core.Circuit.create 6) 0) ~control:0 ~target:1)
     in
     let request =
       Core.Wire.Compile { id = "r1"; device = "example6q"; circuit; params = Core.Wire.default_params }
     in
     let response = Core.Service.handle service request in
     let cache = Core.Service.cache service in
     let key = List.hd (Core.Cache.keys_newest_first cache) in
     let entry = Option.get (Core.Cache.find cache key) in
     [|
       Json.to_string ~indent:false (Core.Wire.request_to_json request);
       Json.to_string ~indent:false response;
       Core.Journal.line_of_record { Core.Journal.key; entry };
     |])

let prop_parse_damaged_lines =
  let gen =
    QCheck.Gen.(triple (int_bound 2) (float_range 0.0 1.0) (list_size (int_bound 6) (pair nat (int_bound 7))))
  in
  QCheck.Test.make ~name:"of_string on damaged lines matches the reference" ~count:2000 (QCheck.make gen)
    (fun (which, keep, flips) ->
      let line = (Lazy.force served_lines).(which) in
      let s = Bytes.of_string (String.sub line 0 (int_of_float (keep *. float_of_int (String.length line)))) in
      List.iter
        (fun (pos, bit) ->
          if Bytes.length s > 0 then
            let i = pos mod Bytes.length s in
            Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor (1 lsl bit))))
        flips;
      same_parse line && same_parse (Bytes.to_string s))

(* ---- Store ---- *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let store_crosstalk_roundtrip () =
  let x = Crosstalk.set_symmetric Crosstalk.empty (10, 15) (11, 12) 0.11 0.06 in
  let x = Crosstalk.set x ~target:(5, 10) ~spectator:(11, 12) 0.09 in
  let path = tmp "qcx_test_xtalk.json" in
  (match Store.save_crosstalk ~path x with Ok () -> () | Error e -> Alcotest.fail e);
  match Store.load_crosstalk ~path () with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
    Alcotest.(check int) "same entry count"
      (List.length (Crosstalk.entries x))
      (List.length (Crosstalk.entries loaded));
    List.iter
      (fun (target, spectator, rate) ->
        Alcotest.(check (option (float 1e-12))) "same rate" (Some rate)
          (Crosstalk.conditional loaded ~target ~spectator))
      (Crosstalk.entries x)

let store_calibration_roundtrip () =
  let device = Presets.poughkeepsie () in
  let cal = Device.calibration device in
  let edges = Core.Topology.edges (Device.topology device) in
  let doc = Store.calibration_to_json cal ~edges in
  match Store.calibration_of_json doc with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
    Alcotest.(check int) "qubit count" (Core.Calibration.nqubits cal)
      (Core.Calibration.nqubits loaded);
    List.iter
      (fun e ->
        Alcotest.(check (float 1e-12)) "cnot error"
          (Core.Calibration.gate cal e).Core.Calibration.cnot_error
          (Core.Calibration.gate loaded e).Core.Calibration.cnot_error)
      edges;
    Alcotest.(check (float 1e-12)) "t1 preserved"
      (Core.Calibration.qubit cal 10).Core.Calibration.t1
      (Core.Calibration.qubit loaded 10).Core.Calibration.t1

let store_device_snapshot () =
  let device = Presets.johannesburg () in
  let doc = Store.device_snapshot_to_json device in
  match Store.device_snapshot_of_json doc with
  | Error e -> Alcotest.fail e
  | Ok (name, topo, _cal) ->
    Alcotest.(check string) "name" (Device.name device) name;
    Alcotest.(check int) "edges"
      (List.length (Core.Topology.edges (Device.topology device)))
      (List.length (Core.Topology.edges topo))

let store_snapshot_hides_ground_truth () =
  (* The serialized device must not leak the hidden crosstalk model. *)
  let device = Presets.poughkeepsie () in
  let text = Json.to_string (Store.device_snapshot_to_json device) in
  let contains_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "no conditional rates serialized" false
    (contains_sub "spectator" text)

let store_load_missing_file () =
  Alcotest.(check bool) "missing file errors" true
    (Result.is_error (Store.load ~path:"/nonexistent/qcx.json"))

let store_rejects_wrong_format () =
  let doc = Json.Object [ ("format", Json.String "something-else"); ("entries", Json.Array []) ] in
  Alcotest.(check bool) "format checked" true (Result.is_error (Store.crosstalk_of_json doc))

let store_save_is_atomic () =
  let path = tmp "qcx_test_atomic.json" in
  let doc v = Json.Object [ ("v", Json.Number v) ] in
  (match Store.save ~path (doc 1.0) with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no tmp file left behind" false (Sys.file_exists (path ^ ".tmp"));
  (* Overwrite goes through the same rename; a stale tmp from a
     crashed writer is simply replaced. *)
  let oc = open_out (path ^ ".tmp") in
  output_string oc "{ truncated garbage";
  close_out oc;
  (match Store.save ~path (doc 2.0) with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "stale tmp consumed" false (Sys.file_exists (path ^ ".tmp"));
  (match Store.load ~path with
  | Ok loaded -> Alcotest.(check bool) "new value visible" true (Json.find_float "v" loaded = Ok 2.0)
  | Error e -> Alcotest.fail e);
  (* A failing write errors out without touching the destination. *)
  (match Store.save ~path:"/nonexistent-dir/qcx.json" (doc 3.0) with
  | Ok () -> Alcotest.fail "save into missing directory should fail"
  | Error _ -> ());
  match Store.load ~path with
  | Ok loaded ->
    Alcotest.(check bool) "destination intact after failed save" true
      (Json.find_float "v" loaded = Ok 2.0)
  | Error e -> Alcotest.fail e

let store_quarantine_numbers_duplicates () =
  let path = tmp "qcx_test_quarantine.json" in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".corrupt"; path ^ ".corrupt.1"; path ^ ".corrupt.2" ];
  let write text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  let quarantine_to expected =
    match Store.quarantine ~path with
    | Ok moved -> Alcotest.(check string) "quarantine destination" expected moved
    | Error e -> Alcotest.fail e
  in
  write "first corruption";
  quarantine_to (path ^ ".corrupt");
  write "second corruption";
  quarantine_to (path ^ ".corrupt.1");
  write "third corruption";
  quarantine_to (path ^ ".corrupt.2");
  (* Earlier evidence is preserved, not clobbered. *)
  let read p =
    let ic = open_in p in
    let line = input_line ic in
    close_in ic;
    line
  in
  Alcotest.(check string) "first kept" "first corruption" (read (path ^ ".corrupt"));
  Alcotest.(check string) "second kept" "second corruption" (read (path ^ ".corrupt.1"));
  Alcotest.(check string) "third kept" "third corruption" (read (path ^ ".corrupt.2"))

let suite =
  [
    ( "persist.json",
      [
        Alcotest.test_case "roundtrip" `Quick json_roundtrip;
        Alcotest.test_case "whitespace and compact" `Quick json_parse_whitespace_and_compact;
        Alcotest.test_case "parse errors" `Quick json_parse_errors;
        Alcotest.test_case "accessors" `Quick json_accessors;
        Alcotest.test_case "to_int range" `Quick json_to_int_range;
        QCheck_alcotest.to_alcotest prop_render_matches_reference;
        QCheck_alcotest.to_alcotest prop_parse_random_bytes;
        QCheck_alcotest.to_alcotest prop_parse_damaged_lines;
      ] );
    ( "persist.store",
      [
        Alcotest.test_case "crosstalk roundtrip" `Quick store_crosstalk_roundtrip;
        Alcotest.test_case "calibration roundtrip" `Quick store_calibration_roundtrip;
        Alcotest.test_case "device snapshot" `Quick store_device_snapshot;
        Alcotest.test_case "hides ground truth" `Quick store_snapshot_hides_ground_truth;
        Alcotest.test_case "missing file" `Quick store_load_missing_file;
        Alcotest.test_case "rejects wrong format" `Quick store_rejects_wrong_format;
        Alcotest.test_case "atomic save" `Quick store_save_is_atomic;
        Alcotest.test_case "quarantine numbers duplicates" `Quick
          store_quarantine_numbers_duplicates;
      ] );
  ]
