module Json = Qcx_persist.Json

let ( let* ) = Result.bind

type record = { key : string; entry : Cache.entry }

(* ---- sealed lines ----

   A sealed line is a compact JSON object whose last field, [crc], is
   the md5 of the line's own bytes without that field.  The payload is
   rendered once, digested, and the crc spliced in before its closing
   brace — byte-identical to rendering the object with the crc field
   appended, because the compact printer separates fields with a bare
   comma. *)

let seal fields =
  let payload = Json.to_string ~indent:false (Json.Object fields) in
  let crc = Digest.to_hex (Digest.string payload) in
  String.sub payload 0 (String.length payload - 1) ^ ",\"crc\": \"" ^ crc ^ "\"}"

let unseal line =
  let* doc = Json.of_string line in
  let* crc = Json.find_str "crc" doc in
  (* The digest must cover the bytes as written, not a parse/re-emit
     round trip: two spellings of the same float parse to one double,
     so re-emission canonicalizes damage instead of flagging it.  The
     crc is the last field, so the payload text is the line with that
     suffix cut off and the closing brace restored. *)
  let suffix = ",\"crc\": \"" ^ crc ^ "\"}" in
  let n = String.length line and k = String.length suffix in
  if n < k || String.sub line (n - k) k <> suffix then Error "crc field malformed"
  else if String.lowercase_ascii crc = Digest.to_hex (Digest.string (String.sub line 0 (n - k) ^ "}"))
  then Ok doc
  else Error "crc mismatch"

let line_of_record { key; entry } =
  seal (("op", Json.String "add") :: ("key", Json.String key) :: Cache.entry_fields entry)

let record_of_line line =
  let* doc = unseal line in
  let* op = Json.find_str "op" doc in
  if op <> "add" then Error ("unknown journal op " ^ op)
  else
    let* key = Json.find_str "key" doc in
    let* entry = Cache.entry_of_json doc in
    Ok { key; entry }

(* ---- valid-prefix reader ---- *)

type 'a prefix = { items : 'a list; dropped : int; torn : bool; valid_bytes : int }

let read_prefix ~path parse =
  let text =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with _ -> ""
  in
  (* A torn tail (kill -9 mid-write) shows up as a final chunk with no
     newline or with a bad crc.  Only a valid prefix is read: once one
     line fails, everything after it is untrusted. *)
  let rec walk acc bytes = function
    | [] | [ "" ] -> { items = List.rev acc; dropped = 0; torn = false; valid_bytes = bytes }
    | line :: rest -> (
      match parse line with
      | Ok x -> walk (x :: acc) (bytes + String.length line + 1) rest
      | Error _ ->
        let dropped = List.length (List.filter (fun l -> l <> "") (line :: rest)) in
        { items = List.rev acc; dropped; torn = true; valid_bytes = bytes })
  in
  walk [] 0 (String.split_on_char '\n' text)

type replay = {
  records : record list;
  read : int;
  dropped : int;
  torn : bool;
}

let scan ~path =
  let p = read_prefix ~path (fun line -> Result.map (fun r -> (r, line)) (record_of_line line)) in
  let records = List.map fst p.items in
  (p.items, { records; read = List.length records; dropped = p.dropped; torn = p.torn })

let replay ~path = snd (scan ~path)

let restore cache ~path =
  let items, replay = scan ~path in
  List.iter (fun ({ key; entry }, line) -> Cache.add ~line cache key entry) items;
  replay

(* ---- writer ---- *)

type t = {
  path : string;
  fsync : bool;
  mutable fd : Unix.file_descr option;
  mutable appends : int;
  mutable failed_appends : int;
  mutable fault : (nth:int -> bool) option;
}

let open_append ~path ?(fsync = true) () =
  try
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    Ok { path; fsync; fd = Some fd; appends = 0; failed_appends = 0; fault = None }
  with Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "cannot open journal %s: %s" path (Unix.error_message err))

let path t = t.path
let appends t = t.appends
let failed_appends t = t.failed_appends
let set_fault t fault = t.fault <- fault

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let append_line t line =
  match t.fd with
  | None -> Error "journal is closed"
  | Some fd ->
    let nth = t.appends + t.failed_appends in
    let faulted = match t.fault with Some f -> f ~nth | None -> false in
    if faulted then begin
      t.failed_appends <- t.failed_appends + 1;
      Error "journal append failed: no space left on device (injected)"
    end
    else begin
      try
        write_all fd (Bytes.of_string (line ^ "\n"));
        if t.fsync then Unix.fsync fd;
        t.appends <- t.appends + 1;
        Ok ()
      with Unix.Unix_error (err, _, _) ->
        t.failed_appends <- t.failed_appends + 1;
        Error (Printf.sprintf "journal append failed: %s" (Unix.error_message err))
    end

let append t record = append_line t (line_of_record record)

let reset t =
  match t.fd with
  | None -> Error "journal is closed"
  | Some fd -> (
    try
      Unix.ftruncate fd 0;
      if t.fsync then Unix.fsync fd;
      Ok ()
    with Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "journal reset failed: %s" (Unix.error_message err)))

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())
