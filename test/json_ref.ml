(* The seed JSON codec, kept verbatim as the reference the fast codec
   in [Core.Json] is tested against: [to_string] must produce the same
   bytes and [of_string] the same result, [Error] text included.  Only
   the type is shared, so values pass between the two. *)

type t = Core.Json.t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

(* ---- emission ---- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Non-finite floats get fixed spellings (libc %g may print "-nan"),
   and the parser below accepts them back: scheduler stats carry a
   [nan] objective for pair-free circuits, and a codec that cannot
   round-trip its own output would poison the cache journal. *)
let number_to_string x =
  if Float.is_nan x then "nan"
  else if x = Float.infinity then "inf"
  else if x = Float.neg_infinity then "-inf"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let to_string ?(indent = true) t =
  let buf = Buffer.create 256 in
  let pad depth = if indent then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number x -> Buffer.add_string buf (number_to_string x)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Array [] -> Buffer.add_string buf "[]"
    | Array items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          emit (depth + 1) item)
        items;
      nl ();
      pad depth;
      Buffer.add_char buf ']'
    | Object [] -> Buffer.add_string buf "{}"
    | Object fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (key, value) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape key);
          Buffer.add_string buf "\": ";
          emit (depth + 1) value)
        fields;
      nl ();
      pad depth;
      Buffer.add_char buf '}'
  in
  emit 0 t;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Bad of string

(* Recursive-descent depth cap: without it a short hostile input like
   ten thousand '[' characters exhausts the OCaml stack, and the
   serving layer's "arbitrary bytes never raise" guarantee dies with
   it.  Real documents here (schedules, envelopes) nest < 10 deep. *)
let max_depth = 512

let of_string text =
  let pos = ref 0 in
  let len = String.length text in
  let error msg = raise (Bad (Printf.sprintf "%s at position %d" msg !pos)) in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> error (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= len && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else error ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' ->
        advance ();
        Buffer.contents buf
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
          if !pos + 4 >= len then error "truncated unicode escape";
          let hex = String.sub text (!pos + 1) 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> Buffer.add_char buf '?'
          | None -> error "bad unicode escape");
          pos := !pos + 4
        | _ -> error "bad escape");
        advance ();
        loop ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ()
  in
  let parse_number () =
    if !pos + 4 <= len && String.sub text !pos 4 = "-inf" then begin
      pos := !pos + 4;
      Number Float.neg_infinity
    end
    else
    let start = !pos in
    let is_number_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c when is_number_char c -> true | _ -> false) do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    match float_of_string_opt s with
    | Some x -> Number x
    | None -> error ("bad number " ^ s)
  in
  let rec parse_value depth =
    if depth > max_depth then error "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Object []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((key, value) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, value) :: acc)
          | _ -> error "expected ',' or '}'"
        in
        Object (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Array []
      end
      else begin
        let rec items acc =
          let value = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (value :: acc)
          | Some ']' ->
            advance ();
            List.rev (value :: acc)
          | _ -> error "expected ',' or ']'"
        in
        Array (items [])
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' ->
      if !pos + 1 < len && text.[!pos + 1] = 'a' then literal "nan" (Number Float.nan)
      else literal "null" Null
    | Some 'i' -> literal "inf" (Number Float.infinity)
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> len then Error (Printf.sprintf "trailing garbage at position %d" !pos)
    else Ok v
  with
  | Bad msg -> Error msg
  | Stack_overflow -> Error "nesting too deep"
