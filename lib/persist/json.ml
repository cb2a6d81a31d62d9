type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

(* Every request, response and journal line passes through this codec,
   so it does no per-byte allocation: the parser indexes the text
   directly and takes escape-free strings and plain integers whole, and
   the printer blits strings that need no escapes.  Its bytes and its
   errors are those of the original codec, kept in test/json_ref.ml. *)

(* ---- emission ---- *)

external format_float : string -> float -> string = "caml_format_float"

(* Index of the first byte at or after [i] that needs an escape. *)
let rec first_escape s i =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> first_escape s (i + 1)

(* The clean prefix (usually the whole string) is blitted at once. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  let clean = first_escape s 0 in
  Buffer.add_substring buf s 0 clean;
  for i = clean to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\000' .. '\031' as c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

(* Non-finite floats get fixed spellings (libc %g may print "-nan"),
   and the parser below accepts them back: scheduler stats carry a
   [nan] objective for pair-free circuits, and a codec that cannot
   round-trip its own output would poison the cache journal.  Integers
   below 1e15 print as their exact decimal digits (the "%.0f"
   spelling, "-0" included); everything else as "%.17g". *)
let add_number buf x =
  if Float.is_nan x then Buffer.add_string buf "nan"
  else if x = Float.infinity then Buffer.add_string buf "inf"
  else if x = Float.neg_infinity then Buffer.add_string buf "-inf"
  else if Float.is_integer x && Float.abs x < 1e15 then
    if x = 0.0 && Float.sign_bit x then Buffer.add_string buf "-0"
    else Buffer.add_string buf (string_of_int (int_of_float x))
  else Buffer.add_string buf (format_float "%.17g" x)

let to_string ?(indent = true) t =
  let buf = Buffer.create 256 in
  let newline depth =
    if indent then begin
      Buffer.add_char buf '\n';
      for _ = 1 to 2 * depth do
        Buffer.add_char buf ' '
      done
    end
  in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number x -> add_number buf x
    | String s -> add_quoted buf s
    | Array [] -> Buffer.add_string buf "[]"
    | Array (item :: rest) ->
      Buffer.add_char buf '[';
      newline (depth + 1);
      emit (depth + 1) item;
      items (depth + 1) rest;
      newline depth;
      Buffer.add_char buf ']'
    | Object [] -> Buffer.add_string buf "{}"
    | Object (field :: rest) ->
      Buffer.add_char buf '{';
      newline (depth + 1);
      emit_field (depth + 1) field;
      fields (depth + 1) rest;
      newline depth;
      Buffer.add_char buf '}'
  and items depth = function
    | [] -> ()
    | item :: rest ->
      Buffer.add_char buf ',';
      newline depth;
      emit depth item;
      items depth rest
  and emit_field depth (key, value) =
    add_quoted buf key;
    Buffer.add_string buf ": ";
    emit depth value
  and fields depth = function
    | [] -> ()
    | field :: rest ->
      Buffer.add_char buf ',';
      newline depth;
      emit_field depth field;
      fields depth rest
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

let is_number_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* The magnitude of the token [text.[start .. stop - 1]] when it is an
   optional '-' and 1-15 digits, else -1.  Such a token is exact in a
   float, so it needs no [float_of_string]. *)
let plain_int text start stop =
  let first = if start < stop && String.unsafe_get text start = '-' then start + 1 else start in
  if stop - first < 1 || stop - first > 15 then -1
  else
    let rec digits i acc =
      if i = stop then acc
      else
        match String.unsafe_get text i with
        | '0' .. '9' as c -> digits (i + 1) ((10 * acc) + Char.code c - 48)
        | _ -> -1
    in
    digits first 0

(* Whether [word] occurs in [text] at [pos]. *)
let has_word text pos word =
  let n = String.length word in
  let rec from i = i = n || (String.unsafe_get text (pos + i) = word.[i] && from (i + 1)) in
  pos + n <= String.length text && from 0

(* Index of the first '"' or '\\' at or after [i], or [String.length]. *)
let rec string_end text i =
  if i = String.length text then i
  else match String.unsafe_get text i with '"' | '\\' -> i | _ -> string_end text (i + 1)

let of_string text =
  let pos = ref 0 in
  let len = String.length text in
  let bad msg = Bad (Printf.sprintf "%s at position %d" msg !pos) in
  (* The [@tail_mod_cons] loops below [raise (bad msg)] instead: a call
     to [error] in their tail position is warning 72, tmc-breaks-tailcall. *)
  let error msg = raise (bad msg) in
  let at c = !pos < len && String.unsafe_get text !pos = c in
  let rec skip_ws () =
    if !pos < len then
      match String.unsafe_get text !pos with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c = if at c then incr pos else error (Printf.sprintf "expected '%c'" c) in
  let literal word value =
    if has_word text !pos word then begin
      pos := !pos + String.length word;
      value
    end
    else error ("expected " ^ word)
  in
  (* A string with escapes is rebuilt in a buffer, each unescaped run
     blitted whole. *)
  let rec unescape buf =
    let stop = string_end text !pos in
    Buffer.add_substring buf text !pos (stop - !pos);
    pos := stop;
    if stop = len then error "unterminated string"
    else if text.[stop] = '"' then begin
      incr pos;
      Buffer.contents buf
    end
    else begin
      incr pos;
      if !pos = len then error "bad escape";
      (match text.[!pos] with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'n' -> Buffer.add_char buf '\n'
      | 't' -> Buffer.add_char buf '\t'
      | 'r' -> Buffer.add_char buf '\r'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'u' ->
        if !pos + 4 >= len then error "truncated unicode escape";
        let hex = String.sub text (!pos + 1) 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
        | Some _ -> Buffer.add_char buf '?'
        | None -> error "bad unicode escape");
        pos := !pos + 4
      | _ -> error "bad escape");
      incr pos;
      unescape buf
    end
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = string_end text start in
    if stop < len && text.[stop] = '"' then begin
      pos := stop + 1;
      String.sub text start (stop - start)
    end
    else unescape (Buffer.create (stop - start + 16))
  in
  let parse_number () =
    if has_word text !pos "-inf" then begin
      pos := !pos + 4;
      Number Float.neg_infinity
    end
    else
      let start = !pos in
      while !pos < len && is_number_char (String.unsafe_get text !pos) do
        incr pos
      done;
      let n = plain_int text start !pos in
      if n >= 0 then Number (if text.[start] = '-' then -.float_of_int n else float_of_int n)
      else
        let s = String.sub text start (!pos - start) in
        match float_of_string_opt s with
        | Some x -> Number x
        | None -> error ("bad number " ^ s)
  in
  let rec parse_value depth =
    if depth > max_depth then error "nesting too deep";
    skip_ws ();
    if !pos = len then error "unexpected end of input";
    match text.[!pos] with
    | '{' ->
      incr pos;
      skip_ws ();
      if at '}' then begin
        incr pos;
        Object []
      end
      else begin
        let[@tail_mod_cons] rec fields () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value (depth + 1) in
          skip_ws ();
          if at ',' then begin
            incr pos;
            (key, value) :: fields ()
          end
          else if at '}' then begin
            incr pos;
            [ (key, value) ]
          end
          else raise (bad "expected ',' or '}'")
        in
        Object (fields ())
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if at ']' then begin
        incr pos;
        Array []
      end
      else begin
        let[@tail_mod_cons] rec items () =
          let value = parse_value (depth + 1) in
          skip_ws ();
          if at ',' then begin
            incr pos;
            value :: items ()
          end
          else if at ']' then begin
            incr pos;
            [ value ]
          end
          else raise (bad "expected ',' or ']'")
        in
        Array (items ())
      end
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' ->
      if !pos + 1 < len && text.[!pos + 1] = 'a' then literal "nan" (Number Float.nan)
      else literal "null" Null
    | 'i' -> literal "inf" (Number Float.infinity)
    | _ -> parse_number ()
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> len then Error (Printf.sprintf "trailing garbage at position %d" !pos)
    else Ok v
  with
  | Bad msg -> Error msg
  | Stack_overflow -> Error "nesting too deep"

(* ---- accessors ---- *)

let member key = function Object fields -> List.assoc_opt key fields | _ -> None

let to_float = function Number x -> Ok x | _ -> Error "expected number"

(* [int_of_float] is unspecified outside the int range, so a huge
   integral float (1e300, or 2^62 after parsing) must not reach it. *)
let to_int = function
  | Number x when Float.is_integer x ->
    if x >= -4611686018427387904.0 && x < 4611686018427387904.0 then Ok (int_of_float x)
    else Error "integer out of range"
  | Number _ -> Error "expected integer"
  | _ -> Error "expected number"

let to_str = function String s -> Ok s | _ -> Error "expected string"
let to_list = function Array items -> Ok items | _ -> Error "expected array"

let find key conv doc =
  match member key doc with
  | Some v -> conv v
  | None -> Error (Printf.sprintf "missing field %S" key)

let find_float key doc = find key to_float doc
let find_str key doc = find key to_str doc
let find_list key doc = find key to_list doc
