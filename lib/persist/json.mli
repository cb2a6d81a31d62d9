(** Minimal JSON reader/writer (no external dependencies).

    Covers the subset the persistence layer needs: objects, arrays,
    strings with the standard escapes, numbers (read as floats),
    booleans and null.  Emission is deterministic (object fields in
    insertion order) so stored files diff cleanly.

    Every request, response, journal line and stored table passes
    through this codec, so it is written to allocate little: the
    parser indexes bytes directly and takes escape-free strings and
    plain integers whole, and the printer blits strings that need no
    escapes.  Its contract is the original byte-at-a-time codec, kept
    as the test oracle ([test/json_ref.ml]): {!to_string} gives the
    same bytes, and {!of_string} the same value or the same [Error]
    text and position, on every input. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

val to_string : ?indent:bool -> t -> string
(** [indent] pretty-prints with two-space indentation (default true). *)

val of_string : string -> (t, string) result
(** Parse; errors carry a character position.  Total on arbitrary
    bytes: nesting deeper than 512 levels is rejected with an [Error]
    instead of exhausting the stack.  Accepts the non-finite spellings
    [nan] / [inf] / [-inf] that {!to_string} emits, so every value
    round-trips. *)

val member : string -> t -> t option
(** Object field lookup. *)

val to_float : t -> (float, string) result
val to_int : t -> (int, string) result
(** An integral number from [min_int] to [max_int]; any other integral
    number is ["integer out of range"]. *)

val to_str : t -> (string, string) result
val to_list : t -> (t list, string) result

val find_float : string -> t -> (float, string) result
(** [member] + [to_float] with a helpful error. *)

val find_str : string -> t -> (string, string) result
val find_list : string -> t -> (t list, string) result
