(** Dependency DAG over a circuit's gates.

    Two gates are dependent when they share a qubit (program order
    gives the direction); barriers additionally order everything
    before them on their qubits against everything after.  The paper's
    [CanOlp(g)] set — gates that are neither ancestors nor descendants
    of [g] — is served by {!can_overlap}. *)

type t

val of_circuit : Circuit.t -> t
(** Direct edges plus the transitive closure, word-packed: O(n²/62)
    words for [n] gates. *)

val direct_preds : Circuit.t -> int list array
(** [direct_preds c] is {!preds} for every gate id of [c] — the last
    earlier gate on each operand qubit, ascending, without repeats —
    without building the closure. *)

val circuit : t -> Circuit.t

val gate : t -> int -> Gate.t
(** O(1) lookup by gate id. *)

val preds : t -> int -> int list
(** Direct predecessors (gate ids) of a gate id. *)

val succs : t -> int -> int list

val is_ancestor : t -> int -> int -> bool
(** [is_ancestor t a b] is [true] when [a] precedes [b] on some
    dependency path (strict; a gate is not its own ancestor). *)

val can_overlap : t -> int -> int -> bool
(** Neither is an ancestor of the other. *)
