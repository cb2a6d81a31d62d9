(** Optimizing solver for the Bool x difference-logic fragment used by
    the crosstalk-adaptive scheduler (the repository's stand-in for
    Z3's [Optimize]).

    The problem shape, matching the paper's Section 7 encoding:

    - numeric variables are gate start times, constrained by
      (optionally guarded) difference constraints [x >= y + w];
    - boolean variables select schedule structure (overlap indicators,
      serialization orders), constrained by clauses;
    - the objective is a sum of {e scenario costs} (a constant chosen
      by which boolean scenario holds — the paper's powerset gate-error
      constraints, eq. 7) and {e span costs} (weighted differences of
      two numeric variables — the decoherence terms, eq. 9/10).

    Solving is exhaustive DPLL-style branch and bound over the
    booleans — two-watched-literal propagation, incrementally
    maintained scenario bounds, epoch-cached relaxations, cost-guided
    branching and warm starts — with Bellman-Ford feasibility checks
    and monotone lower bounds; numeric values at each leaf are evaluated exactly by an
    ASAP pass for the designated sink (the synchronized readout time)
    followed by an ALAP pass that maximizes every variable
    simultaneously.  The leaf evaluation is the true optimum whenever
    every span cost's [last] variable is (transitively equal to) a
    sink — which the scheduler encoding guarantees; see DESIGN.md. *)

type t

type lit = { var : int; value : bool }
(** [value] is the polarity: [{var; value = false}] is satisfied when
    [var] is assigned false. *)

type solution = {
  bools : bool array;
  nums : float array;
  objective : float;
  optimal : bool;  (** false when the node budget or deadline expired first *)
  nodes : int;  (** search nodes explored *)
  timed_out : bool;  (** true when the wall-clock deadline expired *)
}

val create : unit -> t

val new_bool : t -> string -> int
val new_num : t -> string -> int

val nbools : t -> int
(** Number of boolean variables created so far (warm-start hints must
    have exactly this arity). *)

val add_diff : t -> ?guard:lit -> dst:int -> src:int -> weight:float -> unit -> unit
(** Constraint [num dst >= num src + weight], enforced always, or only
    when [guard] holds. *)

val add_clause : t -> lit list -> unit
(** At least one literal holds.  The empty clause makes the problem
    unsatisfiable. *)

val add_cost_group : t -> (lit list * float) list -> unit
(** A family of mutually exclusive scenarios (conjunctions of
    literals), of which exactly one holds in any full assignment; the
    holding scenario's cost is added to the objective.  Costs must be
    nonnegative (the lower bound assumes it). *)

val add_span_cost : t -> weight:float -> last:int -> first:int -> unit
(** Adds [weight * (num last - num first)] to the objective;
    [weight >= 0]. *)

val add_sink : t -> int -> unit
(** Designate a numeric variable as a sink: its value is pinned to its
    minimal feasible value and upper-bounds the ALAP pass. *)

val add_release : t -> var:int -> time:float -> unit
(** [add_release t ~var ~time] adds the absolute lower bound
    [var >= time] ([time >= 0], in the problem's implicit time origin
    at 0).  Implemented as a difference edge from a lazily created
    zero-pinned base variable, so it composes with both the ASAP and
    ALAP passes of the search.  The windowed scheduler uses it to
    carry qubit-availability and crosstalk frontiers from already
    committed windows into the next window's solve. *)

val solve :
  ?node_budget:int ->
  ?deadline_seconds:float ->
  ?warm_starts:bool array list ->
  t ->
  solution option
(** [None] when unsatisfiable (or when the search was cut off before
    reaching any leaf).  Default budget: 2_000_000 nodes; no deadline
    by default.  [deadline_seconds] is a wall-clock limit on the
    search: on expiry the best incumbent found so far is returned with
    [optimal = false] and [timed_out = true].  The node budget alone
    can miss wall-clock blowups on pathological clusters (deep
    propagation and span-bound recomputation make per-node cost
    uneven), so callers with latency targets should set both.

    [warm_starts] are candidate full boolean assignments (arity
    [nbools t], e.g. from a greedy schedule); each feasible hint is
    evaluated before the search so the incumbent prunes from the first
    node, and the search result is never worse than the best feasible
    hint.  Hints that conflict with the clauses or the difference
    constraints are skipped.  Hint evaluations are not search nodes:
    they do not count against [node_budget], so [~node_budget:0]
    evaluates the hints and nothing else.

    [solve] is read-only on [t]: graph frames pushed during search are
    always popped (even on budget/deadline aborts), and all search
    state lives in a per-call structure, so solving the same problem
    twice with the same hints returns identical solutions. *)

val propagation_fixpoint : t -> (int * bool) list -> (int * bool) list option
(** Test seam: assert each seed assignment in order, running the
    search's unit propagation to fixpoint after each, and return the
    final assigned set sorted by variable — or [None] if a conflict is
    reached.  Root-level unit clauses are propagated before the seeds.
    Leaves [t] unchanged.  Unit propagation has a unique fixpoint, so
    the result must equal a plain clause-rescan fixpoint — the qcheck
    suite leans on this. *)
