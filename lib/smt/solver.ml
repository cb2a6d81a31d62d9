type lit = { var : int; value : bool }

type guarded_edge = { src : int; dst : int; weight : float }

type t = {
  graph : Dgraph.t;
  mutable bool_names : string list;  (** reversed *)
  mutable nbools : int;
  mutable clauses : lit list list;
  mutable guards : (int, (bool * guarded_edge) list) Hashtbl.t;
      (** bool var -> edges activated when it takes the given value *)
  mutable cost_groups : (lit list * float) list list;
  mutable spans : (float * int * int) list;  (** weight, last, first *)
  mutable sinks : int list;
  mutable release_base : int option;
      (** lazily created zero-pinned origin for absolute release bounds *)
}

type solution = {
  bools : bool array;
  nums : float array;
  objective : float;
  optimal : bool;
  nodes : int;
  timed_out : bool;
}

let create () =
  {
    graph = Dgraph.create ();
    bool_names = [];
    nbools = 0;
    clauses = [];
    guards = Hashtbl.create 16;
    cost_groups = [];
    spans = [];
    sinks = [];
    release_base = None;
  }

let new_bool t name =
  t.bool_names <- name :: t.bool_names;
  t.nbools <- t.nbools + 1;
  t.nbools - 1

let nbools t = t.nbools

let new_num t name = Dgraph.new_var t.graph name

let add_diff t ?guard ~dst ~src ~weight () =
  match guard with
  | None -> Dgraph.add_edge t.graph ~src ~dst ~weight
  | Some { var; value } ->
    let existing = Option.value ~default:[] (Hashtbl.find_opt t.guards var) in
    Hashtbl.replace t.guards var ((value, { src; dst; weight }) :: existing)

let add_clause t lits = t.clauses <- lits :: t.clauses

let add_cost_group t scenarios =
  List.iter
    (fun (_, cost) -> if cost < 0.0 then invalid_arg "Solver.add_cost_group: negative cost")
    scenarios;
  t.cost_groups <- scenarios :: t.cost_groups

let add_span_cost t ~weight ~last ~first =
  if weight < 0.0 then invalid_arg "Solver.add_span_cost: negative weight";
  t.spans <- (weight, last, first) :: t.spans

let add_sink t v = t.sinks <- v :: t.sinks

let add_release t ~var ~time =
  if not (time >= 0.0) then invalid_arg "Solver.add_release: time must be >= 0";
  if time > 0.0 then begin
    let base =
      match t.release_base with
      | Some b -> b
      | None ->
        let b = new_num t "release0" in
        (* No incoming edges, so the ASAP pass keeps the base at 0;
           registering it as a sink pins its ALAP deadline to its lower
           bound (0) as well.  Every release edge base->var then reads
           as an absolute lower bound rather than a relative offset. *)
        add_sink t b;
        t.release_base <- Some b;
        b
    in
    Dgraph.add_edge t.graph ~src:base ~dst:var ~weight:time
  end

(* ---- search ---- *)

exception Conflict
exception Budget
exception Deadline

(* Objective scenario, bound bookkeeping: [nfalse] counts the
   scenario's literals currently assigned to the opposite value; the
   scenario is still viable iff [nfalse = 0]. *)
type scen = { slits : lit array; scost : float; group : int; mutable nfalse : int }

(* A cost group: scenarios sorted by ascending cost, so the min viable
   cost is the first scenario with [nfalse = 0].  The cached min is
   invalidated whenever a member scenario flips viability. *)
type group = { sorted : scen array; mutable cached_min : float; mutable dirty : bool }

type search_state = {
  problem : t;
  assign : int array;  (** -1 unassigned, 0 false, 1 true *)
  clauses : lit array array;
  mutable best : solution option;
  mutable node_count : int;
  budget : int;
  deadline : float;  (** absolute wall-clock time; [infinity] = none *)
  watch : int list array;  (** literal index -> watching clause ids *)
  w0 : int array;  (** clause id -> first watched position *)
  w1 : int array;  (** clause id -> second watched position *)
  queue : int Queue.t;  (** assigned vars whose watch lists are pending *)
  occs : scen list array;  (** literal index -> scenarios containing it *)
  groups : group array;
  spans_by_last : (int * (float * int) array) array;
      (** last variable -> (weight, first) spans, positive weights only *)
  mutable asap_epoch : int;
  mutable asap_cache : float array option;
  span_cache : (int, int * float array) Hashtbl.t;  (** last -> epoch, dists *)
  order : int array;  (** branching order: vars by descending cost spread *)
  prefer : bool array;  (** per-var value to try first (cheaper scenarios) *)
}

let lidx { var; value } = (2 * var) + Bool.to_int value

let lit_status st { var; value } =
  match st.assign.(var) with
  | -1 -> `Unassigned
  | a -> if (a = 1) = value then `True else `False

(* Assign a variable, activate its guarded edges (inside a fresh graph
   frame) and return the number of frames pushed so the caller can
   undo.  Raises [Conflict] if already assigned inconsistently.  Also
   bumps scenario falsification counters and enqueues the variable for
   watched-literal processing. *)
let do_assign st var value undo =
  match st.assign.(var) with
  | a when a >= 0 -> if (a = 1) <> value then raise Conflict
  | _ ->
    st.assign.(var) <- (if value then 1 else 0);
    Dgraph.push st.problem.graph;
    (match Hashtbl.find_opt st.problem.guards var with
    | None -> ()
    | Some edges ->
      List.iter
        (fun (v, { src; dst; weight } : bool * guarded_edge) ->
          if v = value then Dgraph.add_edge st.problem.graph ~src ~dst ~weight)
        edges);
    undo := var :: !undo;
    Queue.add var st.queue;
    (* literals of polarity [not value] on this var just went false *)
    List.iter
      (fun s ->
        s.nfalse <- s.nfalse + 1;
        if s.nfalse = 1 then st.groups.(s.group).dirty <- true)
      st.occs.((2 * var) + Bool.to_int (not value))

let undo_all st undo =
  List.iter
    (fun var ->
      let a = st.assign.(var) in
      st.assign.(var) <- -1;
      Dgraph.pop st.problem.graph;
      List.iter
        (fun s ->
          s.nfalse <- s.nfalse - 1;
          if s.nfalse = 0 then st.groups.(s.group).dirty <- true)
        st.occs.((2 * var) + (1 - a)))
    !undo;
  undo := []

(* ---- propagation: two watched literals ---- *)

exception Found of int

(* Process every clause watching the literal falsified by assigning
   [var].  Watches only ever move onto non-false literals, so watch
   lists never need undoing on backtrack (the MiniSat invariant); on a
   conflict the unvisited tail of the list is restored before raising
   so no watcher is lost. *)
let process_var st var undo =
  let fl = (2 * var) + (1 - st.assign.(var)) in
  let clauses = st.watch.(fl) in
  st.watch.(fl) <- [];
  let rec go = function
    | [] -> ()
    | c :: rest -> (
      let lits = st.clauses.(c) in
      let p0 = st.w0.(c) and p1 = st.w1.(c) in
      let here, other = if lidx lits.(p0) = fl then (p0, p1) else (p1, p0) in
      let ol = lits.(other) in
      match lit_status st ol with
      | `True ->
        st.watch.(fl) <- c :: st.watch.(fl);
        go rest
      | other_status -> (
        (* find a replacement watch among the remaining positions *)
        match
          try
            for k = 0 to Array.length lits - 1 do
              if k <> other && lit_status st lits.(k) <> `False then raise (Found k)
            done;
            None
          with Found k -> Some k
        with
        | Some k ->
          if here = p0 then st.w0.(c) <- k else st.w1.(c) <- k;
          st.watch.(lidx lits.(k)) <- c :: st.watch.(lidx lits.(k));
          go rest
        | None -> (
          match other_status with
          | `Unassigned ->
            (* unit: every other position is false *)
            st.watch.(fl) <- c :: st.watch.(fl);
            do_assign st ol.var ol.value undo;
            go rest
          | _ ->
            st.watch.(fl) <- c :: List.rev_append rest st.watch.(fl);
            raise Conflict)))
  in
  go clauses

let propagate st undo =
  try
    while not (Queue.is_empty st.queue) do
      process_var st (Queue.pop st.queue) undo
    done
  with e ->
    Queue.clear st.queue;
    raise e

(* ---- lower bounds ---- *)

(* Cheapest scenario not yet falsified in each group: a per-group
   cached min over viable scenarios, maintained under assignment/undo
   through the [nfalse] counters. *)
let bool_cost_lb st =
  let acc = ref 0.0 in
  Array.iter
    (fun g ->
      if g.dirty then begin
        g.cached_min <-
          (let m = ref infinity in
           (try
              Array.iter
                (fun s ->
                  if s.nfalse = 0 then begin
                    m := s.scost;
                    raise Exit
                  end)
                g.sorted
            with Exit -> ());
           !m);
        g.dirty <- false
      end;
      acc := !acc +. g.cached_min)
    st.groups;
  !acc

(* Span lower bound: the longest path first -> last under currently
   active edges is a valid lower bound on (last - first), and only
   grows as guards activate more edges.  The by-last index is
   precomputed once per solve, and the backward relaxation per [last]
   is cached against the graph's edge epoch — nodes whose assignments
   activated no guarded edge reuse the previous distances outright. *)
let span_dists st last =
  let ep = Dgraph.epoch st.problem.graph in
  match Hashtbl.find_opt st.span_cache last with
  | Some (e, d) when e = ep -> d
  | _ ->
    let d = Dgraph.longest_paths_to st.problem.graph ~dst:last in
    Hashtbl.replace st.span_cache last (ep, d);
    d

let span_lb st =
  Array.fold_left
    (fun acc (last, spans) ->
      let dist = span_dists st last in
      Array.fold_left
        (fun acc (w, first) ->
          let lp = dist.(first) in
          if lp = neg_infinity then acc else acc +. (w *. max 0.0 lp))
        acc spans)
    0.0 st.spans_by_last

(* ASAP feasibility, cached per edge epoch. *)
let asap st =
  let ep = Dgraph.epoch st.problem.graph in
  if st.asap_epoch = ep then st.asap_cache
  else begin
    let r = Dgraph.asap st.problem.graph in
    st.asap_cache <- r;
    st.asap_epoch <- ep;
    r
  end

let feasible st = match asap st with Some _ -> true | None -> false

(* Exact evaluation at a full boolean assignment. *)
let evaluate st =
  match asap st with
  | None -> None
  | Some lo ->
    let deadline = Array.make (Dgraph.nvars st.problem.graph) infinity in
    List.iter (fun sink -> deadline.(sink) <- lo.(sink)) st.problem.sinks;
    (match Dgraph.alap st.problem.graph ~deadline with
    | None -> None
    | Some nums ->
      let span_cost =
        List.fold_left
          (fun acc (w, last, first) -> acc +. (w *. (nums.(last) -. nums.(first))))
          0.0 st.problem.spans
      in
      let scenario_cost =
        List.fold_left
          (fun acc scenarios ->
            let holding =
              List.filter
                (fun (lits, _) -> List.for_all (fun l -> lit_status st l = `True) lits)
                scenarios
            in
            match holding with
            | [ (_, cost) ] -> acc +. cost
            | [] -> acc (* vacuous group (no scenario matches) contributes nothing *)
            | (_, cost) :: _ -> acc +. cost)
          0.0 st.problem.cost_groups
      in
      Some (scenario_cost +. span_cost, nums))

let current_best_objective st =
  match st.best with Some s -> s.objective | None -> infinity

let record_leaf st =
  match evaluate st with
  | None -> ()
  | Some (objective, nums) ->
    if objective < current_best_objective st then
      st.best <-
        Some
          {
            bools = Array.map (fun a -> a = 1) st.assign;
            nums;
            objective;
            optimal = false;
            nodes = st.node_count;
            timed_out = false;
          }

(* Branch variable choice: the first unassigned variable in the
   precomputed cost-spread order. *)
let next_unassigned st =
  let next = ref (-1) in
  (try
     Array.iter
       (fun v ->
         if st.assign.(v) = -1 then begin
           next := v;
           raise Exit
         end)
       st.order
   with Exit -> ());
  !next

let rec search st =
  st.node_count <- st.node_count + 1;
  if st.node_count > st.budget then raise Budget;
  (* The clock syscall is ~25 ns while a node costs microseconds, but
     checking only every 64 nodes keeps the overhead unmeasurable and
     still bounds the overshoot well below a millisecond. *)
  if
    st.deadline < infinity
    && st.node_count land 63 = 0
    && Unix.gettimeofday () > st.deadline
  then raise Deadline;
  (* Prune. *)
  if feasible st then begin
    let lb = bool_cost_lb st in
    if lb < current_best_objective st then begin
      let lb = lb +. span_lb st in
      if lb < current_best_objective st -. 1e-12 then begin
        let next = next_unassigned st in
        if next = -1 then record_leaf st
        else
          let first = st.prefer.(next) in
          List.iter
            (fun value ->
              let undo = ref [] in
              (* [Fun.protect] keeps graph frames balanced even when the
                 node budget aborts the search mid-branch. *)
              Fun.protect
                ~finally:(fun () -> undo_all st undo)
                (fun () ->
                  try
                    do_assign st next value undo;
                    propagate st undo;
                    search st
                  with Conflict -> ()))
            [ first; not first ]
      end
    end
  end

(* ---- search-state construction ---- *)

let build_watches st =
  (* Unit clauses are root-level assignments; the empty clause is
     immediately unsatisfiable.  Returns the root assignments still to
     be made (as lits). *)
  let units = ref [] in
  Array.iteri
    (fun c lits ->
      match Array.length lits with
      | 0 -> raise Conflict
      | 1 -> units := lits.(0) :: !units
      | _ ->
        st.w0.(c) <- 0;
        st.w1.(c) <- 1;
        st.watch.(lidx lits.(0)) <- c :: st.watch.(lidx lits.(0));
        st.watch.(lidx lits.(1)) <- c :: st.watch.(lidx lits.(1)))
    st.clauses;
  List.rev !units

let build_groups problem =
  let groups =
    List.mapi
      (fun gi scenarios ->
        let scens =
          List.map
            (fun (lits, cost) ->
              { slits = Array.of_list lits; scost = cost; group = gi; nfalse = 0 })
            scenarios
        in
        let sorted = Array.of_list scens in
        Array.sort (fun a b -> compare a.scost b.scost) sorted;
        ({ sorted; cached_min = infinity; dirty = true }, scens))
      problem.cost_groups
  in
  let occs = Array.make (max 1 (2 * problem.nbools)) [] in
  List.iter
    (fun (_, scens) ->
      List.iter
        (fun s ->
          Array.iter (fun l -> occs.(lidx l) <- s :: occs.(lidx l)) s.slits)
        scens)
    groups;
  (Array.of_list (List.map fst groups), occs)

let build_span_index problem =
  let by_last = Hashtbl.create 4 in
  List.iter
    (fun (w, last, first) ->
      if w > 0.0 then
        Hashtbl.replace by_last last
          ((w, first) :: Option.value ~default:[] (Hashtbl.find_opt by_last last)))
    problem.spans;
  let entries =
    Hashtbl.fold (fun last spans acc -> (last, Array.of_list spans) :: acc) by_last []
  in
  Array.of_list (List.sort compare entries)

(* Cost-guided branching order: rank variables by the largest
   cost spread (max - min) of any group they appear in — deciding them
   early moves the lower bound the most — and prefer, for each
   variable, the polarity whose cheapest mentioning scenario is
   cheaper.  Purely static, so the search stays deterministic. *)
let build_branch_order problem =
  let n = problem.nbools in
  let spread = Array.make n 0.0 in
  let min_cost = Array.make (2 * max 1 n) infinity in
  List.iter
    (fun scenarios ->
      let lo = List.fold_left (fun a (_, c) -> min a c) infinity scenarios in
      let hi = List.fold_left (fun a (_, c) -> max a c) neg_infinity scenarios in
      let gspread = if scenarios = [] then 0.0 else hi -. lo in
      List.iter
        (fun (lits, cost) ->
          List.iter
            (fun l ->
              spread.(l.var) <- max spread.(l.var) gspread;
              let i = lidx l in
              min_cost.(i) <- min min_cost.(i) cost)
            lits)
        scenarios)
    problem.cost_groups;
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match compare spread.(b) spread.(a) with 0 -> compare a b | c -> c)
    order;
  let prefer =
    Array.init n (fun v -> min_cost.((2 * v) + 1) < min_cost.(2 * v))
  in
  (order, prefer)

let make_state (problem : t) ~node_budget ~deadline =
  let clauses = Array.of_list (List.map Array.of_list problem.clauses) in
  let nclauses = Array.length clauses in
  let groups, occs = build_groups problem in
  let order, prefer = build_branch_order problem in
  {
    problem;
    assign = Array.make problem.nbools (-1);
    clauses;
    best = None;
    node_count = 0;
    budget = node_budget;
    deadline;
    watch = Array.make (max 1 (2 * problem.nbools)) [];
    w0 = Array.make nclauses 0;
    w1 = Array.make nclauses 0;
    queue = Queue.create ();
    occs;
    groups;
    spans_by_last = build_span_index problem;
    asap_epoch = min_int;
    asap_cache = None;
    span_cache = Hashtbl.create 4;
    order;
    prefer;
  }

(* Root propagation: establish watches, assign unit clauses, run to
   fixpoint.  Raises [Conflict] when the root level is already
   inconsistent. *)
let propagate_root st undo =
  let units = build_watches st in
  List.iter (fun l -> do_assign st l.var l.value undo) units;
  propagate st undo

(* Warm start: evaluate a caller-supplied full assignment (e.g. the
   greedy serialize-everything schedule) so [st.best] prunes from the
   first search node.  A hint that conflicts with the clauses or the
   difference constraints is silently skipped.  Hint evaluations are
   not search nodes: they are bounded in number and charged to
   wall-clock, not to the node budget. *)
let try_warm_start st hint =
  if Array.length hint <> Array.length st.assign then
    invalid_arg "Solver.solve: warm start hint has wrong arity";
  let undo = ref [] in
  Fun.protect
    ~finally:(fun () -> undo_all st undo)
    (fun () ->
      try
        Array.iteri
          (fun v value ->
            do_assign st v value undo;
            propagate st undo)
          hint;
        record_leaf st
      with Conflict -> ())

let solve ?(node_budget = 2_000_000) ?deadline_seconds ?(warm_starts = []) t =
  let deadline =
    match deadline_seconds with
    | None -> infinity
    | Some s -> if s = infinity then infinity else Unix.gettimeofday () +. max 0.0 s
  in
  let st = make_state t ~node_budget ~deadline in
  let undo = ref [] in
  let complete, timed_out =
    try
      propagate_root st undo;
      (* Duplicate hints (e.g. the static all-serial hint and a
         serializing greedy schedule) cost a propagation each, so
         evaluate each distinct assignment once. *)
      let seen = ref [] in
      List.iter
        (fun h ->
          if not (List.exists (fun p -> p = h) !seen) then begin
            seen := h :: !seen;
            try_warm_start st h
          end)
        warm_starts;
      search st;
      (true, false)
    with
    | Conflict -> (true, false)
    | Budget -> (false, false)
    | Deadline -> (false, true)
  in
  undo_all st undo;
  match st.best with
  | None -> None
  | Some sol -> Some { sol with optimal = complete; nodes = st.node_count; timed_out }

(* ---- propagation seam (tests) ---- *)

let propagation_fixpoint t seeds =
  let st = make_state t ~node_budget:max_int ~deadline:infinity in
  let undo = ref [] in
  Fun.protect
    ~finally:(fun () -> undo_all st undo)
    (fun () ->
      try
        propagate_root st undo;
        List.iter
          (fun (var, value) ->
            do_assign st var value undo;
            propagate st undo)
          seeds;
        let assigned = ref [] in
        for v = Array.length st.assign - 1 downto 0 do
          if st.assign.(v) >= 0 then assigned := (v, st.assign.(v) = 1) :: !assigned
        done;
        Some !assigned
      with Conflict -> None)
