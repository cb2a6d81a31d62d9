module Json = Qcx_persist.Json

let ( let* ) = Result.bind

type entry = {
  schedule : Qcx_circuit.Schedule.t;
  stats : Qcx_scheduler.Xtalk_sched.stats;
  epoch : string;
}

(* Intrusive doubly-linked recency list: head = most recent. *)
type node = {
  key : string;
  mutable entry : entry;
  mutable line : string option;  (* the entry's snapshot bytes, when persisted *)
  mutable prev : node option;  (* toward head *)
  mutable next : node option;  (* toward tail *)
}

type t = {
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable insertions : int;
  mutable purged : int;
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  purged : int;
  size : int;
  capacity : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    insertions = 0;
    purged = 0;
  }

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let mem t key = Hashtbl.mem t.table key

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    t.hits <- t.hits + 1;
    unlink t node;
    push_front t node;
    Some node.entry
  | None ->
    t.misses <- t.misses + 1;
    None

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    t.evictions <- t.evictions + 1

let add ?line t key entry =
  (match Hashtbl.find_opt t.table key with
  | Some node ->
    node.entry <- entry;
    node.line <- line;
    unlink t node;
    push_front t node
  | None ->
    let node = { key; entry; line; prev = None; next = None } in
    Hashtbl.replace t.table key node;
    push_front t node;
    t.insertions <- t.insertions + 1);
  while Hashtbl.length t.table > t.capacity do
    evict_lru t
  done

let purge t ~drop =
  let victims =
    Hashtbl.fold (fun _ node acc -> if drop node.key node.entry then node :: acc else acc) t.table []
  in
  List.iter
    (fun node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      t.purged <- t.purged + 1)
    victims;
  List.length victims

let counters (t : t) : counters =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    insertions = t.insertions;
    purged = t.purged;
    size = Hashtbl.length t.table;
    capacity = t.capacity;
  }

let keys_newest_first t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk (node.key :: acc) node.next
  in
  walk [] t.head

let lines_oldest_first t ~render =
  let rec walk acc = function
    | None -> acc
    | Some node ->
      let line = match node.line with Some l -> l | None -> render node.key node.entry in
      walk (line :: acc) node.next
  in
  walk [] t.head

(* ---- entry codec ---- *)

let entry_fields entry =
  [
    ("epoch", Json.String entry.epoch);
    ("stats", Wire.stats_to_json entry.stats);
    ("schedule", Wire.schedule_to_json entry.schedule);
  ]

let entry_to_json entry = Json.Object (entry_fields entry)

let entry_of_json doc =
  let* stats =
    match Json.member "stats" doc with
    | Some s -> Wire.stats_of_json s
    | None -> Error "missing stats"
  in
  let* schedule =
    match Json.member "schedule" doc with
    | Some s -> Wire.schedule_of_json s
    | None -> Error "missing schedule"
  in
  (* Entries written before epochs were recorded carry no epoch; ""
     marks them unknown (never purged as stale, evicted by LRU only). *)
  let epoch =
    match Json.member "epoch" doc with Some (Json.String e) -> e | _ -> ""
  in
  Ok { schedule; stats; epoch }
