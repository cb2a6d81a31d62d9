module Circuit = Qcx_circuit.Circuit
module Schedule = Qcx_circuit.Schedule
module Device = Qcx_device.Device
module Xtalk_sched = Qcx_scheduler.Xtalk_sched
module Pool = Qcx_util.Pool
module Json = Qcx_persist.Json

type config = {
  jobs : int;
  queue_bound : int;
  cache_capacity : int;
  max_compile_seconds : float option;
  deadline_grace : float;
  breaker : Breaker.config;
  checkpoint_every : int;
}

let default_config =
  {
    jobs = 1;
    queue_bound = 64;
    cache_capacity = 256;
    max_compile_seconds = Some 30.0;
    deadline_grace = 4.0;
    breaker = Breaker.default_config;
    checkpoint_every = 256;
  }

type compile_fault = Fail_compile of string | Stall_compile of float

type persistence = { cache_file : string; journal : Journal.t }

type t = {
  config : config;
  registry : Registry.t;
  cache : Cache.t;
  clock : unit -> float;
  breakers : (string, Breaker.t) Hashtbl.t;
  rung_hist : int array;  (** indexed like [Xtalk_sched.all_rungs] *)
  mutable persistence : persistence option;
  mutable since_checkpoint : int;
  mutable checkpoints : int;
  mutable checkpoint_failures : int;
  mutable draining : bool;
  mutable panics : int;
  mutable ok : int;
  mutable errors : int;
  mutable overloaded : int;
  mutable deadline_exceeded : int;
  mutable breaker_rejected : int;
  mutable compile_failures : int;
  mutable cold_compiles : int;
  mutable cold_attempts : int;
  mutable compile_seconds : float;
  mutable idle_ns : float;
      (** cumulative idle time across cold-compiled schedules (after DD
          padding when the mitigation knob is on) *)
  mutable idle_max_ns : float;  (** longest idle window seen in any cold compile *)
  mutable compile_fault : (nth:int -> compile_fault option) option;
  mutable calibrator : Calibrator.t option;
  mutable day : int;  (** logical calibration day, advanced by calibrate ops *)
  mutable on_insert : (string -> Cache.entry -> unit) option;
      (** tee on every cache insertion — the fleet shard hangs its
          replication sender here *)
  mutable extra_health : (unit -> (string * Json.t) list) option;
      (** extra fields appended to the [health] payload (per-shard
          identity and replication lag in fleet mode) *)
  mutable serving : (unit -> Json.t) option;
      (** reactor counters (accept queue, open connections, batch
          occupancy) — the socket server hangs its metrics here *)
  hit_render : (string, string) Hashtbl.t;
      (** cache key -> pre-rendered response tail for the hit fast
          path; invalidated on insert, cleared under size pressure *)
  mutable knob_memo : (Wire.params * string) option;
      (** one-slot memo of the cache-key knob string — nearly every
          request carries [Wire.default_params], so the five [%h]
          renderings amortize to a record comparison *)
  lat_cached : reservoir;
  lat_cold : reservoir;
  lat_other : reservoir;
}

(* Bounded reservoir of recent service latencies, one per op class.
   A plain ring: percentiles over the last [reservoir_size] samples,
   which is what an operator wants from [stats] anyway. *)
and reservoir = { samples : float array; mutable count : int }

let reservoir_size = 8192
let make_reservoir () = { samples = Array.make reservoir_size 0.0; count = 0 }

let reservoir_record r v =
  r.samples.(r.count mod reservoir_size) <- v;
  r.count <- r.count + 1

let reservoir_json r =
  let n = min r.count reservoir_size in
  if n = 0 then Json.Object [ ("count", Json.Number 0.0) ]
  else begin
    let sorted = Array.sub r.samples 0 n in
    Array.sort compare sorted;
    let pct q = sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5))) in
    Json.Object
      [
        ("count", Json.Number (float_of_int r.count));
        ("p50_ms", Json.Number (1000.0 *. pct 0.50));
        ("p99_ms", Json.Number (1000.0 *. pct 0.99));
        ("p999_ms", Json.Number (1000.0 *. pct 0.999));
        ("max_ms", Json.Number (1000.0 *. sorted.(n - 1)));
      ]
  end

type outcome = {
  device : string;
  epoch : string;
  key : string;
  cached : bool;
  schedule : Schedule.t;
  stats : Xtalk_sched.stats;
}

let create ?(config = default_config) ?(clock = Unix.gettimeofday) registry =
  if config.queue_bound <= 0 then invalid_arg "Service.create: queue_bound must be positive";
  if config.checkpoint_every <= 0 then
    invalid_arg "Service.create: checkpoint_every must be positive";
  if not (config.deadline_grace >= 1.0) then
    invalid_arg "Service.create: deadline_grace must be >= 1";
  {
    config;
    registry;
    cache = Cache.create ~capacity:config.cache_capacity;
    clock;
    breakers = Hashtbl.create 8;
    rung_hist = Array.make (List.length Xtalk_sched.all_rungs) 0;
    persistence = None;
    since_checkpoint = 0;
    checkpoints = 0;
    checkpoint_failures = 0;
    draining = false;
    panics = 0;
    ok = 0;
    errors = 0;
    overloaded = 0;
    deadline_exceeded = 0;
    breaker_rejected = 0;
    compile_failures = 0;
    cold_compiles = 0;
    cold_attempts = 0;
    compile_seconds = 0.0;
    idle_ns = 0.0;
    idle_max_ns = 0.0;
    compile_fault = None;
    calibrator = None;
    day = 0;
    on_insert = None;
    extra_health = None;
    serving = None;
    hit_render = Hashtbl.create 64;
    knob_memo = None;
    lat_cached = make_reservoir ();
    lat_cold = make_reservoir ();
    lat_other = make_reservoir ();
  }

let registry t = t.registry
let cache t = t.cache
let config t = t.config
let set_compile_fault t fault = t.compile_fault <- fault
let set_on_insert t f = t.on_insert <- f
let set_extra_health t f = t.extra_health <- f
let set_serving t f = t.serving <- f
let set_calibrator t c = t.calibrator <- c
let calibrator t = t.calibrator
let day t = t.day

(* Entries keyed on a retired epoch can never hit again (the epoch is
   hashed into the key), but they still squat LRU slots until capacity
   pressure ages them out.  Drop them eagerly whenever any device's
   epoch changes.  Entries with an unknown ("") epoch — persisted
   before epochs were recorded — are left to the LRU. *)
let purge_stale t =
  let live = List.filter_map (fun id ->
      Option.map (fun e -> e.Registry.epoch) (Registry.find t.registry id))
      (Registry.ids t.registry)
  in
  Cache.purge t.cache ~drop:(fun _ entry ->
      entry.Cache.epoch <> "" && not (List.mem entry.Cache.epoch live))
let set_draining t flag = t.draining <- flag
let draining t = t.draining
let note_panic t = t.panics <- t.panics + 1
let panics t = t.panics

let breaker_for t device =
  match Hashtbl.find_opt t.breakers device with
  | Some b -> b
  | None ->
    let b = Breaker.create t.config.breaker in
    Hashtbl.add t.breakers device b;
    b

let rung_index rung =
  let rec scan i = function
    | [] -> 0
    | r :: rest -> if r = rung then i else scan (i + 1) rest
  in
  scan 0 Xtalk_sched.all_rungs

let knob_string (params : Wire.params) =
  let knob =
    Printf.sprintf "omega=%h threshold=%h deadline=%s ladder=%s window=%s" params.Wire.omega
      params.Wire.threshold
      (match params.Wire.deadline with None -> "none" | Some d -> Printf.sprintf "%h" d)
      (Xtalk_sched.rung_name params.Wire.ladder_start)
      (match params.Wire.window with None -> "auto" | Some w -> string_of_int w)
  in
  (* Appended only when set, so every pre-knob key — including cache
     snapshots persisted by older builds — stays byte-identical. *)
  match params.Wire.mitigation with
  | None -> knob
  | Some _ -> knob ^ " mitig=" ^ Wire.mitigation_name params.Wire.mitigation

let knob_of_params t (params : Wire.params) =
  match t.knob_memo with
  | Some (p, k) when p == params || p = params -> k
  | _ ->
    let k = knob_string params in
    t.knob_memo <- Some (params, k);
    k

let cache_key_of_text ~device_id ~epoch ~knob ~canon_text =
  let b = Buffer.create (128 + String.length canon_text) in
  Buffer.add_string b "qcx-schedule-key-v1\n";
  Buffer.add_string b device_id;
  Buffer.add_char b '\n';
  Buffer.add_string b epoch;
  Buffer.add_char b '\n';
  Buffer.add_string b knob;
  Buffer.add_char b '\n';
  Buffer.add_string b canon_text;
  Digest.to_hex (Digest.string (Buffer.contents b))

let cache_key ~device_id ~epoch ~params canon =
  cache_key_of_text ~device_id ~epoch ~knob:(knob_string params)
    ~canon_text:(Canon.serialize canon)

(* The request's own deadline, capped by the service-wide compile
   budget so one request cannot monopolize a worker. *)
let effective_deadline t (params : Wire.params) =
  match (params.Wire.deadline, t.config.max_compile_seconds) with
  | None, cap -> cap
  | (Some _ as d), None -> d
  | Some d, Some cap -> Some (Float.min d cap)

(* The cold path: the degradation ladder means this never raises for a
   well-formed canonical circuit. *)
let cold_compile ?deadline (entry : Registry.entry) (params : Wire.params) canon =
  let sched, stats =
    Xtalk_sched.schedule ~omega:params.omega ~threshold:params.threshold
      ?deadline_seconds:deadline ~ladder_start:params.ladder_start
      ?window_gates:params.Wire.window ~device:entry.Registry.device
      ~xtalk:entry.Registry.xtalk canon
  in
  match params.Wire.mitigation with
  | None -> (sched, stats)
  | Some sequence ->
    let padded, _protection, _ =
      Qcx_mitigation.Dd.pad ~sequence ~device:entry.Registry.device sched
    in
    (* Report the schedule actually served: residual idle after the
       pulse trains went in. *)
    let idle_total, idle_max = Qcx_scheduler.Idle.summarize padded in
    (padded, { stats with Xtalk_sched.idle_total; idle_max })

(* One slot of the parallel compile phase.  Fault injection and the
   last-resort exception guard both live here, so a dying worker
   degrades to a typed per-request error instead of killing the whole
   batch at the Pool join. *)
let run_slot t ~nth entry params canon =
  let deadline = effective_deadline t params in
  let started = t.clock () in
  let fault = match t.compile_fault with Some f -> f ~nth | None -> None in
  let result =
    match fault with
    | Some (Fail_compile msg) -> Error msg
    | _ -> (
      (match fault with Some (Stall_compile s) -> Unix.sleepf s | _ -> ());
      try Ok (cold_compile ?deadline entry params canon)
      with e -> Error ("compile failed: " ^ Printexc.to_string e))
  in
  (result, t.clock () -. started)

let tally_cold t (stats : Xtalk_sched.stats) =
  t.cold_compiles <- t.cold_compiles + 1;
  t.compile_seconds <- t.compile_seconds +. stats.solve_seconds;
  t.idle_ns <- t.idle_ns +. stats.idle_total;
  t.idle_max_ns <- Float.max t.idle_max_ns stats.idle_max;
  let i = rung_index stats.rung in
  t.rung_hist.(i) <- t.rung_hist.(i) + 1

(* ---- persistence: snapshot + write-ahead journal ---- *)

(* A checkpoint writes the live entries' retained journal lines, least
   recent first, as the new snapshot — no document is built.  The
   period restarts whether or not the write succeeds: a snapshot that
   fails (say, ENOSPC on the big file while small appends still fit)
   is retried a full period later, not on every following insert. *)
let checkpoint t =
  match t.persistence with
  | None -> Ok ()
  | Some p -> (
    let lines =
      Cache.lines_oldest_first t.cache ~render:(fun key entry ->
          Journal.line_of_record { Journal.key; entry })
    in
    t.since_checkpoint <- 0;
    let write oc =
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        lines
    in
    match Qcx_persist.Store.write_atomic ~path:p.cache_file write with
    | Error e ->
      t.checkpoint_failures <- t.checkpoint_failures + 1;
      Error ("checkpoint failed: " ^ e)
    | Ok () ->
      t.checkpoints <- t.checkpoints + 1;
      Journal.reset p.journal)

(* Every cache mutation goes through here: journal first (when
   persistence is on), then insert.  A failing journal — full disk —
   degrades durability to the last checkpoint but never blocks
   serving. *)
let cache_insert t key entry =
  (* A re-inserted key (eviction + recompile) may carry fresh timing
     stats; the pre-rendered hit line must not serve the stale ones. *)
  Hashtbl.remove t.hit_render key;
  (* The replication tee runs on every insert, persistence or not: the
     peer's replica is an independent durability channel, so a failing
     local journal must not silence it (and vice versa). *)
  (match t.on_insert with Some f -> f key entry | None -> ());
  match t.persistence with
  | None -> Cache.add t.cache key entry
  | Some p ->
    (* The journal line is also the entry's snapshot bytes: rendered
       once here, written out again by every checkpoint it survives. *)
    let line = Journal.line_of_record { Journal.key; entry } in
    let appended = Journal.append_line p.journal line in
    (* Insert before any checkpoint: a checkpoint triggered by this
       very append must snapshot a cache that already holds the entry,
       or resetting the journal would orphan it. *)
    Cache.add ~line t.cache key entry;
    (match appended with
    | Error _ -> ()
    | Ok () ->
      t.since_checkpoint <- t.since_checkpoint + 1;
      if t.since_checkpoint >= t.config.checkpoint_every then ignore (checkpoint t))

let journal_path ~cache_file = cache_file ^ ".journal"

let enable_persistence t ~cache_file ?(fsync = true) () =
  match Journal.open_append ~path:(journal_path ~cache_file) ~fsync () with
  | Error e -> Error e
  | Ok journal ->
    (match t.persistence with Some p -> Journal.close p.journal | None -> ());
    t.persistence <- Some { cache_file; journal };
    Ok ()

let persistence_journal t = Option.map (fun p -> p.journal) t.persistence

type recovery = {
  snapshot_entries : int;
  snapshot_dropped : int;
  snapshot_torn : bool;
  journal_entries : int;
  journal_dropped : int;
  torn : bool;
}

let recover t ~cache_file ?(fsync = true) () =
  (* Snapshot and journal are one format: the snapshot's valid prefix
     first (a missing file is empty; a damaged line, or a whole-document
     snapshot from older builds, ends it), then the journal's on top. *)
  let snapshot = Journal.restore t.cache ~path:cache_file in
  let replay = Journal.restore t.cache ~path:(journal_path ~cache_file) in
  match enable_persistence t ~cache_file ~fsync () with
  | Error e -> Error e
  | Ok () -> (
    (* Checkpoint immediately: compacts the replayed records into the
       snapshot and truncates the journal, so a torn tail can never be
       appended onto. *)
    match checkpoint t with
    | Error e -> Error e
    | Ok () ->
      Ok
        {
          snapshot_entries = snapshot.Journal.read;
          snapshot_dropped = snapshot.Journal.dropped;
          snapshot_torn = snapshot.Journal.torn;
          journal_entries = replay.Journal.read;
          journal_dropped = replay.Journal.dropped;
          torn = replay.Journal.torn;
        })

(* ---- single synchronous compile (CLI path) ---- *)

(* The key is derived by the fused serializer without materializing
   the canonical circuit; hits never need it, so [canon] is forced
   only when a cold compile actually runs.  (The lazy cannot raise:
   key_serialize already validated every gate against the widened
   register.) *)
let resolve t ~device ~params circuit =
  match Registry.find t.registry device with
  | None -> Error ("unknown device " ^ device)
  | Some entry -> (
    try
      let nqubits = Device.nqubits entry.Registry.device in
      let canon_text = Canon.key_serialize ~nqubits circuit in
      let knob = knob_of_params t params in
      let key = cache_key_of_text ~device_id:device ~epoch:entry.Registry.epoch ~knob ~canon_text in
      Ok (entry, lazy (Canon.normalize ~nqubits circuit), key)
    with Invalid_argument m -> Error m)

let compile t ~device ?(params = Wire.default_params) circuit =
  match resolve t ~device ~params circuit with
  | Error e ->
    t.errors <- t.errors + 1;
    Error e
  | Ok (entry, canon, key) ->
    let epoch = entry.Registry.epoch in
    t.ok <- t.ok + 1;
    (match Cache.find t.cache key with
    | Some centry ->
      Ok
        {
          device;
          epoch;
          key;
          cached = true;
          schedule = centry.Cache.schedule;
          stats = centry.Cache.stats;
        }
    | None ->
      let schedule, stats =
        cold_compile ?deadline:(effective_deadline t params) entry params (Lazy.force canon)
      in
      cache_insert t key { Cache.schedule; stats; epoch };
      tally_cold t stats;
      Ok { device; epoch; key; cached = false; schedule; stats })

(* ---- responses ---- *)

let ok_fields id = [ ("id", Json.String id); ("status", Json.String "ok") ]

let compile_response ~id (o : outcome) =
  Json.Object
    (ok_fields id
    @ [
        ("device", Json.String o.device);
        ("epoch", Json.String o.epoch);
        ("key", Json.String o.key);
        ("cached", Json.Bool o.cached);
        ("rung", Json.String (Xtalk_sched.rung_name o.stats.rung));
        ("makespan", Json.Number (Schedule.makespan o.schedule));
        ("stats", Wire.stats_to_json o.stats);
        ("schedule", Wire.schedule_to_json o.schedule);
      ])

(* ---- the cached-path fast render ----

   Everything in a hit response after the [id] field is a pure
   function of the cache key (the entry is deterministic per key, and
   [cached] is always true), so the tail is rendered once per key and
   spliced after the per-request id.  Derived from
   {!compile_response} itself — byte-identical to rendering the full
   document, which the unit tests pin. *)

let hit_render_bound t = max 64 (4 * t.config.cache_capacity)

let render_hit t ~id ~device ~epoch ~key (entry : Cache.entry) =
  let suffix =
    match Hashtbl.find_opt t.hit_render key with
    | Some s -> s
    | None ->
      let o =
        {
          device;
          epoch;
          key;
          cached = true;
          schedule = entry.Cache.schedule;
          stats = entry.Cache.stats;
        }
      in
      let tail =
        match compile_response ~id:"" o with
        | Json.Object (_ :: rest) -> Json.to_string ~indent:false (Json.Object rest)
        | other -> Json.to_string ~indent:false other
      in
      (* compact printer: "{\"status\": ...}" -> ",\"status\": ...}" *)
      let s = "," ^ String.sub tail 1 (String.length tail - 1) in
      if Hashtbl.length t.hit_render >= hit_render_bound t then Hashtbl.reset t.hit_render;
      Hashtbl.add t.hit_render key s;
      s
  in
  "{\"id\": " ^ Json.to_string ~indent:false (Json.String id) ^ suffix

let breakers_json t =
  Json.Object
    (List.filter_map
       (fun id ->
         Option.map (fun b -> (id, Breaker.to_json b)) (Hashtbl.find_opt t.breakers id))
       (Registry.ids t.registry))

let journal_json t =
  match t.persistence with
  | None -> Json.Object [ ("enabled", Json.Bool false) ]
  | Some p ->
    Json.Object
      [
        ("enabled", Json.Bool true);
        ("path", Json.String (Journal.path p.journal));
        ("appends", Json.Number (float_of_int (Journal.appends p.journal)));
        ("failed_appends", Json.Number (float_of_int (Journal.failed_appends p.journal)));
        ("since_checkpoint", Json.Number (float_of_int t.since_checkpoint));
        ("checkpoints", Json.Number (float_of_int t.checkpoints));
        ("checkpoint_failures", Json.Number (float_of_int t.checkpoint_failures));
      ]

let stats_json t =
  let c = Cache.counters t.cache in
  Json.Object
    ([
      ( "cache",
        Json.Object
          [
            ("hits", Json.Number (float_of_int c.Cache.hits));
            ("misses", Json.Number (float_of_int c.Cache.misses));
            ("evictions", Json.Number (float_of_int c.Cache.evictions));
            ("insertions", Json.Number (float_of_int c.Cache.insertions));
            ("purged", Json.Number (float_of_int c.Cache.purged));
            ("size", Json.Number (float_of_int c.Cache.size));
            ("capacity", Json.Number (float_of_int c.Cache.capacity));
          ] );
      ("registry", Registry.to_json t.registry);
      ( "served",
        Json.Object
          [
            ("ok", Json.Number (float_of_int t.ok));
            ("errors", Json.Number (float_of_int t.errors));
            ("overloaded", Json.Number (float_of_int t.overloaded));
            ("deadline_exceeded", Json.Number (float_of_int t.deadline_exceeded));
            ("breaker_rejected", Json.Number (float_of_int t.breaker_rejected));
            ("compile_failures", Json.Number (float_of_int t.compile_failures));
            ("panics", Json.Number (float_of_int t.panics));
            ("cold_compiles", Json.Number (float_of_int t.cold_compiles));
            ("compile_seconds", Json.Number t.compile_seconds);
            ("idle_ns", Json.Number t.idle_ns);
            ("idle_max_ns", Json.Number t.idle_max_ns);
          ] );
      ( "rungs",
        Json.Object
          (List.mapi
             (fun i r ->
               (Xtalk_sched.rung_name r, Json.Number (float_of_int t.rung_hist.(i))))
             Xtalk_sched.all_rungs) );
      ( "latency",
        Json.Object
          [
            ("cached", reservoir_json t.lat_cached);
            ("cold", reservoir_json t.lat_cold);
            ("other", reservoir_json t.lat_other);
          ] );
      ("breakers", breakers_json t);
      ("journal", journal_json t);
    ]
    @ (match t.serving with Some f -> [ ("serving", f ()) ] | None -> []))

(* Per-device calibration state for the health and epoch_status ops:
   the epoch being served, how stale it is (days since promotion on
   the service's logical clock), the rollback ring, and any refresh
   warning that previously went only to stderr. *)
let device_status_json t id =
  Option.map
    (fun (e : Registry.entry) ->
      Json.Object
        [
          ("id", Json.String id);
          ("epoch", Json.String e.Registry.epoch);
          ("ring", Json.Array (List.map (fun (ep, _) -> Json.String ep) e.Registry.ring));
          ( "promoted_day",
            match e.Registry.promoted_day with
            | None -> Json.Null
            | Some d -> Json.Number (float_of_int d) );
          ( "staleness_days",
            match e.Registry.promoted_day with
            | None -> Json.Null
            | Some d -> Json.Number (float_of_int (max 0 (t.day - d))) );
          ( "warning",
            match e.Registry.last_warning with None -> Json.Null | Some w -> Json.String w );
          ("quarantined", Json.Number (float_of_int (List.length e.Registry.quarantined)));
          ("bumps", Json.Number (float_of_int e.Registry.bumps));
        ])
    (Registry.find t.registry id)

let devices_status_json t ids =
  Json.Array (List.filter_map (fun id -> device_status_json t id) ids)

let health_json t =
  let c = Cache.counters t.cache in
  let extra = match t.extra_health with Some f -> f () | None -> [] in
  Json.Object
    ([
       ("ready", Json.Bool (not t.draining));
       ("draining", Json.Bool t.draining);
       ("cache_size", Json.Number (float_of_int c.Cache.size));
       ("cache_purged", Json.Number (float_of_int c.Cache.purged));
       ("panics", Json.Number (float_of_int t.panics));
       ("idle_ns", Json.Number t.idle_ns);
       ("day", Json.Number (float_of_int t.day));
       ("devices", devices_status_json t (Registry.ids t.registry));
       ( "latency",
         Json.Object
           [
             ("cached", reservoir_json t.lat_cached);
             ("cold", reservoir_json t.lat_cold);
             ("other", reservoir_json t.lat_other);
           ] );
       ("breakers", breakers_json t);
       ("journal", journal_json t);
     ]
    @ (match t.serving with Some f -> [ ("serving", f ()) ] | None -> [])
    @ extra)

let handle_other t req =
  match req with
  | Wire.Compile _ -> assert false
  | Wire.Stats { id } ->
    t.ok <- t.ok + 1;
    Json.Object (ok_fields id @ [ ("stats", stats_json t) ])
  | Wire.Devices { id } ->
    t.ok <- t.ok + 1;
    Json.Object (ok_fields id @ [ ("devices", Registry.to_json t.registry) ])
  | Wire.Bump { id; device } -> (
    let before = Option.map (fun e -> e.Registry.epoch) (Registry.find t.registry device) in
    match Registry.refresh t.registry ~id:device with
    | Error e ->
      t.errors <- t.errors + 1;
      Wire.error_response ~id:(Some id) e
    | Ok (entry, warning) ->
      t.ok <- t.ok + 1;
      let bumped = before <> Some entry.Registry.epoch in
      let purged = if bumped then purge_stale t else 0 in
      Json.Object
        (ok_fields id
        @ [
            ("device", Json.String device);
            ("epoch", Json.String entry.Registry.epoch);
            ("bumped", Json.Bool bumped);
            ("purged", Json.Number (float_of_int purged));
          ]
        @ match warning with None -> [] | Some w -> [ ("warning", Json.String w) ]))
  | Wire.Calibrate { id; device; day; force; full; poison } -> (
    match t.calibrator with
    | None ->
      t.errors <- t.errors + 1;
      Wire.typed_error ~id:(Some id) ~status:"calibration_disabled"
        "calibration data plane not enabled on this server"
    | Some cal -> (
      let eff_day =
        match day with
        | Some d ->
          t.day <- max t.day d;
          d
        | None -> t.day
      in
      (* A poisoned cycle must actually reach the gate, so it implies
         [force]. *)
      let force = force || poison in
      let extra_faults = if poison then [ Calibrator.Truncate_merge 0.85 ] else [] in
      match Calibrator.calibrate ~force ~full ~extra_faults cal ~id:device ~day:eff_day with
      | Error e ->
        t.errors <- t.errors + 1;
        Wire.error_response ~id:(Some id) e
      | Ok action ->
        t.ok <- t.ok + 1;
        let purged =
          match action with
          | Calibrator.Promoted _ | Calibrator.Rolled_back _ -> purge_stale t
          | _ -> 0
        in
        let epoch =
          match Registry.find t.registry device with
          | Some e -> e.Registry.epoch
          | None -> ""
        in
        Json.Object
          (ok_fields id
          @ [
              ("device", Json.String device);
              ("day", Json.Number (float_of_int eff_day));
              ("epoch", Json.String epoch);
              ( "promoted",
                Json.Bool (match action with Calibrator.Promoted _ -> true | _ -> false) );
              ("purged", Json.Number (float_of_int purged));
              ("result", Calibrator.action_to_json action);
            ])))
  | Wire.Epoch_status { id; device } -> (
    let unknown =
      match device with
      | Some d when Registry.find t.registry d = None -> Some d
      | _ -> None
    in
    match unknown with
    | Some d ->
      t.errors <- t.errors + 1;
      Wire.error_response ~id:(Some id) ("unknown device " ^ d)
    | None ->
      t.ok <- t.ok + 1;
      let ids = match device with Some d -> [ d ] | None -> Registry.ids t.registry in
      Json.Object
        (ok_fields id
        @ [
            ("day", Json.Number (float_of_int t.day));
            ("devices", devices_status_json t ids);
          ]))
  | Wire.Rollback { id; device } -> (
    let result =
      match t.calibrator with
      | Some cal -> Calibrator.rollback cal ~id:device ~day:t.day
      | None -> Registry.rollback ~day:t.day t.registry ~id:device
    in
    match result with
    | Error e ->
      t.errors <- t.errors + 1;
      Wire.typed_error ~id:(Some id) ~status:"rollback_failed" e
    | Ok entry ->
      t.ok <- t.ok + 1;
      let purged = purge_stale t in
      Json.Object
        (ok_fields id
        @ [
            ("device", Json.String device);
            ("epoch", Json.String entry.Registry.epoch);
            ("ring_depth", Json.Number (float_of_int (List.length entry.Registry.ring)));
            ("purged", Json.Number (float_of_int purged));
          ]))
  | Wire.Ping { id } ->
    t.ok <- t.ok + 1;
    Json.Object (ok_fields id @ [ ("pong", Json.Bool true) ])
  | Wire.Health { id } ->
    t.ok <- t.ok + 1;
    Json.Object (ok_fields id @ [ ("health", health_json t) ])
  | Wire.Shutdown { id } ->
    t.ok <- t.ok + 1;
    Json.Object (ok_fields id @ [ ("stopping", Json.Bool true) ])

(* A request staged for after the parallel cold-compile phase.
   Non-compile ops are deferred too, so a [stats] pipelined behind
   compiles in one batch observes the batch's effects. *)
type staged =
  | Done of Json.t
  | Hit of { id : string; device : string; epoch : string; key : string; entry : Cache.entry }
  | Miss of { id : string; device : string; epoch : string; key : string; slot : int }
  | Other of Wire.request

(* One finished response, either as a document or as a hit that can
   take the pre-rendered fast path.  Both finalizers below produce
   byte-identical wire lines. *)
type rendered =
  | R_doc of Json.t
  | R_hit of { id : string; device : string; epoch : string; key : string; entry : Cache.entry }

(* What the insertion phase decided about one compile slot. *)
type slot_outcome =
  | Served of Cache.entry
  | Overrun of { deadline : float; elapsed : float }
  | Failed of string

let handle_batch_staged t requests =
  let budget = ref t.config.queue_bound in
  let nslots = ref 0 in
  let slot_of_key = Hashtbl.create 16 in
  let work = Hashtbl.create 16 in
  let staged =
    List.map
      (fun req ->
        match req with
        | Wire.Compile { id; device; circuit; params } ->
          if !budget <= 0 then begin
            t.overloaded <- t.overloaded + 1;
            Done (Wire.overloaded_response ~id:(Some id))
          end
          else begin
            decr budget;
            let started = t.clock () in
            match resolve t ~device ~params circuit with
            | Error e ->
              t.errors <- t.errors + 1;
              Done (Wire.error_response ~id:(Some id) e)
            | Ok (entry, canon, key) -> (
              let epoch = entry.Registry.epoch in
              match Cache.find t.cache key with
              | Some centry ->
                (* A hit never exercises the compile path, so it is
                   served even through an open breaker. *)
                t.ok <- t.ok + 1;
                reservoir_record t.lat_cached (t.clock () -. started);
                Hit { id; device; epoch; key; entry = centry }
              | None -> (
                match Breaker.check (breaker_for t device) ~now:(t.clock ()) with
                | Breaker.Reject retry_after ->
                  t.breaker_rejected <- t.breaker_rejected + 1;
                  Done (Wire.breaker_open_response ~id:(Some id) ~device ~retry_after)
                | Breaker.Admit | Breaker.Probe ->
                  let slot =
                    match Hashtbl.find_opt slot_of_key key with
                    | Some s -> s
                    | None ->
                      let s = !nslots in
                      incr nslots;
                      Hashtbl.add slot_of_key key s;
                      Hashtbl.add work s (device, entry, params, canon, key);
                      s
                  in
                  Miss { id; device; epoch; key; slot }))
          end
        | other -> Other other)
      requests
  in
  let n = !nslots in
  (* Fault sites are numbered by a monotone attempt counter so an
     injected plan hits the same compiles at every [jobs] value. *)
  let base = t.cold_attempts in
  t.cold_attempts <- t.cold_attempts + n;
  let compiled =
    if n = 0 then [||]
    else
      Pool.parallel_chunks ~jobs:t.config.jobs ~n (fun ~lo ~hi ->
          List.init (hi - lo) (fun k ->
              let slot = lo + k in
              let _, entry, params, canon, _ = Hashtbl.find work slot in
              run_slot t ~nth:(base + slot) entry params (Lazy.force canon)))
      |> List.concat |> Array.of_list
  in
  (* Insert in slot (first-appearance) order so cache recency is
     deterministic regardless of [jobs].  Breaker outcomes are
     recorded here, one per slot. *)
  let outcomes =
    Array.mapi
      (fun slot (result, elapsed) ->
        let device, rentry, params, _, key = Hashtbl.find work slot in
        let breaker = breaker_for t device in
        let now = t.clock () in
        reservoir_record t.lat_cold elapsed;
        match result with
        | Error msg ->
          Breaker.record_failure breaker ~now;
          t.compile_failures <- t.compile_failures + 1;
          Failed msg
        | Ok (schedule, stats) ->
          let overrun =
            match effective_deadline t params with
            | None -> false
            | Some d -> elapsed > d *. t.config.deadline_grace
          in
          if overrun || not (Breaker.rung_acceptable breaker stats.Xtalk_sched.rung) then
            Breaker.record_failure breaker ~now
          else Breaker.record_success breaker ~now;
          (* The schedule is valid even when late: cache it so a retry
             of the same request is a hit. *)
          let centry = { Cache.schedule; stats; epoch = rentry.Registry.epoch } in
          cache_insert t key centry;
          tally_cold t stats;
          if overrun then
            Overrun
              {
                deadline = Option.value (effective_deadline t params) ~default:0.0;
                elapsed;
              }
          else Served centry)
      compiled
  in
  List.map
    (function
      | Done response -> R_doc response
      | Hit { id; device; epoch; key; entry } -> R_hit { id; device; epoch; key; entry }
      | Other req ->
        let started = t.clock () in
        let resp = handle_other t req in
        reservoir_record t.lat_other (t.clock () -. started);
        R_doc resp
      | Miss { id; device; epoch; key; slot } ->
        R_doc
          (match outcomes.(slot) with
          | Served { Cache.schedule; stats; epoch = _ } ->
            t.ok <- t.ok + 1;
            compile_response ~id { device; epoch; key; cached = false; schedule; stats }
          | Overrun { deadline; elapsed } ->
            t.deadline_exceeded <- t.deadline_exceeded + 1;
            Wire.deadline_exceeded_response ~id:(Some id) ~deadline ~elapsed
          | Failed msg ->
            t.errors <- t.errors + 1;
            Wire.internal_error_response ~id:(Some id) msg))
    staged

let finalize_doc = function
  | R_doc d -> d
  | R_hit { id; device; epoch; key; entry } ->
    compile_response ~id
      {
        device;
        epoch;
        key;
        cached = true;
        schedule = entry.Cache.schedule;
        stats = entry.Cache.stats;
      }

let finalize_line t = function
  | R_doc d -> Json.to_string ~indent:false d
  | R_hit { id; device; epoch; key; entry } -> render_hit t ~id ~device ~epoch ~key entry

let handle_batch t requests = List.map finalize_doc (handle_batch_staged t requests)

let handle_batch_rendered t requests =
  List.map (finalize_line t) (handle_batch_staged t requests)

let handle t req =
  match handle_batch t [ req ] with
  | [ response ] -> response
  | _ -> assert false
