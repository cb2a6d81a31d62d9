module Json = Qcx_persist.Json
module Rng = Qcx_util.Rng
module Xtalk_sched = Qcx_scheduler.Xtalk_sched

(* Fleet front door (DESIGN.md §14): maps compile requests onto shards
   via the consistent-hash ring, fails over around dead shards with a
   bounded, deadline-aware retry, and aggregates the fan-out ops
   (health/stats over every shard, epoch changes broadcast to all).

   Failover state machine, per shard:

     Live --(send/ack failure trips the breaker)--> Degraded
     Degraded --(cooloff elapses, probe succeeds)--> Live
     any --(set_rebuilding true)--> Rebuilding (not routable)
     Rebuilding --(set_rebuilding false)--> Live/Degraded by breaker

   Degraded shards stay routable — the open breaker short-circuits the
   attempt and the request goes straight to its ring successor, which
   is what bounds tail latency during an outage.  Rebuilding shards
   are taken off the ring entirely so a warming cache never serves. *)

type transport = {
  send : shard:int -> string list -> (string list, string) result;
      (** one batch, one shard: write the lines, read one response per
          line (in order) *)
  send_many : (int * string list) list -> (string list, string) result list;
      (** pipelined fan-out: every chunk is written before any response
          is awaited, so distinct shards proceed concurrently and one
          shard can hold several chunks in flight.  Results come back
          positionally.  A partial (short) [Ok] is allowed — the caller
          salvages by response id. *)
}

(* Lift a plain send function into a transport; the sequential
   [send_many] is exact for in-process transports (Fleet), where a
   send never blocks on a peer. *)
let transport_of_send send =
  { send; send_many = List.map (fun (shard, lines) -> send ~shard lines) }

type config = {
  vnodes : int;
  retry_backoff : float;  (** base for the jittered pre-retry sleep *)
  jitter_seed : int;
  default_budget : float;  (** retry budget when the request has no deadline *)
  breaker : Breaker.config;
}

let default_config =
  {
    vnodes = 64;
    retry_backoff = 0.02;
    jitter_seed = 0;
    default_budget = 5.0;
    (* threshold 1: one connect/ack failure marks the arc degraded —
       at fleet scale a dead peer fails every request it sees, and the
       short cooloff turns re-probing into the health check. *)
    breaker = { Breaker.default_config with Breaker.threshold = 1; cooloff_seconds = 0.5 };
  }

type shard_state = Live | Degraded | Rebuilding

let state_name = function Live -> "live" | Degraded -> "degraded" | Rebuilding -> "rebuilding"

type t = {
  config : config;
  nshards : int;
  ring : Ring.t;
  transport : transport;
  breakers : Breaker.t array;
  rebuilding : bool array;
  clock : unit -> float;
  width : string -> int option;
  rng : Rng.t;
  mutable routed : int;
  mutable failovers : int;
  mutable retries : int;
  mutable unavailable : int;
  mutable last_failover_at : float option;
  mutable serving : (unit -> Json.t) option;
      (** reactor metrics hook, embedded in aggregated health/stats *)
}

let create ?(config = default_config) ?(clock = Unix.gettimeofday) ?(width = fun _ -> None)
    ~nshards ~transport () =
  if nshards <= 0 then invalid_arg "Router.create: nshards must be positive";
  {
    config;
    nshards;
    ring = Ring.create ~vnodes:config.vnodes ~nshards ();
    transport;
    breakers = Array.init nshards (fun _ -> Breaker.create config.breaker);
    rebuilding = Array.make nshards false;
    clock;
    width;
    rng = Rng.create (Hashtbl.hash (config.jitter_seed, "qcx-router-jitter"));
    routed = 0;
    failovers = 0;
    retries = 0;
    unavailable = 0;
    last_failover_at = None;
    serving = None;
  }

let set_serving t f = t.serving <- f

let nshards t = t.nshards
let ring t = t.ring
let breaker t s = t.breakers.(s)
let routable t s = not t.rebuilding.(s)

let shard_state t s =
  if t.rebuilding.(s) then Rebuilding
  else match Breaker.state t.breakers.(s) with Breaker.Closed -> Live | _ -> Degraded

let set_rebuilding t s v = t.rebuilding.(s) <- v
let reset_breaker t s = t.breakers.(s) <- Breaker.create t.config.breaker

(* ---- routing key ----

   A pure function of (device, scheduler knobs, canonical circuit) —
   deliberately a superset-agnostic projection of the cache key: the
   epoch is excluded (an epoch bump must not migrate keys between
   shards and wipe the fleet's locality) and so is the deadline (a
   client tightening its budget should still hit the shard holding the
   entry...).  Requests with equal cache keys always route alike;
   requests with different cache keys may share a shard, which only
   costs capacity, never correctness. *)

let knob_string (p : Wire.params) =
  Printf.sprintf "omega=%h threshold=%h ladder=%s window=%s mitig=%s" p.Wire.omega
    p.Wire.threshold
    (Xtalk_sched.rung_name p.Wire.ladder_start)
    (match p.Wire.window with None -> "auto" | Some w -> string_of_int w)
    (Wire.mitigation_name p.Wire.mitigation)

let routing_key t ~device ~params circuit =
  let canon =
    match
      match t.width device with
      | Some n -> Canon.serialize (Canon.normalize ~nqubits:n circuit)
      | None -> Canon.serialize (Canon.normalize circuit)
    with
    | s -> s
    | exception Invalid_argument _ -> "invalid-circuit"
  in
  String.concat "\n" [ "qcx-route-key-v1"; device; knob_string params; canon ]

(* ---- wire plumbing ---- *)

let render doc = Json.to_string ~indent:false doc

let router_json t =
  Json.Object
    ([
      ("nshards", Json.Number (float_of_int t.nshards));
      ("routed", Json.Number (float_of_int t.routed));
      ("failovers", Json.Number (float_of_int t.failovers));
      ("retries", Json.Number (float_of_int t.retries));
      ("unavailable", Json.Number (float_of_int t.unavailable));
      ( "last_failover_at",
        match t.last_failover_at with None -> Json.Null | Some x -> Json.Number x );
      ("ring_points", Json.Number (float_of_int (Array.length (Ring.points t.ring))));
    ]
    @ (match t.serving with Some f -> [ ("serving", f ()) ] | None -> []))

(* One guarded attempt against one shard.  The breaker is both the
   gate (Reject short-circuits without touching the socket) and the
   detector (every outcome is recorded, so connect/ack timeouts feed
   straight into the failover state machine). *)
let attempt t ~shard lines =
  let b = t.breakers.(shard) in
  match Breaker.check b ~now:(t.clock ()) with
  | Breaker.Reject _ -> Error "breaker open"
  | Breaker.Admit | Breaker.Probe -> (
    match t.transport.send ~shard lines with
    | Ok resp when List.length resp = List.length lines ->
      Breaker.record_success b ~now:(t.clock ());
      Ok resp
    | Ok _ ->
      Breaker.record_failure b ~now:(t.clock ());
      Error "short response from shard"
    | Error e ->
      Breaker.record_failure b ~now:(t.clock ());
      Error e)

(* Pipelined variant: (shard, lines) chunks — several may target the
   same shard — gated per chunk by the shard's breaker, dispatched
   through one [send_many] so every admitted pipe stays full, and
   recorded per chunk so failures feed the failover detector.  A short
   [Ok] counts as a failure for the breaker, but the partial lines are
   returned so the caller can salvage resolved requests by id. *)
let attempt_many t chunks =
  let gated =
    List.map
      (fun (shard, lines) ->
        match Breaker.check t.breakers.(shard) ~now:(t.clock ()) with
        | Breaker.Reject _ -> (shard, lines, false)
        | Breaker.Admit | Breaker.Probe -> (shard, lines, true))
      chunks
  in
  let admitted = List.filter_map (fun (s, l, adm) -> if adm then Some (s, l) else None) gated in
  let outcomes = if admitted = [] then [] else t.transport.send_many admitted in
  let rec zip gated outcomes acc =
    match gated with
    | [] -> List.rev acc
    | (_, _, false) :: rest -> zip rest outcomes (Error "breaker open" :: acc)
    | (shard, lines, true) :: rest ->
      let r, outcomes =
        match outcomes with
        | r :: tl -> (r, tl)
        | [] -> ((Error "transport returned too few results" : (string list, string) result), [])
      in
      let out =
        match r with
        | Ok resp when List.length resp = List.length lines ->
          Breaker.record_success t.breakers.(shard) ~now:(t.clock ());
          r
        | Ok _ | Error _ ->
          Breaker.record_failure t.breakers.(shard) ~now:(t.clock ());
          r
      in
      zip rest outcomes (out :: acc)
  in
  zip gated outcomes []

let note_failover t =
  t.failovers <- t.failovers + 1;
  t.last_failover_at <- Some (t.clock ())

let mark_unavailable t results idx ~id ~attempts =
  t.unavailable <- t.unavailable + 1;
  results.(idx) <- Some (render (Wire.unavailable_response ~id:(Some id) ~attempts))

let group_by_shard pick items =
  let tbl = Hashtbl.create 8 in
  let missing = ref [] in
  List.iter
    (fun item ->
      match pick item with
      | None -> missing := item :: !missing
      | Some s ->
        let prev = try Hashtbl.find tbl s with Not_found -> [] in
        Hashtbl.replace tbl s (item :: prev))
    items;
  let groups = Hashtbl.fold (fun s v acc -> (s, List.rev v) :: acc) tbl [] in
  (List.sort compare groups, List.rev !missing)

(* Per-owner groups are cut into chunks of at most [max_chunk] lines,
   so one giant batch becomes several chunks a shard can interleave
   with other connections' work, and the transport can keep
   [max_inflight] of them outstanding per pipe. *)
let max_chunk = 64

let chunk_list n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

(* items: (idx, id, line, key, deadline).  Each forwarded compile is
   retagged with a router-unique id ([qr-<k>]) so responses can be
   demultiplexed by id even when distinct client connections reuse the
   same request id.  ALL primary chunks go out through one pipelined
   {!attempt_many} — multiple chunks stay in flight per shard, and a
   straggler shard no longer serializes the others.  Matched responses
   are retagged back to the client id (a byte-exact round trip, see
   {!Wire.retag_line}).  Requests left unresolved — failed chunk, or
   missing from a short response — fail over: one jittered backoff
   bounded by the tightest remaining deadline budget, then one hedged
   retry on each key's ring successor, then the typed [unavailable]. *)
let route_compiles t results items =
  if items <> [] then begin
    let t0 = t.clock () in
    let counter = ref 0 in
    let items =
      List.map
        (fun (idx, id, line, key, deadline) ->
          let tag = Printf.sprintf "qr-%d" !counter in
          incr counter;
          (idx, id, tag, Wire.retag_line line ~id:tag, key, deadline))
        items
    in
    t.routed <- t.routed + List.length items;
    let owner_of (_, _, _, _, key, _) = Ring.lookup t.ring ~live:(routable t) key in
    let groups, orphans = group_by_shard owner_of items in
    List.iter (fun (idx, id, _, _, _, _) -> mark_unavailable t results idx ~id ~attempts:0) orphans;
    let chunks_of groups =
      List.concat_map
        (fun (shard, g) -> List.map (fun c -> (shard, c)) (chunk_list max_chunk g))
        groups
    in
    (* Dispatch chunks, resolve every response that matches an
       outstanding tag, and return each chunk's unresolved items. *)
    let dispatch chunks =
      let outcomes =
        attempt_many t
          (List.map (fun (s, g) -> (s, List.map (fun (_, _, _, line, _, _) -> line) g)) chunks)
      in
      List.map2
        (fun (_, g) outcome ->
          match outcome with
          | Error _ -> g
          | Ok resp ->
            let by_tag = Hashtbl.create 16 in
            List.iter
              (fun r ->
                match Wire.line_id r with Some tag -> Hashtbl.replace by_tag tag r | None -> ())
              resp;
            List.filter
              (fun (idx, id, tag, _, _, _) ->
                match Hashtbl.find_opt by_tag tag with
                | Some r ->
                  results.(idx) <- Some (Wire.retag_line r ~id);
                  false
                | None -> true)
              g)
        chunks outcomes
    in
    let per_chunk = dispatch (chunks_of groups) in
    List.iter (fun u -> if u <> [] then note_failover t) per_chunk;
    let unresolved = List.concat per_chunk in
    if unresolved <> [] then begin
      let budget =
        List.fold_left
          (fun acc (_, _, _, _, _, deadline) ->
            match deadline with Some d -> Float.min acc (Float.max d 0.1) | None -> acc)
          t.config.default_budget unresolved
      in
      let remaining = budget -. (t.clock () -. t0) in
      let backoff =
        Float.min (t.config.retry_backoff *. (0.5 +. Rng.unit_float t.rng)) remaining
      in
      if backoff > 0.0 then Unix.sleepf backoff;
      let successor_of ((_, _, _, _, key, _) as item) =
        match owner_of item with
        | None -> None
        | Some owner -> Ring.lookup t.ring ~live:(fun s -> routable t s && s <> owner) key
      in
      let retry_groups, dead = group_by_shard successor_of unresolved in
      List.iter (fun (idx, id, _, _, _, _) -> mark_unavailable t results idx ~id ~attempts:1) dead;
      let retry_chunks = chunks_of retry_groups in
      t.retries <- t.retries + List.length retry_chunks;
      let still = List.concat (dispatch retry_chunks) in
      List.iter (fun (idx, id, _, _, _, _) -> mark_unavailable t results idx ~id ~attempts:2) still
    end
  end

(* ---- fan-out ops ---- *)

let probe_line req = render (Wire.request_to_json req)

(* Epoch changes must land on every shard or the fleet's cache keys
   drift apart; applied best-effort to each routable shard, first
   answer wins, the fan-out count rides along as [fleet_applied]. *)
let broadcast_apply t ~id line =
  let targets = List.filter (routable t) (List.init t.nshards Fun.id) in
  let outcomes = attempt_many t (List.map (fun s -> (s, [ line ])) targets) in
  let applied = ref 0 and first = ref None in
  List.iter
    (function
      | Ok [ resp ] ->
        incr applied;
        if !first = None then first := Some resp
      | Ok _ | Error _ -> ())
    outcomes;
  match !first with
  | Some resp -> (
    match Json.of_string resp with
    | Ok (Json.Object fields) ->
      render (Json.Object (fields @ [ ("fleet_applied", Json.Number (float_of_int !applied)) ]))
    | _ -> resp)
  | None ->
    t.unavailable <- t.unavailable + 1;
    render (Wire.unavailable_response ~id:(Some id) ~attempts:t.nshards)

let anycast t ~id line =
  let rec go s =
    if s >= t.nshards then begin
      t.unavailable <- t.unavailable + 1;
      render (Wire.unavailable_response ~id:(Some id) ~attempts:t.nshards)
    end
    else if not (routable t s) then go (s + 1)
    else match attempt t ~shard:s [ line ] with Ok [ resp ] -> resp | _ -> go (s + 1)
  in
  go 0

(* The aggregated health/stats op doubles as the active health check:
   every shard is probed — concurrently, through one [send_many], so a
   dead shard's connect timeout never adds itself to every other
   shard's probe — and the probe outcome feeds its breaker, so a
   monitoring loop hitting [health] keeps the failure detector warm
   and closes breakers of recovered shards. *)
let aggregate t ~id ~field =
  let probe =
    probe_line
      (if field = "health" then Wire.Health { id = "router-probe" }
       else Wire.Stats { id = "router-probe" })
  in
  let outcomes =
    attempt_many t (List.init t.nshards (fun s -> (s, [ probe ]))) |> Array.of_list
  in
  let shard_json s =
    let payload, reachable =
      match outcomes.(s) with
      | Ok [ resp ] -> (
        match Json.of_string resp with
        | Ok doc -> (Option.value (Json.member field doc) ~default:Json.Null, true)
        | Error _ -> (Json.Null, true))
      | Ok _ | Error _ -> (Json.Null, false)
    in
    Json.Object
      [
        ("shard", Json.Number (float_of_int s));
        ("state", Json.String (state_name (shard_state t s)));
        ("reachable", Json.Bool reachable);
        ("breaker", Breaker.to_json t.breakers.(s));
        (field, payload);
      ]
  in
  let shards = List.init t.nshards shard_json in
  render
    (Json.Object
       [
         ("id", Json.String id);
         ("status", Json.String "ok");
         ( field,
           Json.Object
             [
               ("role", Json.String "router");
               ("router", router_json t);
               ("shards", Json.Array shards);
             ] );
       ])

(* ---- the batch entry point ---- *)

type slot =
  | Direct of string
  | Compile_slot of { id : string; line : string; key : string; deadline : float option }
  | Cast of { line : string; req : Wire.request }

let classify t ~max_frame frame =
  match frame with
  | Server.Oversize -> Direct (render (Wire.frame_too_large_response ~id:None ~limit:max_frame))
  | Server.Line line -> (
    if String.length line > max_frame then
      Direct (render (Wire.frame_too_large_response ~id:None ~limit:max_frame))
    else
      match Json.of_string line with
      | Error e -> Direct (render (Wire.error_response ~id:None ("bad JSON: " ^ e)))
      | Ok doc -> (
        match Wire.request_of_json doc with
        | Error e -> Direct (render (Wire.invalid_request_response doc e))
        | Ok req -> (
          match req with
          | Wire.Compile { id; device; circuit; params } ->
            Compile_slot { id; line; key = routing_key t ~device ~params circuit;
                           deadline = params.Wire.deadline }
          | Wire.Ping { id } ->
            Direct
              (render
                 (Json.Object
                    [
                      ("id", Json.String id);
                      ("status", Json.String "ok");
                      ("pong", Json.Bool true);
                    ]))
          | req -> Cast { line; req })))

let handle_frames ?(max_frame = Wire.default_max_frame) t frames =
  let frames =
    List.filter (function Server.Line l -> String.trim l <> "" | Server.Oversize -> true) frames
  in
  let slots = Array.of_list (List.map (classify t ~max_frame) frames) in
  let results = Array.make (Array.length slots) None in
  Array.iteri (fun i -> function Direct line -> results.(i) <- Some line | _ -> ()) slots;
  (* Compiles first (one routed batch), then the fan-out ops in frame
     order — mirroring Service.handle_batch, where non-compile ops
     pipelined behind compiles observe the batch's effects. *)
  let compiles =
    Array.to_list slots
    |> List.mapi (fun i s -> (i, s))
    |> List.filter_map (fun (i, s) ->
           match s with
           | Compile_slot { id; line; key; deadline } -> Some (i, id, line, key, deadline)
           | _ -> None)
  in
  route_compiles t results compiles;
  let stop = ref false in
  Array.iteri
    (fun i slot ->
      match slot with
      | Direct _ | Compile_slot _ -> ()
      | Cast { line; req } ->
        let id = Wire.request_id req in
        let resp =
          match req with
          | Wire.Health _ -> aggregate t ~id ~field:"health"
          | Wire.Stats _ -> aggregate t ~id ~field:"stats"
          | Wire.Bump _ | Wire.Calibrate _ | Wire.Rollback _ -> broadcast_apply t ~id line
          | Wire.Devices _ | Wire.Epoch_status _ -> anycast t ~id line
          | Wire.Shutdown _ ->
            stop := true;
            ignore (t.transport.send_many (List.init t.nshards (fun s -> (s, [ line ]))));
            render
              (Json.Object
                 [
                   ("id", Json.String id);
                   ("status", Json.String "ok");
                   ("stopping", Json.Bool true);
                 ])
          | Wire.Compile _ | Wire.Ping _ -> render (Wire.internal_error_response ~id:(Some id) "unroutable op")
        in
        results.(i) <- Some resp)
    slots;
  let out =
    Array.to_list
      (Array.map
         (function
           | Some line -> line
           | None -> render (Wire.internal_error_response ~id:None "internal: missing response"))
         results)
  in
  (out, !stop)

let handle_lines ?max_frame t lines =
  handle_frames ?max_frame t (List.map (fun l -> Server.Line l) lines)

(* ---- socket transport ----

   One lazily-connected persistent Unix-domain connection per shard,
   reconnected on demand, driven non-blocking through one select loop
   per [send_many] call.  Chunks for distinct shards proceed
   concurrently; chunks for the same shard pipeline, at most
   [max_inflight] outstanding on the wire at once (the rest queue
   locally), with responses matched positionally per connection — the
   reactor on the far side answers a connection's frames in order.

   Failures are fast and typed: a missing socket file or a refused
   connect fails that shard's chunks immediately (the shard is down —
   that's the router's cue to fail over); a read/write error or a
   [timeout] overrun fails every unresolved chunk on that shard and
   closes the connection so the next attempt starts clean.  A chunk
   interrupted mid-response salvages the lines it got (short [Ok]). *)

type pipe = {
  p_shard : int;
  p_fd : Unix.file_descr;
  p_rbuf : Buffer.t;  (* unconsumed response bytes, persistent per conn *)
  p_pending : (int * string list) Queue.t;  (* (slot, lines) not yet on the wire *)
  p_inflight : (int * int * string list ref) Queue.t;  (* slot, expected, acc (rev) *)
  mutable p_wbuf : string;
  mutable p_woff : int;
  mutable p_done : bool;
}

let socket_transport ?(timeout = 10.0) ?(max_inflight = 4) ~socket_for () =
  let max_inflight = max 1 max_inflight in
  let conns : (int, Unix.file_descr * Buffer.t) Hashtbl.t = Hashtbl.create 8 in
  let close_conn shard =
    match Hashtbl.find_opt conns shard with
    | Some (fd, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Hashtbl.remove conns shard
    | None -> ()
  in
  let connect shard =
    match Hashtbl.find_opt conns shard with
    | Some c -> Ok c
    | None -> (
      let path = socket_for shard in
      match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
      | fd -> (
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () ->
          Unix.set_nonblock fd;
          let c = (fd, Buffer.create 4096) in
          Hashtbl.replace conns shard c;
          Ok c
        | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Unix.error_message err)))
  in
  let send_many chunks =
    match chunks with
    | [] -> []
    | chunks ->
      let deadline = Unix.gettimeofday () +. timeout in
      let n = List.length chunks in
      let results = Array.make n (Error "unresolved") in
      (* group the chunks onto per-shard pipes, connecting on demand *)
      let by_shard : (int, pipe) Hashtbl.t = Hashtbl.create 8 in
      List.iteri
        (fun slot (shard, lines) ->
          match Hashtbl.find_opt by_shard shard with
          | Some p -> Queue.add (slot, lines) p.p_pending
          | None -> (
            match connect shard with
            | Error e -> results.(slot) <- Error e
            | Ok (fd, rbuf) ->
              let p =
                {
                  p_shard = shard;
                  p_fd = fd;
                  p_rbuf = rbuf;
                  p_pending = Queue.create ();
                  p_inflight = Queue.create ();
                  p_wbuf = "";
                  p_woff = 0;
                  p_done = false;
                }
              in
              Queue.add (slot, lines) p.p_pending;
              Hashtbl.replace by_shard shard p))
        chunks;
      let pipes = Hashtbl.fold (fun _ p acc -> p :: acc) by_shard [] in
      let fail_pipe p msg =
        Queue.iter
          (fun (slot, _expected, acc) ->
            results.(slot) <-
              (match !acc with [] -> Error msg | partial -> Ok (List.rev partial)))
          p.p_inflight;
        Queue.clear p.p_inflight;
        Queue.iter (fun (slot, _) -> results.(slot) <- Error msg) p.p_pending;
        Queue.clear p.p_pending;
        p.p_wbuf <- "";
        p.p_woff <- 0;
        p.p_done <- true;
        close_conn p.p_shard
      in
      (* move queued chunks onto the wire while the pipe has room *)
      let arm p =
        if p.p_woff >= String.length p.p_wbuf then begin
          let buf = Buffer.create 1024 in
          while Queue.length p.p_inflight < max_inflight && not (Queue.is_empty p.p_pending) do
            let slot, lines = Queue.pop p.p_pending in
            List.iter
              (fun l ->
                Buffer.add_string buf l;
                Buffer.add_char buf '\n')
              lines;
            Queue.add (slot, List.length lines, ref []) p.p_inflight
          done;
          if Buffer.length buf > 0 then begin
            p.p_wbuf <- Buffer.contents buf;
            p.p_woff <- 0
          end
        end
      in
      (* consume complete response lines; a pipe's responses resolve
         its inflight chunks strictly in order *)
      let rec drain p =
        let s = Buffer.contents p.p_rbuf in
        match String.index_opt s '\n' with
        | None -> ()
        | Some i ->
          let line = String.sub s 0 i in
          Buffer.clear p.p_rbuf;
          Buffer.add_substring p.p_rbuf s (i + 1) (String.length s - i - 1);
          (match Queue.peek_opt p.p_inflight with
          | None -> ()  (* stale bytes from an abandoned exchange; drop *)
          | Some (slot, expected, acc) ->
            acc := line :: !acc;
            if List.length !acc = expected then begin
              ignore (Queue.pop p.p_inflight);
              results.(slot) <- Ok (List.rev !acc)
            end);
          drain p
      in
      let chunk = Bytes.create 65536 in
      let finished p =
        Queue.is_empty p.p_pending && Queue.is_empty p.p_inflight
        && p.p_woff >= String.length p.p_wbuf
      in
      let rec loop () =
        let live = List.filter (fun p -> not (p.p_done || finished p)) pipes in
        if live <> [] then begin
          List.iter arm live;
          let rds = List.filter_map (fun p -> if Queue.is_empty p.p_inflight then None else Some p.p_fd) live in
          let wrs =
            List.filter_map
              (fun p -> if p.p_woff < String.length p.p_wbuf then Some p.p_fd else None)
              live
          in
          let now = Unix.gettimeofday () in
          if now >= deadline then
            List.iter (fun p -> fail_pipe p "shard response timeout") live
          else begin
            let pipe_of fd = List.find (fun p -> p.p_fd = fd) live in
            (match Unix.select rds wrs [] (Float.min 0.25 (deadline -. now)) with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | r, w, _ ->
              List.iter
                (fun fd ->
                  let p = pipe_of fd in
                  match
                    Unix.write_substring p.p_fd p.p_wbuf p.p_woff
                      (String.length p.p_wbuf - p.p_woff)
                  with
                  | k -> p.p_woff <- p.p_woff + k
                  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
                  | exception Unix.Unix_error (err, _, _) ->
                    fail_pipe p (Unix.error_message err))
                w;
              List.iter
                (fun fd ->
                  let p = pipe_of fd in
                  if not p.p_done then
                    match Unix.read p.p_fd chunk 0 (Bytes.length chunk) with
                    | 0 -> fail_pipe p "shard closed the connection"
                    | k ->
                      Buffer.add_subbytes p.p_rbuf chunk 0 k;
                      drain p
                    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
                    | exception Unix.Unix_error (err, _, _) ->
                      fail_pipe p (Unix.error_message err))
                r);
            loop ()
          end
        end
      in
      loop ();
      Array.to_list results
  in
  let send ~shard lines =
    match send_many [ (shard, lines) ] with [ r ] -> r | _ -> Error "transport error"
  in
  { send; send_many }
