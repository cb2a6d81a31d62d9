(* The serve workloads: the shipped daemon under open-loop socket
   traffic (serve-hot: a Zipf replay of a small template set, nearly
   all cache hits; serve-cold: distinct circuits, every request a
   journaled cold compile), plus the traced run's in-process replay
   of the same request lines through the layers' public functions. *)

module Json = Core.Json
module Wire = Core.Wire
module Cache = Core.Cache
module Service = Core.Service
module Xtalk_sched = Core.Xtalk_sched

type spec = {
  name : string;
  devices : unit -> Inputs.device list;
  persist : bool;  (** run the daemon with --cache-file (journaled misses) *)
  ref_rate : float;  (** requests/s of the reference phase *)
  ref_share : float;  (** share of --seconds spent at the reference rate *)
  ref_windows : int;  (** the continuous reference phase is judged in this many windows *)
  ladder : float list;  (** coarse rates tried, ascending, after the reference phase *)
  need : int;  (** passing windows, of at most [votes], that pass a rate *)
  rung_size : float -> float -> float;  (** requests in one ladder window, from --seconds and the rate *)
  quantum : int;  (** window sizes are whole multiples of this many requests *)
  p99_limit : float;  (** seconds; a window passes when its p99 stays below *)
  hit_band : float * float;  (** allowed cache hit ratio over the timed phases *)
  grace : float;  (** seconds a phase waits for stragglers *)
}

(* The hot path answers in about a millisecond (most of it the
   daemon's 1 ms batch window); 25 ms leaves room for the shared
   machine's scheduling stalls, so a rate fails when the daemon runs
   out of CPU, not when a neighbour wakes up.  A rate passes on its
   first passing window: what varies between hot windows is the host's
   bursts, which only ever slow a window, so one that passes shows the
   daemon sustains the rate, while a slower program fails them all. *)
let hot =
  {
    name = "serve-hot";
    devices = Inputs.hot_devices;
    persist = false;
    ref_rate = 2000.0;
    ref_share = 0.4;
    ref_windows = 24;
    ladder =
      [ 2600.0; 3400.0; 4500.0; 6000.0; 8000.0; 10000.0; 12500.0; 15000.0; 18000.0; 21500.0; 26000.0; 31000.0;
        37000.0; 44000.0 ];
    need = 1;
    rung_size = (fun seconds rate -> rate *. seconds /. 60.0);
    quantum = 1;
    p99_limit = 0.025;
    hit_band = (0.99, 1.0);
    grace = 10.0;
  }

(* Cold compiles take 0.3-30 ms, but every 256 journal appends the
   daemon rewrites its cache snapshot, which stalls it for 0.1-0.5 s.
   Those stalls set the tail and a good part of the capacity, and their
   length varies, so the reference phase holds six and its pooled p99
   falls among the requests they delay (about their mean length), while
   the medians of its 13 windows of 128 requests stay clear of them.
   The reference phase runs half a checkpoint period past its last stall
   and every ladder window spans one whole period, so each ladder window
   holds exactly one stall.
   The 1 s limit passes a stall; a window passes only when the daemon
   also drains the stall's backlog before it ends.  What varies between
   cold windows is mostly the stall's length and the window's mix, so a
   rate needs two passing windows of three. *)
let cold =
  {
    name = "serve-cold";
    devices = Inputs.cold_devices;
    persist = true;
    ref_rate = 60.0;
    ref_share = 0.85;
    ref_windows = 13;
    ladder = [ 90.0; 115.0; 150.0; 195.0; 255.0; 330.0; 430.0; 560.0 ];
    need = 2;
    rung_size = (fun seconds _ -> 8.5 *. seconds);
    quantum = Core.Service.default_config.Core.Service.checkpoint_every;
    p99_limit = 1.0;
    hit_band = (0.0, 0.01);
    grace = 60.0;
  }

let max_inflight = Core.Service.default_config.Core.Service.queue_bound

(* Set-ups per run (setup_s is their median), the most windows a
   ladder rate gets, and the ratio of the ladder's fine steps. *)
let setups = 11
let votes = 3
let fine_step = 1.05

type ctx = {
  spec : spec;
  dir : string;
  item : int -> Inputs.request;  (** distinct requests, by item index *)
  stream : int -> int;  (** item index of the request at each stream position *)
  parts : int -> string * string;  (** request line around its id, by item *)
  mutable failures : string list;
}

let fail ctx msg = if List.length ctx.failures < 20 then ctx.failures <- msg :: ctx.failures

let line ctx g =
  let pre, post = ctx.parts (ctx.stream g) in
  pre ^ "r" ^ string_of_int g ^ post ^ "\n"

let id_end l = String.index_from l (String.length Loadgen.id_prefix) '"'

let daemon_args ctx tag =
  let cache = Filename.concat ctx.dir (tag ^ "-cache.json") in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ cache; cache ^ ".journal" ];
  [ "--devices"; String.concat "," (List.map (fun d -> d.Inputs.id) (ctx.spec.devices ())); "--oracle-xtalk" ]
  @ if ctx.spec.persist then [ "--cache-file"; cache ] else []

(* ---- checks ---- *)

(* Warm-up (cold) responses are judged in full.  A hit is judged in
   full the first time its template is served; every later hit must
   repeat those bytes after its id. *)
let hot_checker ctx refs =
  let judged = Hashtbl.create 64 in
  let full ~cached item l =
    match Inputs.check_response (ctx.item item) refs.(item) ~cached l with
    | Ok () -> true
    | Error e ->
      fail ctx ((ctx.item item).Inputs.label ^ ": " ^ e);
      false
  in
  fun ~cached item l ->
    if not cached then full ~cached item l
    else
      let tail = String.sub l (id_end l) (String.length l - id_end l) in
      match Hashtbl.find_opt judged item with
      | Some t -> String.equal t tail || (fail ctx ("hit bytes changed for " ^ (ctx.item item).Inputs.label); false)
      | None ->
        full ~cached item l
        && begin
             Hashtbl.replace judged item tail;
             true
           end

(* The timed phases of serve-cold judge only the status: a response
   that is not [ok] fails its window.  The [ok] ones are checked in full
   against the reference after the phases. *)
let ok_status =
  let doc = Json.to_string ~indent:false (Json.Object [ ("id", Json.String ""); ("status", Json.String "ok") ]) in
  let after_id = String.length Loadgen.id_prefix - 1 in
  String.sub doc after_id (String.length doc - after_id - 1)

let status_ok l =
  let i = id_end l in
  String.length l >= i + String.length ok_status && String.sub l i (String.length ok_status) = ok_status

(* Stream positions [first, first + count) at [rate]; ids continue the
   global numbering. *)
let run_stream ctx conns ~first ~count ~rate ~check =
  Loadgen.run ~conns ~rate ~count ~base:first ~max_inflight ~grace:ctx.spec.grace
    ~line:(fun i -> line ctx (first + i))
    ~check:(fun i l -> check (first + i) l)

let achieved (p : Loadgen.phase) = float_of_int p.Loadgen.ok /. Float.max 1e-9 (p.Loadgen.finished -. p.Loadgen.started)

(* A window builds a backlog when the daemon answers it more slowly
   than it was offered: its last response comes so late that the
   achieved rate falls 5% short of the offered one.  A stall's backlog
   that drains before the window ends passes; a rate past capacity
   leaves a queue behind and fails, however short the window. *)
let growing (p : Loadgen.phase) ~rate = achieved p < 0.95 *. rate

(* Spawn, answer a ping, and (serve-hot) fill the cache with every
   template once.  Returns the daemon, its set-up seconds and the
   warm-up requests that failed. *)
let setup ctx ~tag ~templates ~warm_check =
  let d, up = Daemon.start ~dir:ctx.dir ~name:tag (daemon_args ctx tag) in
  if templates = 0 then (d, up, 0)
  else begin
    let t0 = Measure.now () in
    let conns = [ Loadgen.connect d.Daemon.socket ] in
    let base = 1_000_000_000 in
    let ph =
      Loadgen.run ~conns ~rate:1e6 ~count:templates ~base ~max_inflight:1 ~grace:ctx.spec.grace
        ~line:(fun i ->
          let pre, post = ctx.parts i in
          pre ^ "r" ^ string_of_int (base + i) ^ post ^ "\n")
        ~check:warm_check
    in
    List.iter Loadgen.close conns;
    if ph.Loadgen.failed > 0 then fail ctx (Printf.sprintf "warm-up: %d of %d failed" ph.Loadgen.failed templates);
    (d, up +. (Measure.now () -. t0), ph.Loadgen.failed)
  end

let hit_ratio s0 s1 =
  let dh = Daemon.num s1 "cache.hits" -. Daemon.num s0 "cache.hits" in
  let dm = Daemon.num s1 "cache.misses" -. Daemon.num s0 "cache.misses" in
  (dh /. Float.max 1.0 (dh +. dm), dh +. dm)

let ms x = 1000.0 *. x
(* Latency over the reference windows.  Other tenants of the shared
   host steal CPU in bursts that last from milliseconds to about a
   minute and hit a varying share of the windows, while a slower program
   raises every window; so each figure is the lower quartile over the
   windows.  The median is that of the windows' medians.  The tail is
   each window's p99 where a window holds enough requests for it
   (serve-hot); otherwise (serve-cold) it is the p99 of the whole phase
   pooled, which its checkpoint stalls set.  The median window's p99 and
   the pooled p99 go to the note. *)
let report_latency ctx (windows : float list list) =
  let per q f = Measure.percentile q (List.map f windows) in
  let all = List.concat windows in
  let n = List.length all in
  Measure.set "latency_p50_ms" "ms" (ms (per 25.0 Measure.median))
    ~note:(Printf.sprintf "lower quartile of the medians of %d windows of %d requests at %.0f/s (reference rate); median window: %.3f ms"
             (List.length windows) (n / List.length windows) ctx.spec.ref_rate (ms (per 50.0 Measure.median)));
  let pooled = Measure.percentile 99.0 all in
  match (Measure.tail (List.hd windows), Measure.tail all) with
  | Some (p, _), _ when p >= 99.0 ->
    Measure.set "latency_p99_ms" "ms" (ms (per 25.0 (Measure.percentile 99.0)))
      ~note:(Printf.sprintf "p99 per window, lower quartile over %d windows (median window: %.3f ms; all windows pooled: %.3f ms); %d requests"
               (List.length windows) (ms (per 50.0 (Measure.percentile 99.0))) (ms pooled) n)
  | _, Some (p, _) when p >= 99.0 ->
    Measure.set "latency_p99_ms" "ms" (ms pooled)
      ~note:(Printf.sprintf "p99 of all %d reference requests pooled (windows too small for a p99)" n)
  | _ -> failwith "reference phase too small for a p99"

(* ---- the in-process replay (traced run) ---- *)

let registry_of devs =
  let r = Core.Registry.create () in
  List.iter
    (fun d -> ignore (Core.Registry.add_static r ~id:d.Inputs.id ~device:d.Inputs.device ~xtalk:d.Inputs.xtalk))
    devs;
  r

let span = Trace.with_span

let parse l = match Json.of_string l with Ok j -> j | Error e -> failwith e

let decode j =
  match Wire.request_of_json j with
  | Ok (Wire.Compile c) -> (Wire.Compile c, c.circuit)
  | Ok _ -> failwith "not a compile"
  | Error e -> failwith e

(* The cache key as the service derives it: the fused canonical
   serialization, digested. *)
let canon_key (r : Inputs.request) circuit =
  Digest.to_hex
    (Digest.string (Core.Canon.key_serialize ~nqubits:(Core.Device.nqubits r.Inputs.dev.Inputs.device) circuit))

let bare_line ctx g =
  let l = line ctx g in
  String.sub l 0 (String.length l - 1)

(* serve-hot: every line is a hit on an in-process service warmed with
   the templates.  Returns the replay and a check of what the
   in-process service renders for each template. *)
let replay_hot ctx ~count ~templates ~refs =
  let svc = Service.create (registry_of (ctx.spec.devices ())) in
  let keys =
    Array.init templates (fun i ->
        let r = ctx.item i in
        match Service.compile svc ~device:r.Inputs.dev.Inputs.id ~params:r.Inputs.params r.Inputs.circuit with
        | Ok o -> o.Service.key
        | Error e -> failwith e)
  in
  let lines = Array.init count (bare_line ctx) in
  let replay () =
    Array.iteri
      (fun g l ->
        let item = ctx.stream g in
        span ~req:g "request" (fun () ->
            let doc = span "json.parse" (fun () -> parse l) in
            let req, circuit = span "wire.decode" (fun () -> decode doc) in
            ignore (span "canon.key" (fun () -> canon_key (ctx.item item) circuit));
            if span "cache.find" (fun () -> Cache.find (Service.cache svc) keys.(item)) = None then
              fail ctx "in-process replay missed the cache";
            ignore (span "service.handle" (fun () -> Service.handle_batch_rendered svc [ req ]))))
      lines
  in
  let matches () =
    List.for_all
      (fun i ->
        let req, _ = decode (parse (bare_line ctx i)) in
        match Service.handle_batch_rendered svc [ req ] with
        | [ l ] -> Inputs.check_response (ctx.item (ctx.stream i)) refs.(ctx.stream i) ~cached:true l = Ok ()
        | _ -> false)
      (List.init (min count 200) Fun.id)
  in
  (replay, matches)

(* serve-cold: the daemon's miss path, layer by layer — canonical key,
   canonical circuit, cache miss, Xtalk_sched, DD padding, response
   render, journal append, cache insert.  Returns what it compiled. *)
let replay_cold ctx ~count ~journal_path =
  let lines = Array.init count (bare_line ctx) in
  let keys =
    Array.init count (fun g ->
        let r = ctx.item (ctx.stream g) in
        let canon = Core.Canon.normalize ~nqubits:(Core.Device.nqubits r.Inputs.dev.Inputs.device) r.Inputs.circuit in
        Service.cache_key ~device_id:r.Inputs.dev.Inputs.id ~epoch:r.Inputs.dev.Inputs.epoch ~params:r.Inputs.params canon)
  in
  fun () ->
    (try Sys.remove journal_path with Sys_error _ -> ());
    let journal = match Core.Journal.open_append ~path:journal_path () with Ok j -> j | Error e -> failwith e in
    let cache = Cache.create ~capacity:Core.Service.default_config.Core.Service.cache_capacity in
    let out =
      Array.mapi
        (fun g l ->
          let r = ctx.item (ctx.stream g) in
          let device = r.Inputs.dev.Inputs.device in
          let p = r.Inputs.params in
          span ~req:g "request" (fun () ->
              let doc = span "json.parse" (fun () -> parse l) in
              let _, circuit = span "wire.decode" (fun () -> decode doc) in
              ignore (span "canon.key" (fun () -> canon_key r circuit));
              let canon =
                span "canon.normalize" (fun () -> Core.Canon.normalize ~nqubits:(Core.Device.nqubits device) circuit)
              in
              if span "cache.find" (fun () -> Cache.find cache keys.(g)) <> None then fail ctx "cold replay hit the cache";
              let sched, stats =
                span "xtalk_sched.schedule" (fun () ->
                    Xtalk_sched.schedule ~omega:p.Wire.omega ~threshold:p.Wire.threshold
                      ~ladder_start:p.Wire.ladder_start ?window_gates:p.Wire.window ~device ~xtalk:r.Inputs.dev.Inputs.xtalk
                      canon)
              in
              let schedule, stats =
                match p.Wire.mitigation with
                | None -> (sched, stats)
                | Some sequence ->
                  span "dd.pad" (fun () ->
                      let padded, _, _ = Core.Dd.pad ~sequence ~device sched in
                      let idle_total, idle_max = Core.Idle.summarize padded in
                      (padded, { stats with Xtalk_sched.idle_total; idle_max }))
              in
              let entry = { Cache.schedule; stats; epoch = r.Inputs.dev.Inputs.epoch } in
              ignore
                (span "wire.render" (fun () ->
                     Json.to_string ~indent:false
                       (Json.Object [ ("stats", Wire.stats_to_json stats); ("schedule", Wire.schedule_to_json schedule) ])));
              (match span "journal.append" (fun () -> Core.Journal.append journal { Core.Journal.key = keys.(g); entry }) with
              | Ok () -> ()
              | Error e -> fail ctx ("replay journal: " ^ e));
              span "cache.add" (fun () -> Cache.add cache keys.(g) entry);
              (schedule, stats)))
        lines
    in
    Core.Journal.close journal;
    Array.mapi (fun g (schedule, stats) -> { Inputs.key = keys.(g); schedule; stats }) out

(* Two replays compiled the same when keys, schedules and stats
   (wall-clock fields aside) agree. *)
let same_refs a b =
  let view (r : Inputs.reference) =
    ( r.Inputs.key,
      Json.to_string (Wire.schedule_to_json r.Inputs.schedule),
      Json.to_string (Inputs.strip_timing (Wire.stats_to_json r.Inputs.stats)) )
  in
  Array.length a = Array.length b && Array.for_all2 (fun x y -> view x = view y) a b

(* ---- runs ---- *)

let make_ctx spec ~seed ~dir ~seconds =
  let rng = Core.Rng.create seed in
  let devs = spec.devices () in
  let quanta x = spec.quantum * max 1 (int_of_float (Float.round (x /. float_of_int spec.quantum))) in
  let rung rate = quanta (spec.rung_size seconds rate) in
  let ref_count = quanta (spec.ref_rate *. seconds *. spec.ref_share) + (spec.quantum / 2) in
  (* Room for every coarse rate and for the fine steps below the top
     one (coarse rates are at most 1.35x apart). *)
  let top = List.fold_left Float.max 0.0 spec.ladder in
  let fine_steps = int_of_float (ceil (log 1.35 /. log fine_step)) in
  let total =
    ref_count + (votes * (List.fold_left (fun n r -> n + rung r) 0 spec.ladder + (fine_steps * rung top)))
  in
  let item, stream, parts, templates =
    if spec.persist then begin
      let item = Inputs.cold_stream ~rng devs in
      (item, Fun.id, (fun i -> Inputs.line_parts (item i)), 0)
    end
    else begin
      let templates = Array.of_list (Inputs.hot_templates devs) in
      let n = Array.length templates in
      let stream = Inputs.zipf_stream ~rng (List.init n Fun.id) total in
      let parts = Array.map Inputs.line_parts templates in
      (Array.get templates, Array.get stream, Array.get parts, n)
    end
  in
  ({ spec; dir; item; stream; parts; failures = [] }, ref_count, rung, templates)

(* The cold workload checks every [ok] response after the timed phases,
   against references computed on two domains. *)
let verify_cold ctx (answers : string option array) upto =
  let reqs = Array.init upto (fun g -> ctx.item (ctx.stream g)) in
  let refs =
    Core.Pool.parallel_chunks ~jobs:2 ~n:upto (fun ~lo ~hi -> List.init (hi - lo) (fun k -> Inputs.reference reqs.(lo + k)))
    |> List.concat |> Array.of_list
  in
  let bad = ref 0 in
  Array.iteri
    (fun g answer ->
      match answer with
      | Some l when g < upto -> (
        match Inputs.check_response reqs.(g) refs.(g) ~cached:false l with
        | Ok () -> ()
        | Error e ->
          incr bad;
          fail ctx (reqs.(g).Inputs.label ^ ": " ^ e))
      | _ -> ())
    answers;
  (refs, !bad)

let run spec ~seed ~seconds ~dir ~trace =
  let ctx, ref_count, rung, templates = make_ctx spec ~seed ~dir ~seconds in
  let hot_refs = Array.init templates (fun i -> Inputs.reference (ctx.item i)) in
  let hot_check = hot_checker ctx hot_refs in
  let answers = Hashtbl.create 1024 in
  let check g l =
    if spec.persist then status_ok l && (Hashtbl.replace answers g l; true)
    else hot_check ~cached:true (ctx.stream g) l
  in
  let warm_check i l = hot_check ~cached:false i l in
  (* Set-up, repeated; the last daemon stays up for the timed phases. *)
  let setups = if trace then 1 else setups in
  let times = ref [] and daemon = ref None and warm_failed = ref 0 in
  for k = 1 to setups do
    Option.iter Daemon.stop !daemon;
    let d, t, f = setup ctx ~tag:(Printf.sprintf "%s-%d" spec.name k) ~templates ~warm_check in
    times := t :: !times;
    warm_failed := !warm_failed + f;
    daemon := Some d
  done;
  let d = Option.get !daemon in
  let warm_attempted = setups * templates in
  let conns = [ Loadgen.connect d.Daemon.socket; Loadgen.connect d.Daemon.socket ] in
  Daemon.pin_self "0";
  let s0 = Daemon.stats d in
  let cpu0 = Daemon.cpu_seconds d in
  let rp = run_stream ctx conns ~first:0 ~count:ref_count ~rate:spec.ref_rate ~check in
  let cpu1 = Daemon.cpu_seconds d in
  let size = ref_count / spec.ref_windows in
  let windows =
    List.init spec.ref_windows (fun k ->
        let lat =
          List.init size (fun i -> rp.Loadgen.done_at.((k * size) + i) -. rp.Loadgen.due_at.((k * size) + i))
          |> List.filter (fun l -> not (Float.is_nan l))
        in
        Printf.eprintf "%s: reference window %d: p50 %.2f ms  p99 %.2f ms  max %.2f ms\n%!" spec.name k
          (ms (Measure.median lat)) (ms (Measure.percentile 99.0 lat)) (ms (Measure.percentile 100.0 lat));
        lat)
  in
  let ref_ok = rp.Loadgen.ok and ref_failed = rp.Loadgen.failed in
  (* The rate ladder: ascend the coarse rates while [spec.need] of a
     rate's windows meet the p99 limit with every request answered
     correctly and no growing backlog; then climb in fine steps from the
     last passing coarse rate (the reference rate when none passed)
     towards the first failing one.  [passed] holds each passing rate
     with the achieved rates of its passing windows. *)
  let passed = ref [] and next = ref ref_count and ladder_failed = ref 0 in
  if not trace then begin
    let try_rate rate =
      let count = rung rate in
      let rec vote failed got =
        if List.length got >= spec.need then Some got
        else if failed > votes - spec.need then None
        else begin
          let p = run_stream ctx conns ~first:!next ~count ~rate ~check in
          next := !next + count;
          ladder_failed := !ladder_failed + p.Loadgen.failed;
          let p99 = Measure.percentile 99.0 p.Loadgen.latencies in
          let grew = growing p ~rate in
          let ok = p.Loadgen.failed = 0 && p99 <= spec.p99_limit && not grew in
          Printf.eprintf "%s: rate %.0f/s  p99 %.2f ms  achieved %.1f/s  failed %d%s  -> %s\n%!" spec.name rate
            (ms p99) (achieved p) p.Loadgen.failed
            (if grew then "  backlog growing" else "")
            (if ok then "pass" else "limit");
          if ok then vote failed (achieved p :: got) else vote (failed + 1) got
        end
      in
      let got = vote 0 [] in
      Option.iter (fun a -> passed := (rate, a) :: !passed) got;
      got <> None
    in
    let rec fine rate limit =
      let r = Float.round (rate *. fine_step) in
      if r < limit && try_rate r then fine r limit
    in
    let rec climb last = function
      | [] -> ()
      | rate :: rest ->
        if try_rate rate then climb (Some rate) rest else Option.iter (fun l -> fine l rate) last
    in
    climb (Some spec.ref_rate) spec.ladder
  end;
  let s1 = Daemon.stats d in
  let rss = Daemon.peak_rss_mb d in
  List.iter Loadgen.close conns;
  Daemon.stop d;
  Daemon.pin_self "0,1";
  let sent = !next in
  let bad, refs_of =
    if spec.persist then begin
      let refs, bad = verify_cold ctx (Array.init sent (Hashtbl.find_opt answers)) sent in
      (bad, Array.get refs)
    end
    else (0, fun g -> hot_refs.(ctx.stream g))
  in
  let ratio, lookups = hit_ratio s0 s1 in
  let lo, hi = spec.hit_band in
  if ratio < lo || ratio > hi then
    fail ctx (Printf.sprintf "cache hit ratio %.4f over %.0f lookups left its band [%g, %g]" ratio lookups lo hi);
  Printf.eprintf "%s: cache hit ratio %.4f over %.0f lookups (timed phases)\n%!" spec.name ratio lookups;
  if not trace then begin
    Measure.set "setup_s" "s" (Measure.median !times)
      ~note:(Printf.sprintf "median of %d set-ups (spawn to first pong%s)" setups (if spec.persist then "" else " + warm-up"));
    report_latency ctx windows;
    let max_rate, note =
      match List.sort (fun a b -> compare b a) !passed with
      | (rate, got) :: _ ->
        (Measure.median got, Printf.sprintf "median achieved rate of the passing windows at %.0f/s" rate)
      | [] -> (achieved rp, "no ladder rate met the limit: reference-phase rate")
    in
    Measure.set "max_rate_rps" "1/s" max_rate ~note:(Printf.sprintf "%s; p99 limit %.0f ms" note (ms spec.p99_limit));
    Measure.set "cpu_ms_per_op" "ms"
      (ms ((cpu1 -. cpu0) /. float_of_int (max 1 ref_ok)))
      ~note:"daemon utime+stime over the reference phase per completed request";
    Measure.set "peak_rss_mb" "MB" rss ~note:"daemon VmHWM";
    (* Hot requests repeat their templates: price each item once. *)
    let priced = Hashtbl.create 64 in
    let oracle g =
      let item = ctx.stream g in
      match Hashtbl.find_opt priced item with
      | Some e -> e
      | None ->
        let e = Inputs.oracle_error (ctx.item item) (refs_of g) in
        Hashtbl.add priced item e;
        e
    in
    Measure.set "oracle_error_mean" "fraction" (Measure.mean (List.init ref_count oracle))
      ~note:(Printf.sprintf "mean over %d reference-phase requests" ref_count)
  end
  else begin
    (* Layer numbers from the daemon's own stats, over the reference phase. *)
    let d_ k = Daemon.num s1 k -. Daemon.num s0 k in
    let client = rp.Loadgen.latencies in
    let cls = if spec.persist then "cold" else "cached" in
    let svc p = Daemon.num s1 (Printf.sprintf "latency.%s.%s_ms" cls p) /. 1000.0 in
    Measure.set "server.self_us_p50" "us" (1e6 *. (Measure.median client -. svc "p50"))
      ~note:("client p50 minus the daemon's " ^ cls ^ " p50");
    Measure.set "server.self_us_p99" "us" (1e6 *. (Measure.percentile 99.0 client -. svc "p99"))
      ~note:("client p99 minus the daemon's " ^ cls ^ " p99");
    Measure.set "server.batch_occupancy_mean" "frames" (d_ "serving.frames" /. Float.max 1.0 (d_ "serving.batches"));
    Measure.set "server.backpressure_stalls" "count" (d_ "serving.backpressure_stalls");
    Measure.set "server.slow_drops" "count" (d_ "serving.slow_client_drops");
    Measure.set "cache.hit_ratio" "ratio" ratio
      ~note:(Printf.sprintf "daemon hits over %.0f lookups in the reference phase" lookups);
    Measure.set "service.cached_us_p50" "us" (1000.0 *. Daemon.num s1 "latency.cached.p50_ms");
    Measure.set "service.cached_us_p99" "us" (1000.0 *. Daemon.num s1 "latency.cached.p99_ms");
    Measure.set "service.cold_ms_p50" "ms" (Daemon.num s1 "latency.cold.p50_ms");
    Measure.set "service.cold_ms_p99" "ms" (Daemon.num s1 "latency.cold.p99_ms");
    Measure.set "service.overloaded" "count" (d_ "served.overloaded");
    Measure.set "journal.failed_appends" "count" (Daemon.num s1 "journal.failed_appends");
    Measure.set "loadgen.lag_ms_p99" "ms" (ms (Measure.percentile 99.0 rp.Loadgen.lags));
    (* The reference phase's tail over all its requests pooled: a stall
       that hits only a few windows moves this, not latency_p99_ms. *)
    Measure.set "loadgen.latency_p99_pooled_ms" "ms" (ms (Measure.percentile 99.0 client))
      ~note:(Printf.sprintf "p99 of all %d reference-phase requests" (List.length client));
    Array.iteri
      (fun i due ->
        if not (Float.is_nan rp.Loadgen.done_at.(i)) then
          Trace.record ~name:"loadgen.request" ~start:due ~stop:rp.Loadgen.done_at.(i) ~req:i)
      rp.Loadgen.due_at;
    (* The in-process replay of the same lines, untraced then traced. *)
    let replay, matches =
      if spec.persist then begin
        let f = replay_cold ctx ~count:ref_count ~journal_path:(Filename.concat dir "replay.journal") in
        let runs = ref [] in
        ( (fun () -> runs := f () :: !runs),
          fun () ->
            match !runs with
            | [ traced; plain ] ->
              same_refs traced plain
              && Array.for_all Fun.id
                   (Array.mapi
                      (fun g r ->
                        match Hashtbl.find_opt answers g with
                        | Some l -> Inputs.check_response (ctx.item g) r ~cached:false l = Ok ()
                        | None -> false)
                      traced)
            | _ -> false )
      end
      else replay_hot ctx ~count:ref_count ~templates ~refs:hot_refs
    in
    let t0 = Measure.now () in
    replay ();
    let untraced = Measure.now () -. t0 in
    Trace.enabled := true;
    let t1 = Measure.now () in
    replay ();
    let t2 = Measure.now () in
    Trace.enabled := false;
    let matched = matches () in
    if not matched then fail ctx "the in-process replay disagrees with the daemon's responses";
    Measure.set "trace.replay_match" "bool" (if matched then 1.0 else 0.0);
    Measure.set "trace.coverage" "ratio" (Trace.coverage ~lo:t1 ~hi:t2);
    Measure.set "trace.overhead" "ratio"
      ((t2 -. t1) /. untraced -. 1.0)
      ~note:(Printf.sprintf "in-process replay of %d requests: %.3f s traced vs %.3f s untraced" ref_count (t2 -. t1) untraced);
    let us name = List.map (fun x -> 1e6 *. x) (Trace.self_of name) in
    Measure.set "json.parse_us" "us" (Measure.median (us "json.parse"));
    Measure.set "wire.decode_us" "us" (Measure.median (us "wire.decode"));
    Measure.set "canon.key_us" "us" (Measure.median (us "canon.key"));
    Measure.set "cache.find_us" "us" (Measure.median (us "cache.find"));
    let handle = Trace.durations_of "service.handle" in
    Measure.set "service.inproc_rps" "1/s"
      (float_of_int (List.length handle) /. Float.max 1e-9 (List.fold_left ( +. ) 0.0 handle))
      ~note:"in-process Service.handle_batch_rendered, one decoded request per call";
    Measure.set "wire.render_us" "us" (Measure.median (us "wire.render"));
    Measure.set "dd.pad_us" "us" (Measure.median (us "dd.pad"));
    Measure.set "journal.append_us_p50" "us" (Measure.median (us "journal.append"));
    Measure.set "journal.append_us_p99" "us" (Measure.percentile 99.0 (us "journal.append"));
    let compiles = List.filter (fun (s : Trace.span) -> s.Trace.name = "xtalk_sched.schedule") (Trace.spans ()) in
    let dur (s : Trace.span) = s.Trace.stop -. s.Trace.start in
    Measure.set "xtalk_sched.compile_ms_p50" "ms" (ms (Measure.median (List.map dur compiles)));
    Measure.set "xtalk_sched.compile_ms_p99" "ms" (ms (Measure.percentile 99.0 (List.map dur compiles)));
    List.sort (fun a b -> compare (dur b) (dur a)) compiles
    |> List.filteri (fun i _ -> i < 5)
    |> List.iter (fun (s : Trace.span) ->
           Printf.eprintf "%s: slow compile %.1f ms  %s\n" spec.name (ms (dur s)) (ctx.item (ctx.stream s.Trace.req)).Inputs.label);
    if spec.persist then begin
      let stats = List.init ref_count (fun g -> (refs_of g).Inputs.stats) in
      List.iter
        (fun rung ->
          Measure.set ("xtalk_sched.rung." ^ Xtalk_sched.rung_name rung) "count"
            (float_of_int (List.length (List.filter (fun s -> s.Xtalk_sched.rung = rung) stats))))
        Xtalk_sched.all_rungs;
      let total f = float_of_int (List.fold_left (fun n s -> n + f s) 0 stats) in
      Measure.set "xtalk_sched.windows" "count" (total (fun s -> s.Xtalk_sched.windows));
      Measure.set "xtalk_sched.clusters" "count" (total (fun s -> s.Xtalk_sched.clusters));
      Measure.set "solver.nodes" "count" (total (fun s -> s.Xtalk_sched.nodes))
    end
  end;
  let attempted = warm_attempted + sent in
  let failed = !warm_failed + ref_failed + !ladder_failed + bad in
  Printf.eprintf "%s: warm-up %d sent, %d failed; reference %d sent, %d ok, %d failed; ladder %d sent, %d failed\n%!"
    spec.name warm_attempted !warm_failed ref_count ref_ok ref_failed (sent - ref_count) !ladder_failed;
  Measure.set "loadgen.sent" "count" (float_of_int attempted);
  Measure.set "loadgen.ok" "count" (float_of_int (attempted - failed));
  Measure.set "loadgen.failed" "count" (float_of_int failed);
  Measure.set "failed_frac" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
  { Measure.attempted; failed; failures = List.rev ctx.failures }
