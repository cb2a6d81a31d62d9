module Json = Qcx_persist.Json

(* One input frame: a line that fit the bound, or the record that an
   oversized one was discarded (its bytes are never kept). *)
type frame = Line of string | Oversize

let handle_frames ?(max_frame = Wire.default_max_frame) service frames =
  let frames =
    List.filter (function Line l -> String.trim l <> "" | Oversize -> true) frames
  in
  let parsed =
    List.map
      (function
        | Oversize -> `Oversize
        | Line line -> (
          if String.length line > max_frame then `Oversize
          else
            match Json.of_string line with
            | Error e -> `Bad (Wire.error_response ~id:None ("bad JSON: " ^ e))
            | Ok doc -> (
              match Wire.request_of_json doc with
              | Error e -> `Bad (Wire.invalid_request_response doc e)
              | Ok req -> `Req req)))
      frames
  in
  let requests = List.filter_map (function `Req r -> Some r | _ -> None) parsed in
  let responses =
    (* Last-resort guard: a panic anywhere in the service layer
       degrades to typed per-request errors, never a dropped batch. *)
    try Service.handle_batch_rendered service requests
    with e ->
      Service.note_panic service;
      let msg = "handler panic: " ^ Printexc.to_string e in
      List.map
        (fun req ->
          Json.to_string ~indent:false
            (Wire.internal_error_response ~id:(Some (Wire.request_id req)) msg))
        requests
  in
  let responses = ref responses in
  let out =
    List.map
      (fun item ->
        match item with
        | `Oversize ->
          Json.to_string ~indent:false (Wire.frame_too_large_response ~id:None ~limit:max_frame)
        | `Bad response -> Json.to_string ~indent:false response
        | `Req _ -> (
          match !responses with
          | r :: rest ->
            responses := rest;
            r
          | [] ->
            Json.to_string ~indent:false
              (Wire.internal_error_response ~id:None "internal: missing response")))
      parsed
  in
  let stop = List.exists (function `Req (Wire.Shutdown _) -> true | _ -> false) parsed in
  (out, stop)

let handle_lines ?max_frame service lines =
  handle_frames ?max_frame service (List.map (fun l -> Line l) lines)

let serve_channels service ic oc =
  let rec read_all acc =
    match input_line ic with
    | line -> read_all (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read_all [] in
  let responses, _stop = handle_lines service lines in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    responses;
  flush oc

(* ---- socket mode: the event-driven reactor ----

   One [Unix.select] loop multiplexes the listener and every open
   connection; fds are non-blocking and every wait is capped by a
   short tick so the drain flag is observed promptly.  Frames from all
   connections accumulate into one shared batch (round-robin, one
   frame per connection per pass — a client with a deep pipeline never
   starves the others) dispatched to the handler when the batch is
   full or the collection window closes.  Responses are demultiplexed
   back to their origin connections through bounded per-connection
   write queues: a connection whose queue is over the bound is neither
   read nor dispatched until it drains (backpressure), and one that
   accepts no bytes for [write_timeout] is dropped. *)

let tick = 0.25

(* Incremental NDJSON framing over one reusable per-connection buffer:
   frames are substrings of the same growable byte array (compacted in
   place), so a busy connection costs zero per-line Buffer churn.  A
   frame beyond [max_frame] flips the reader into discard mode — its
   bytes are dropped as they arrive, only the fact of the oversize is
   kept. *)
type reader = {
  fd : Unix.file_descr;
  max_frame : int;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;  (* end of buffered data *)
  mutable scanned : int;  (* newline-scan frontier, start <= scanned <= len *)
  mutable eof : bool;
  mutable discarding : bool;  (* inside an oversized frame; dropping bytes *)
}

let read_chunk = 65536

let make_reader ?(max_frame = Wire.default_max_frame) fd =
  {
    fd;
    max_frame;
    buf = Bytes.create read_chunk;
    start = 0;
    len = 0;
    scanned = 0;
    eof = false;
    discarding = false;
  }

let ensure_space r want =
  if Bytes.length r.buf - r.len < want then begin
    (* Compact first — the common case once a frame has been consumed —
       and only grow when the partial frame genuinely needs the room. *)
    if r.start > 0 then begin
      Bytes.blit r.buf r.start r.buf 0 (r.len - r.start);
      r.len <- r.len - r.start;
      r.scanned <- r.scanned - r.start;
      r.start <- 0
    end;
    if Bytes.length r.buf - r.len < want then begin
      let cap = max (2 * Bytes.length r.buf) (r.len + want) in
      let b = Bytes.create cap in
      Bytes.blit r.buf 0 b 0 r.len;
      r.buf <- b
    end
  end

let rec fill r =
  if r.eof then 0
  else begin
    ensure_space r read_chunk;
    match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
    | 0 ->
      r.eof <- true;
      0
    | n ->
      r.len <- r.len + n;
      n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill r
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      r.eof <- true;
      0
  end

let reset_reader r =
  r.start <- 0;
  r.len <- 0;
  r.scanned <- 0

let take_frame r =
  let i = ref r.scanned in
  while !i < r.len && Bytes.unsafe_get r.buf !i <> '\n' do
    incr i
  done;
  if !i < r.len then begin
    let line_len = !i - r.start in
    let res =
      if r.discarding then begin
        r.discarding <- false;
        Oversize
      end
      else if line_len > r.max_frame then Oversize
      else Line (Bytes.sub_string r.buf r.start line_len)
    in
    r.start <- !i + 1;
    r.scanned <- r.start;
    if r.start = r.len then reset_reader r;
    Some res
  end
  else begin
    r.scanned <- r.len;
    (* No newline yet.  A malicious frame must not buffer without
       bound: beyond the limit the bytes are dropped and only the
       fact of the oversize is remembered. *)
    if r.len - r.start > r.max_frame then begin
      reset_reader r;
      r.discarding <- true
    end;
    None
  end

(* At EOF a trailing unterminated fragment is served as a frame. *)
let take_eof_fragment r =
  if r.len > r.start then begin
    let discarded = r.discarding in
    let line = Bytes.sub_string r.buf r.start (r.len - r.start) in
    reset_reader r;
    r.discarding <- false;
    Some (if discarded then Oversize else Line line)
  end
  else None

let readable fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

exception Slow_client

let write_all ?timeout fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go ofs =
    if ofs < len then begin
      (match timeout with
      | None -> ()
      | Some t -> (
        match Unix.select [] [ fd ] [] t with
        | _, [ _ ], _ -> ()
        | _ -> raise Slow_client
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()));
      match Unix.write fd b ofs (len - ofs) with
      | n -> go (ofs + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* Non-blocking fd with a full kernel buffer: without a
           timeout, wait for writability and retry. *)
        if timeout = None then ignore (readable fd tick);
        go ofs
    end
  in
  try go 0 with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

let overloaded_line =
  Json.to_string ~indent:false (Wire.overloaded_response ~id:None) ^ "\n"

(* Shed one accepted-but-over-bound connection: a typed [overloaded]
   line (best effort, short timeout — the client may already be gone)
   and the close.  A refused connection still gets a parseable answer,
   never a silent RST. *)
let shed_connection fd =
  (try write_all ~timeout:0.05 fd overloaded_line with Slow_client -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- reactor observability ---- *)

let occupancy_buckets = 8

type metrics = {
  mutable accepted : int;
  mutable shed : int;
  mutable open_conns : int;
  mutable peak_open_conns : int;
  mutable pending_conns : int;  (* admitted but nothing dispatched yet *)
  mutable batches : int;
  mutable frames : int;
  mutable slow_client_drops : int;
  mutable backpressure_stalls : int;
  occupancy : int array;  (* batch-size histogram, log2 buckets 1,2,4,...,128+ *)
}

let create_metrics () =
  {
    accepted = 0;
    shed = 0;
    open_conns = 0;
    peak_open_conns = 0;
    pending_conns = 0;
    batches = 0;
    frames = 0;
    slow_client_drops = 0;
    backpressure_stalls = 0;
    occupancy = Array.make occupancy_buckets 0;
  }

let note_batch m size =
  m.batches <- m.batches + 1;
  m.frames <- m.frames + size;
  let rec bucket i n = if n <= 1 || i >= occupancy_buckets - 1 then i else bucket (i + 1) (n / 2) in
  let b = bucket 0 size in
  m.occupancy.(b) <- m.occupancy.(b) + 1

let metrics_json m =
  let n = float_of_int in
  Json.Object
    [
      ("accepted", Json.Number (n m.accepted));
      ("shed", Json.Number (n m.shed));
      ("open_connections", Json.Number (n m.open_conns));
      ("peak_open_connections", Json.Number (n m.peak_open_conns));
      ("accept_queue_depth", Json.Number (n m.pending_conns));
      ("batches", Json.Number (n m.batches));
      ("frames", Json.Number (n m.frames));
      ("slow_client_drops", Json.Number (n m.slow_client_drops));
      ("backpressure_stalls", Json.Number (n m.backpressure_stalls));
      ( "batch_occupancy",
        Json.Object
          (List.init occupancy_buckets (fun i ->
               let label =
                 if i = occupancy_buckets - 1 then string_of_int (1 lsl i) ^ "+"
                 else string_of_int (1 lsl i)
               in
               (label, Json.Number (n m.occupancy.(i))))) );
    ]

(* ---- per-connection reactor state ---- *)

(* Per-connection write queues are bounded: past this many unwritten
   bytes the connection is neither read nor dispatched until the
   client drains its responses. *)
let max_out_bytes = 4 * 1024 * 1024

type conn = {
  cfd : Unix.file_descr;
  reader : reader;
  inbox : frame Queue.t;  (* framed, not yet dispatched *)
  outq : string Queue.t;  (* rendered response lines awaiting write *)
  mutable out_off : int;  (* written prefix of the head of [outq] *)
  mutable out_bytes : int;
  mutable served : bool;  (* at least one frame dispatched (admission) *)
  mutable last_progress : float;  (* last accepted write byte (or enqueue) *)
  mutable dead : bool;
}

let conn_of fd ~max_frame ~now =
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  {
    cfd = fd;
    reader = make_reader ~max_frame fd;
    inbox = Queue.create ();
    outq = Queue.create ();
    out_off = 0;
    out_bytes = 0;
    served = false;
    last_progress = now;
    dead = false;
  }

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let enqueue_response c line =
  let s = line ^ "\n" in
  Queue.add s c.outq;
  c.out_bytes <- c.out_bytes + String.length s

(* Write as much as the kernel takes without blocking. *)
let rec flush_conn c ~now =
  if not c.dead then
    match Queue.peek_opt c.outq with
    | None -> ()
    | Some s -> (
      let remaining = String.length s - c.out_off in
      match Unix.write_substring c.cfd s c.out_off remaining with
      | n ->
        c.out_bytes <- c.out_bytes - n;
        if n > 0 then c.last_progress <- now;
        if n = remaining then begin
          ignore (Queue.pop c.outq);
          c.out_off <- 0;
          flush_conn c ~now
        end
        else c.out_off <- c.out_off + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_conn c ~now
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> c.dead <- true)

(* Remaining unwritten output, for the final blocking flush. *)
let pending_output c =
  let b = Buffer.create (c.out_bytes + 1) in
  let first = ref true in
  Queue.iter
    (fun s ->
      if !first then begin
        first := false;
        Buffer.add_substring b s c.out_off (String.length s - c.out_off)
      end
      else Buffer.add_string b s)
    c.outq;
  Buffer.contents b

let serve_socket_with ?(max_batch = 128) ?(max_frame = Wire.default_max_frame) ?write_timeout
    ?(stop = fun () -> false) ?(backlog = 16) ?max_pending ?(note_panic = fun () -> ())
    ?(batch_window = 0.0) ?metrics ~handle ~path () =
  let max_batch = max 1 max_batch in
  (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | () -> ()
  | exception Invalid_argument _ -> ());
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conns : conn Queue.t = Queue.create () in
  let m = match metrics with Some m -> m | None -> create_metrics () in
  Fun.protect
    ~finally:(fun () ->
      Queue.iter (fun c -> close_fd c.cfd) conns;
      Queue.clear conns;
      close_fd sock;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock (max 1 backlog);
      (try Unix.set_nonblock sock with Unix.Unix_error _ -> ());
      let unserved () = Queue.fold (fun n c -> if c.served || c.dead then n else n + 1) 0 conns in
      let live_open () = Queue.fold (fun n c -> if c.dead then n else n + 1) 0 conns in
      (* Frames that could go into a batch right now — a backpressured
         connection's frames do not count, or the loop would spin
         trying to dispatch work it refuses to take. *)
      let eligible_inbox () =
        Queue.fold
          (fun n c ->
            if c.dead || c.out_bytes > max_out_bytes then n else n + Queue.length c.inbox)
          0 conns
      in
      let update_gauges () =
        m.open_conns <- Queue.length conns;
        if m.open_conns > m.peak_open_conns then m.peak_open_conns <- m.open_conns;
        m.pending_conns <- unserved ()
      in
      let accept_burst ~now =
        let budget = ref (match max_pending with Some b -> b + 8 | None -> 64) in
        let continue = ref true in
        while !continue && !budget > 0 do
          match Unix.accept sock with
          | fd, _ ->
            decr budget;
            m.accepted <- m.accepted + 1;
            (* Admission: the bound caps concurrently open connections
               at [bound + 2] — the same budget as the serial loop it
               replaced (one being served plus [bound + 1] admitted) —
               and the excess is shed NOW with a typed [overloaded]
               line instead of waiting its turn just to time out.
               FIFO fairness: the newest is shed. *)
            let over =
              match max_pending with Some bound -> live_open () + 1 > bound + 2 | None -> false
            in
            if over then begin
              m.shed <- m.shed + 1;
              shed_connection fd
            end
            else Queue.add (conn_of fd ~max_frame ~now) conns
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            continue := false
        done
      in
      let read_conn c =
        if (not c.dead) && not c.reader.eof then begin
          let rec drain () = if fill c.reader > 0 then drain () in
          drain ();
          let rec frames () =
            match take_frame c.reader with
            | Some (Line l) when String.trim l = "" -> frames ()
            | Some f ->
              Queue.add f c.inbox;
              frames ()
            | None -> ()
          in
          frames ();
          if c.reader.eof then
            match take_eof_fragment c.reader with
            | Some (Line l) when String.trim l = "" -> ()
            | Some f -> Queue.add f c.inbox
            | None -> ()
        end
      in
      (* Fair batch formation: one frame per connection per pass, in
         accept order, until the batch is full or inboxes are empty. *)
      let form_batch () =
        let order = Queue.fold (fun acc c -> c :: acc) [] conns |> List.rev in
        let batch = ref [] and n = ref 0 in
        let progressed = ref true in
        while !n < max_batch && !progressed do
          progressed := false;
          List.iter
            (fun c ->
              if !n < max_batch && (not c.dead) && c.out_bytes <= max_out_bytes then
                match Queue.take_opt c.inbox with
                | Some f ->
                  batch := (c, f) :: !batch;
                  incr n;
                  c.served <- true;
                  progressed := true
                | None -> ())
            order
        done;
        List.rev !batch
      in
      let dispatch batch =
        match batch with
        | [] -> false
        | _ -> (
          note_batch m (List.length batch);
          let frames = List.map snd batch in
          match handle frames with
          | responses, shutdown ->
            let rec zip bs rs =
              match (bs, rs) with
              | [], _ -> ()
              | (c, _) :: bt, r :: rt ->
                if not c.dead then enqueue_response c r;
                zip bt rt
              | (c, _) :: bt, [] ->
                if not c.dead then
                  enqueue_response c
                    (Json.to_string ~indent:false
                       (Wire.internal_error_response ~id:None "internal: missing response"));
                zip bt []
            in
            zip batch responses;
            let now = Unix.gettimeofday () in
            List.iter (fun (c, _) -> c.last_progress <- now) batch;
            shutdown
          | exception (Stack_overflow | Failure _ | Invalid_argument _ | Not_found) ->
            (* Crash-recovery wrapper: a handler panic closes the
               connections whose frames were in the dying batch, but
               the daemon keeps accepting. *)
            note_panic ();
            List.iter (fun (c, _) -> c.dead <- true) batch;
            false)
      in
      let final_flush () =
        Queue.iter
          (fun c ->
            if (not c.dead) && c.out_bytes > 0 then
              try write_all ?timeout:write_timeout c.cfd (pending_output c)
              with Slow_client -> ())
          conns
      in
      (* Window bookkeeping: the collection window opens when the first
         frame of a batch arrives and closes [batch_window] later. *)
      let window_opened = ref None in
      let finished = ref false in
      while not !finished do
        if stop () then begin
          (* Graceful drain: frames already here are served and their
             responses written before the loop exits. *)
          ignore (dispatch (form_batch ()));
          final_flush ();
          finished := true
        end
        else begin
          let now = Unix.gettimeofday () in
          let timeout =
            match !window_opened with
            | None -> tick
            | Some t0 -> Float.min tick (Float.max 0.0 ((t0 +. batch_window) -. now))
          in
          let read_fds =
            sock
            :: Queue.fold
                 (fun acc c ->
                   if c.dead || c.reader.eof || Queue.length c.inbox >= max_batch then acc
                   else if c.out_bytes > max_out_bytes then begin
                     m.backpressure_stalls <- m.backpressure_stalls + 1;
                     acc
                   end
                   else c.cfd :: acc)
                 [] conns
          in
          let write_fds =
            Queue.fold (fun acc c -> if (not c.dead) && c.out_bytes > 0 then c.cfd :: acc else acc)
              [] conns
          in
          let rd, wr =
            match Unix.select read_fds write_fds [] timeout with
            | r, w, _ -> (r, w)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
          in
          let now = Unix.gettimeofday () in
          if List.memq sock rd then accept_burst ~now;
          Queue.iter (fun c -> if List.memq c.cfd rd then read_conn c) conns;
          Queue.iter (fun c -> if List.memq c.cfd wr then flush_conn c ~now) conns;
          (* Dispatch when the shared batch is full or the window has
             closed (a zero window dispatches whatever this iteration
             brought — batching then comes only from genuinely
             concurrent arrivals, never from added latency). *)
          let pending = eligible_inbox () in
          if pending = 0 then window_opened := None
          else if !window_opened = None then window_opened := Some now;
          let window_closed =
            match !window_opened with
            | None -> false
            | Some t0 -> batch_window <= 0.0 || now -. t0 +. 1e-9 >= batch_window
          in
          if pending > 0 && (window_closed || pending >= max_batch) then begin
            let batch = form_batch () in
            (* Leftover frames (deeper than one batch) dispatch on the
               very next pass; an emptied inbox closes the window. *)
            window_opened := (if eligible_inbox () = 0 then None else Some 0.0);
            if dispatch batch then begin
              final_flush ();
              finished := true
            end
            else
              (* Opportunistic write: a lockstep client gets its answer
                 this iteration, not after another select wakeup. *)
              let now = Unix.gettimeofday () in
              List.iter (fun (c, _) -> flush_conn c ~now) batch
          end;
          if not !finished then begin
            (* Slow-client and lifecycle sweep. *)
            (match write_timeout with
            | None -> ()
            | Some wt ->
              Queue.iter
                (fun c ->
                  if (not c.dead) && c.out_bytes > 0 && now -. c.last_progress > wt then begin
                    m.slow_client_drops <- m.slow_client_drops + 1;
                    c.dead <- true
                  end)
                conns);
            let survivors = Queue.create () in
            Queue.iter
              (fun c ->
                let finished_conn =
                  c.dead
                  || (c.reader.eof && Queue.is_empty c.inbox && c.out_bytes = 0)
                in
                if finished_conn then close_fd c.cfd else Queue.add c survivors)
              conns;
            Queue.clear conns;
            Queue.transfer survivors conns;
            update_gauges ()
          end
        end
      done)

let serve_socket ?max_batch ?(max_frame = Wire.default_max_frame) ?write_timeout ?stop ?backlog
    ?max_pending ?batch_window ?metrics service ~path =
  let max_batch =
    match max_batch with
    | Some m -> max 1 m
    | None -> 2 * (Service.config service).Service.queue_bound
  in
  let m = match metrics with Some m -> m | None -> create_metrics () in
  Service.set_serving service (Some (fun () -> metrics_json m));
  serve_socket_with ~max_batch ~max_frame ?write_timeout ?stop ?backlog ?max_pending ?batch_window
    ~metrics:m
    ~note_panic:(fun () -> Service.note_panic service)
    ~handle:(fun frames -> handle_frames ~max_frame service frames)
    ~path ()
