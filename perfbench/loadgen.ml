(* Open-loop load generator over at most two Unix-socket connections.

   Request [i] of a phase is due at [t0 + i / rate], whatever happened
   to earlier requests, and its latency is measured from that due time
   to the arrival of its response, so a stall is charged to every
   request it delays.  At most [max_inflight] requests are outstanding
   at once: the daemon answers a batch beyond its admission bound with
   [overloaded], and the generator never provokes that.  A request
   held back by the cap is sent late, and the lateness shows both in
   its latency and in the send lag the phase reports. *)

type conn = {
  fd : Unix.file_descr;
  pending : string Queue.t;  (* unwritten chunks, head partly written *)
  mutable off : int;
  partial : Buffer.t;  (* bytes of an incomplete response line *)
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; pending = Queue.create (); off = 0; partial = Buffer.create 4096 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type phase = {
  ok : int;
  failed : int;  (** non-ok, wrong or missing responses *)
  latencies : float list;  (** seconds, due time to response, answered requests *)
  lags : float list;  (** seconds, due time to send *)
  started : float;  (** due time of request 0 *)
  finished : float;  (** arrival of the last response *)
  due_at : float array;  (** absolute due time of each request *)
  done_at : float array;  (** absolute arrival of each response; nan if none *)
}

let buf = Bytes.create 65536

(* Response ids are "r<n>"; the compact printer puts the id first. *)
let id_prefix = "{\"id\": \"r"

let response_index line =
  let plen = String.length id_prefix in
  if String.length line > plen && String.sub line 0 plen = id_prefix then
    match String.index_from_opt line plen '"' with
    | Some q -> int_of_string_opt (String.sub line plen (q - plen))
    | None -> None
  else None

let rec flush c =
  if not (Queue.is_empty c.pending) then begin
    let s = Queue.peek c.pending in
    match Unix.write_substring c.fd s c.off (String.length s - c.off) with
    | n ->
      c.off <- c.off + n;
      if c.off = String.length s then begin
        ignore (Queue.pop c.pending);
        c.off <- 0;
        flush c
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  end

(* Read what is available; hand each complete line to [on_line]. *)
let drain c on_line =
  let rec loop () =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "daemon closed the connection"
    | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get buf i = '\n' then begin
          Buffer.add_subbytes c.partial buf !start (i - !start);
          on_line (Buffer.contents c.partial);
          Buffer.clear c.partial;
          start := i + 1
        end
      done;
      Buffer.add_subbytes c.partial buf !start (n - !start);
      if n = Bytes.length buf then loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  loop ()

let rec select r w timeout =
  try Unix.select r w [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select r w timeout

(* Run one phase: [count] requests at [rate], request [i]'s line built
   by [line i] (its id must be [r<base + i>]) and its response judged
   by [check i line].  Requests still unanswered [grace] seconds after
   the last one was due count as failed. *)
let run ~conns ~rate ~count ~base ~max_inflight ~grace ~line ~check =
  let conns = Array.of_list conns in
  let nconns = Array.length conns in
  let due = Array.init count (fun i -> float_of_int i /. rate) in
  let sent_at = Array.make count nan in
  let latency = Array.make count nan in
  let good = Array.make count false in
  let t0 = Measure.now () +. 0.002 in
  let last_due = t0 +. due.(count - 1) in
  let next = ref 0 and inflight = ref 0 and answered = ref 0 in
  let on_line l =
    let now = Measure.now () in
    match response_index l with
    | Some k when k - base >= 0 && k - base < count && Float.is_nan latency.(k - base) ->
      let i = k - base in
      latency.(i) <- now -. (t0 +. due.(i));
      good.(i) <- check i l;
      decr inflight;
      incr answered
    | _ -> failwith ("unexpected response line: " ^ String.sub l 0 (min 80 (String.length l)))
  in
  let stop = ref false in
  while not !stop do
    let now = Measure.now () in
    let chunks = Array.make nconns [] in
    while !next < count && t0 +. due.(!next) <= now && !inflight < max_inflight do
      let i = !next in
      let c = i mod nconns in
      chunks.(c) <- line i :: chunks.(c);
      sent_at.(i) <- now;
      incr next;
      incr inflight
    done;
    Array.iteri
      (fun c ls -> if ls <> [] then Queue.push (String.concat "" (List.rev ls)) conns.(c).pending)
      chunks;
    Array.iter flush conns;
    if !answered = count || now > last_due +. grace then stop := true
    else begin
      let timeout =
        if !next < count && !inflight < max_inflight then
          Float.max 0.0 (t0 +. due.(!next) -. Measure.now ())
        else 0.02
      in
      let rfds = Array.to_list (Array.map (fun c -> c.fd) conns) in
      let wfds =
        Array.to_list conns
        |> List.filter_map (fun c -> if Queue.is_empty c.pending then None else Some c.fd)
      in
      let readable, _, _ = select rfds wfds timeout in
      Array.iter (fun c -> if List.mem c.fd readable then drain c on_line) conns
    end
  done;
  let idx = List.init count Fun.id in
  let ok = Array.fold_left (fun n g -> if g then n + 1 else n) 0 good in
  {
    ok;
    failed = count - ok;
    latencies = List.filter (fun l -> not (Float.is_nan l)) (Array.to_list latency);
    lags =
      List.filter_map
        (fun i -> if Float.is_nan sent_at.(i) then None else Some (sent_at.(i) -. (t0 +. due.(i))))
        idx;
    started = t0;
    finished =
      Array.fold_left
        (fun m i -> if Float.is_nan latency.(i) then m else Float.max m (t0 +. due.(i) +. latency.(i)))
        t0
        (Array.init count Fun.id);
    due_at = Array.map (fun d -> t0 +. d) due;
    done_at = Array.mapi (fun i l -> t0 +. due.(i) +. l) latency;
  }

(* One request/response exchange on a fresh connection (ping, stats,
   shutdown): outside the load phases, so never a third concurrent
   connection. *)
let call path line ~timeout =
  let c = connect path in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      Queue.push (line ^ "\n") c.pending;
      let deadline = Measure.now () +. timeout in
      let got = ref None in
      while !got = None do
        flush c;
        let left = deadline -. Measure.now () in
        if left <= 0.0 then failwith "daemon did not answer in time";
        let w = if Queue.is_empty c.pending then [] else [ c.fd ] in
        let readable, _, _ = select [ c.fd ] w left in
        if readable <> [] then drain c (fun l -> if !got = None then got := Some l)
      done;
      Option.get !got)
