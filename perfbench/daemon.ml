(* The system under test for the serve workloads: the shipped
   [qcx_serve] daemon, run as a subprocess from the build tree. *)

let exe = "_build/default/bin/qcx_serve.exe"

(* During the timed phases the daemon runs on CPU 1 and the load
   generator on CPU 0, so the two never queue behind each other on one
   core. *)
let taskset = "/usr/bin/taskset"

(* Pin every thread of this process to [cpus] (e.g. "0"); a no-op
   without taskset. *)
let pin_self cpus =
  if Sys.file_exists taskset then begin
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process taskset
        [| taskset; "-a"; "-p"; "-c"; cpus; string_of_int (Unix.getpid ()) |]
        Unix.stdin null null
    in
    Unix.close null;
    ignore (Unix.waitpid [] pid)
  end

type t = { pid : int; socket : string }

let live : t list ref = ref []

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let ping_line = {|{"op":"ping","id":"ping"}|}

(* Spawn and wait until a ping is answered.  Returns the daemon and
   the seconds from spawn to the first pong. *)
let start ~dir ~name args =
  let socket = Filename.concat dir (name ^ ".sock") in
  (try Sys.remove socket with Sys_error _ -> ());
  let log = Unix.openfile (Filename.concat dir (name ^ ".log")) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Measure.now () in
  let argv = exe :: "--socket" :: socket :: args in
  let argv = if Sys.file_exists taskset then taskset :: "-c" :: "1" :: argv else argv in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) null log log in
  Unix.close null;
  Unix.close log;
  let d = { pid; socket } in
  live := d :: !live;
  let deadline = t0 +. 60.0 in
  let rec await () =
    match Loadgen.call socket ping_line ~timeout:10.0 with
    | line when String.length line > 0 -> ()
    | _ -> failwith "empty ping response"
    | exception (Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)) ->
      if Measure.now () > deadline then failwith "daemon did not come up";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "daemon exited during start-up (see its .log)");
      Unix.sleepf 0.002;
      await ()
  in
  await ();
  (d, Measure.now () -. t0)

let pid_s d = string_of_int d.pid
let cpu_seconds d = Measure.cpu_seconds (pid_s d)
let peak_rss_mb d = Measure.peak_rss_mb (pid_s d)

let stats d =
  let line = Loadgen.call d.socket {|{"op":"stats","id":"stats"}|} ~timeout:30.0 in
  match Core.Json.of_string line with
  | Ok j -> (
    match Core.Json.member "stats" j with Some s -> s | None -> failwith "stats: no payload")
  | Error e -> failwith ("stats: " ^ e)

(* Ask for a clean shutdown and reap the process. *)
let stop d =
  (try ignore (Loadgen.call d.socket {|{"op":"shutdown","id":"bye"}|} ~timeout:30.0)
   with _ -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* Dotted lookup into a stats payload; absent numbers read as 0. *)
let num stats path =
  let rec go j = function
    | [] -> ( match Core.Json.to_float j with Ok f -> f | Error _ -> 0.0)
    | k :: rest -> ( match Core.Json.member k j with Some v -> go v rest | None -> 0.0)
  in
  go stats (String.split_on_char '.' path)
