(* In-memory span recorder for the traced run.

   Spans are recorded only from the benchmark's own code, around its
   calls into the program's public functions, and only on the calling
   domain.  They stay in memory until [write] dumps them at the end of
   the run, so the recorder costs one clock read and one cons per span
   boundary. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** enclosing span id; -1 at top level *)
  req : int;  (** request (or experiment) id; -1 when none *)
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_req = ref (-1)

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* [with_span ?req name f] runs [f] inside a span named [name]; nested
   calls become its children.  A no-op wrapper when tracing is off. *)
let with_span ?req name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let saved_req = !current_req in
    let req = Option.value req ~default:saved_req in
    current_req := req;
    stack := id :: !stack;
    let start = Measure.now () in
    let finish () =
      let stop = Measure.now () in
      stack := List.tl !stack;
      current_req := saved_req;
      recorded := { id; name; start; stop; parent; req } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A top-level span whose bounds were measured elsewhere (the load
   generator's due-to-response interval of one socket request). *)
let record ~name ~start ~stop ~req =
  recorded := { id = fresh_id (); name; start; stop; parent = -1; req } :: !recorded

let spans () = List.rev !recorded

(* Self times of the spans named [name]: each one's duration minus the
   time its direct children cover (children of one span never overlap:
   they run sequentially on the recording domain). *)
let self_of name =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 +. (s.stop -. s.start)))
    !recorded;
  List.filter_map
    (fun s ->
      if s.name = name then Some (s.stop -. s.start -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0)
      else None)
    (spans ())

let durations_of name =
  List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None) (spans ())

(* Share of [lo, hi] covered by the union of top-level spans. *)
let coverage ~lo ~hi =
  let tops =
    List.filter_map
      (fun s -> if s.parent < 0 && s.stop > lo && s.start < hi then Some (max lo s.start, min hi s.stop) else None)
      !recorded
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, lo) tops
  in
  if hi > lo then covered /. (hi -. lo) else 0.0

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"req\":%d}\n" s.id
        s.name s.start s.stop s.parent s.req)
    (spans ());
  close_out oc
