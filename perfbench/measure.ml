(* The clock, percentiles, /proc readers and the metric table a run
   reports. *)

(* Monotonic seconds, nanosecond resolution: spans of single layer
   calls are often under a microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let percentile p xs =
  match xs with [] -> 0.0 | _ -> Core.Stats.percentile p xs

let median xs = percentile 50.0 xs

(* The highest of the usual tail percentiles that still has at least
   ten samples beyond it, with the percentile used; [None] below 20
   samples. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  List.find_map
    (fun p -> if n *. (1.0 -. (p /. 100.0)) >= 10.0 then Some (p, percentile p xs) else None)
    [ 99.9; 99.0; 98.0; 95.0; 90.0; 75.0; 50.0 ]

let mean = function [] -> 0.0 | xs -> Core.Stats.mean xs

(* ---- /proc ---- *)

let clock_ticks = 100.0

let read_file path =
  match open_in path with
  | ic ->
    let s = In_channel.input_all ic in
    close_in ic;
    Some s
  | exception Sys_error _ -> None

(* utime + stime of a process, seconds (all threads). *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%s/stat" pid) with
  | None -> 0.0
  | Some s -> (
    let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
    match String.split_on_char ' ' after with
    | fields when List.length fields > 12 ->
      (float_of_string (List.nth fields 11) +. float_of_string (List.nth fields 12)) /. clock_ticks
    | _ -> 0.0)

(* Peak resident set (VmHWM), MiB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0.0
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
             Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                 Some (float_of_int kb /. 1024.0))
           else None)
    |> Option.value ~default:0.0

let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- the reported table ---- *)

(* What a run attempted and how much failed.  [failures] also holds
   run-level faults that are not one operation's (a hit ratio out of
   its band, a replay that disagrees). *)
type outcome = { attempted : int; failed : int; failures : string list }

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []

(* Extra facts about a metric (sample count, percentile used, base of
   a ratio) go to the result file and stderr, not the last line. *)
let notes : (string * string) list ref = ref []

let set ?note name unit_ value =
  metrics := { name; value; unit_ } :: List.filter (fun m -> m.name <> name) !metrics;
  Option.iter (fun n -> notes := (name, n) :: !notes) note

