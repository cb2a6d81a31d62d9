(* The repo benchmark.

     qcxbench.exe --workload serve-hot|serve-cold|characterize \
       --seed N --seconds S --trace 0|1

   Run from the repository root after building the daemon (perfbench/
   run.py does both).  Prints each metric on stderr with its unit and
   notes, writes .perfbench/results/<workload>-seed<N>-trace<T>.json
   (plus the traced run's spans), and ends stdout with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   from a separate run that also records spans. *)

(* End-to-end and per-layer metrics of the serve workloads, as
   BENCHMARK.json lists them.  A layer the workload does not exercise
   reports 0 for its metrics. *)
let serve_end_to_end =
  [ "setup_s"; "latency_p50_ms"; "latency_p99_ms"; "max_rate_rps"; "cpu_ms_per_op"; "peak_rss_mb"; "oracle_error_mean" ]

let serve_per_layer =
  [
    ("server.self_us_p50", "us"); ("server.self_us_p99", "us"); ("server.batch_occupancy_mean", "frames");
    ("server.backpressure_stalls", "count"); ("server.slow_drops", "count");
    ("json.parse_us", "us"); ("wire.decode_us", "us"); ("canon.key_us", "us"); ("cache.find_us", "us");
    ("cache.hit_ratio", "ratio");
    ("service.cached_us_p50", "us"); ("service.cached_us_p99", "us"); ("service.inproc_rps", "1/s");
    ("service.cold_ms_p50", "ms"); ("service.cold_ms_p99", "ms"); ("service.overloaded", "count");
    ("xtalk_sched.compile_ms_p50", "ms"); ("xtalk_sched.compile_ms_p99", "ms");
  ]
  @ List.map (fun r -> ("xtalk_sched.rung." ^ Core.Xtalk_sched.rung_name r, "count")) Core.Xtalk_sched.all_rungs
  @ [
      ("xtalk_sched.windows", "count"); ("xtalk_sched.clusters", "count"); ("solver.nodes", "count");
      ("dd.pad_us", "us"); ("journal.append_us_p50", "us"); ("journal.append_us_p99", "us");
      ("journal.failed_appends", "count"); ("wire.render_us", "us");
      ("loadgen.lag_ms_p99", "ms"); ("loadgen.latency_p99_pooled_ms", "ms"); ("loadgen.sent", "count"); ("loadgen.ok", "count"); ("loadgen.failed", "count");
      ("failed_frac", "ratio"); ("trace.coverage", "ratio"); ("trace.overhead", "ratio"); ("trace.replay_match", "bool");
    ]

(* The characterize workload is not in BENCHMARK.json (see README.md)
   and reports its own metrics. *)
let characterize_end_to_end =
  [ "setup_s"; "characterize_s"; "srb_experiments"; "cpu_ms_per_op"; "peak_rss_mb"; "oracle_error_mean" ]

let characterize_per_layer =
  [
    ("policy.plan_ms", "ms"); ("policy.flag_mismatches", "count"); ("rb.experiment_s_p50", "s");
    ("rb.experiment_s_max", "s"); ("rb.independent_s", "s"); ("rb.executions", "count"); ("rb.shots_per_s", "1/s");
    ("failed_frac", "ratio"); ("trace.coverage", "ratio"); ("trace.overhead", "ratio"); ("trace.replay_match", "bool");
  ]

let workloads = [ "serve-hot"; "serve-cold"; "characterize" ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "qcxbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) || !trace < 0 || !trace > 1 || !seconds <= 0.0 then begin
    prerr_endline "usage: qcxbench.exe --workload serve-hot|serve-cold|characterize --seed N --seconds S --trace 0|1";
    exit 2
  end;
  let traced = !trace = 1 in
  let root = ".perfbench" in
  let dir = Filename.concat root !workload in
  mkdir_p dir;
  mkdir_p (Filename.concat root "results");
  let { Measure.attempted; failed; failures } =
    match !workload with
    | "characterize" -> Charz_wl.run ~seed:!seed ~seconds:!seconds ~trace:traced
    | w -> Serve_wl.run (if w = "serve-hot" then Serve_wl.hot else Serve_wl.cold) ~seed:!seed ~seconds:!seconds ~dir ~trace:traced
  in
  let end_to_end, per_layer =
    if !workload = "characterize" then (characterize_end_to_end, characterize_per_layer)
    else (serve_end_to_end, serve_per_layer)
  in
  let names = if traced then List.map fst per_layer else end_to_end in
  if traced then
    List.iter
      (fun (n, u) -> if not (List.exists (fun m -> m.Measure.name = n) !Measure.metrics) then Measure.set n u 0.0)
      per_layer;
  let metrics = List.map (fun n -> List.find (fun m -> m.Measure.name = n) !Measure.metrics) names in
  let bad = List.filter (fun m -> not (Float.is_finite m.Measure.value)) metrics in
  let failures = failures @ List.map (fun m -> m.Measure.name ^ " is not finite") bad in
  let correct = failed = 0 && failures = [] in
  List.iter (fun f -> prerr_endline ("FAIL: " ^ f)) failures;
  List.iter
    (fun m ->
      Printf.eprintf "%-28s %14s %-6s %s\n" m.Measure.name (number m.Measure.value) m.Measure.unit_
        (String.concat "; " (List.rev_map snd (List.filter (fun (n, _) -> n = m.Measure.name) !Measure.notes))))
    metrics;
  let metric_json m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Measure.name
      (number (if Float.is_finite m.Measure.value then m.Measure.value else 0.0))
      m.Measure.unit_
  in
  let body = String.concat ", " (List.map metric_json metrics) in
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  let oc = open_out (Filename.concat (Filename.concat root "results") (tag ^ ".json")) in
  Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"seconds\": %s, \"correct\": %b,\n" !workload !seed
    !trace (number !seconds) correct;
  Printf.fprintf oc " \"attempted\": %d, \"failed\": %d, \"metrics\": {%s},\n" attempted failed body;
  Printf.fprintf oc " \"notes\": [%s],\n \"failures\": [%s]}\n"
    (String.concat ", " (List.rev_map (fun (n, s) -> Printf.sprintf "[%S, %S]" n s) !Measure.notes))
    (String.concat ", " (List.map (Printf.sprintf "%S") failures));
  close_out oc;
  if traced then Trace.write (Filename.concat root (tag ^ ".spans.ndjson"));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted
    failed body
