(* Scheduler-core benchmark: the solver's search core (warm starts,
   two-watched-literal propagation, incremental bounds, cost-guided
   branching) on the fig8 QAOA and fig9 Hidden Shift workloads at the
   exact and clustered rungs, against the frozen history of the seed's
   search core.

   The seed core is no longer compiled in.  Its node counts,
   objectives and best-of-5 wall times from the full run that wrote
   the committed BENCH_sched.json are kept in [legacy] below and
   written through unchanged; those wall times belong to the host of
   that run, so no wall-clock gate divides by them.

   Writes BENCH_sched.json and exits nonzero unless
   - every objective is equal-or-better than the frozen legacy one,
   - schedules and node counts are bit-identical at --jobs 1/2/4, and
   - aggregate nodes are at least 2x below the frozen legacy totals on
     both rungs. *)

module Sched = Core.Xtalk_sched

let device = Core.Presets.poughkeepsie ()
let xtalk = Core.Device.ground_truth device

let workloads () =
  let regions = Core.Presets.qaoa_regions device in
  let region_name region = String.concat ";" (List.map string_of_int region) in
  List.map
    (fun region ->
      let qaoa =
        Core.Qaoa.build device
          ~rng:(Core.Rng.create (Hashtbl.hash ("fig8-angles", region)))
          ~region
      in
      (Printf.sprintf "fig8-qaoa[%s]" (region_name region), qaoa.Core.Qaoa.circuit))
    regions
  @ List.concat_map
      (fun redundancy ->
        List.map
          (fun region ->
            let hs =
              Core.Hidden_shift.build device ~region ~shift:[ true; false; true; true ]
                ~redundancy
            in
            ( Printf.sprintf "fig9-hs%d[%s]" redundancy (region_name region),
              hs.Core.Hidden_shift.circuit ))
          regions)
      [ 0; 1 ]

let fingerprint sched =
  List.map
    (fun g ->
      ( g.Core.Gate.id,
        Core.Schedule.start sched g.Core.Gate.id,
        Core.Schedule.duration sched g.Core.Gate.id ))
    (Core.Circuit.gates (Core.Schedule.circuit sched))

(* Frozen seed-core results: (workload, rung, nodes, objective,
   wall seconds).  Floats are the committed JSON's 17-digit renderings,
   so they round-trip exactly. *)
let legacy =
  [
    ("fig8-qaoa[5;10;11;12]", "exact", 21, 0.45421451293946047, 0.00042009353637695312);
    ("fig8-qaoa[5;10;11;12]", "clustered", 16, 0.45421451293946047, 0.00035881996154785156);
    ("fig8-qaoa[7;12;13;14]", "exact", 29, 0.15117342010250584, 0.00041699409484863281);
    ("fig8-qaoa[7;12;13;14]", "clustered", 16, 0.15117342010250584, 0.00035500526428222656);
    ("fig8-qaoa[15;10;11;12]", "exact", 21, 0.45084554898663792, 0.00031399726867675781);
    ("fig8-qaoa[15;10;11;12]", "clustered", 16, 0.45084554898663792, 0.00036001205444335938);
    ("fig8-qaoa[11;12;13;14]", "exact", 29, 0.12693661361644981, 0.00040793418884277344);
    ("fig8-qaoa[11;12;13;14]", "clustered", 16, 0.12693661361644981, 0.00038290023803710938);
    ("fig9-hs0[5;10;11;12]", "exact", 17, 0.13842643330221208, 0.00022006034851074219);
    ("fig9-hs0[5;10;11;12]", "clustered", 18, 0.13842643330221208, 0.00029706954956054688);
    ("fig9-hs0[7;12;13;14]", "exact", 41, 0.080884261462621093, 0.00042891502380371094);
    ("fig9-hs0[7;12;13;14]", "clustered", 42, 0.080884261462621093, 0.00048708915710449219);
    ("fig9-hs0[15;10;11;12]", "exact", 25, 0.14484922695143962, 0.00025415420532226562);
    ("fig9-hs0[15;10;11;12]", "clustered", 18, 0.14484922695143962, 0.00025606155395507812);
    ("fig9-hs0[11;12;13;14]", "exact", 41, 0.064653340475874954, 0.00040197372436523438);
    ("fig9-hs0[11;12;13;14]", "clustered", 42, 0.064653340475874954, 0.00047707557678222656);
    ("fig9-hs1[5;10;11;12]", "exact", 373, 0.33532385917182206, 0.016438007354736328);
    ("fig9-hs1[5;10;11;12]", "clustered", 146, 0.33532385917182206, 0.0093171596527099609);
    ("fig9-hs1[7;12;13;14]", "exact", 5173, 0.21860327933429302, 0.19252395629882812);
    ("fig9-hs1[7;12;13;14]", "clustered", 3054, 0.21860327933429302, 0.090717077255249023);
    ("fig9-hs1[15;10;11;12]", "exact", 421, 0.35834572799524267, 0.013282060623168945);
    ("fig9-hs1[15;10;11;12]", "clustered", 146, 0.35834572799524267, 0.0061910152435302734);
    ("fig9-hs1[11;12;13;14]", "exact", 6445, 0.16863259572394765, 0.18548393249511719);
    ("fig9-hs1[11;12;13;14]", "clustered", 2554, 0.16863259572394765, 0.1046898365020752)
  ]

type measurement = {
  nodes : int;
  objective : float;
  wall : float;  (** best of repeats *)
  rung : string;
  fp : (int * float * float) list;
}

let measure ~rung ~jobs ~repeats circuit =
  let run () =
    let t0 = Unix.gettimeofday () in
    let sched, stats =
      match rung with
      | `Exact ->
        (* Raise the exact-rung gate so even the 36-pair Hidden Shift
           instances get a single whole-problem solve. *)
        Sched.schedule ~jobs ~omega:0.5 ~max_exact_pairs:1000 ~device ~xtalk
          circuit
      | `Clustered ->
        Sched.schedule ~jobs ~omega:0.5 ~ladder_start:Sched.Clustered ~device
          ~xtalk circuit
    in
    (Unix.gettimeofday () -. t0, sched, stats)
  in
  let best = ref None in
  for _ = 1 to max 1 repeats do
    let dt, sched, stats = run () in
    match !best with
    | Some (dt0, _, _) when dt0 <= dt -> ()
    | _ -> best := Some (dt, sched, stats)
  done;
  match !best with
  | None -> assert false
  | Some (dt, sched, stats) ->
    {
      nodes = stats.Sched.nodes;
      objective = stats.Sched.objective;
      wall = dt;
      rung = Sched.rung_name stats.Sched.rung;
      fp = fingerprint sched;
    }

let run ~smoke ~jobs ~repeats ~out =
  let repeats = if smoke then 1 else repeats in
  let jobs_list = if smoke then [ 1; jobs ] else [ 1; 2; jobs ] in
  let jobs_list = List.sort_uniq compare jobs_list in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let totals = Hashtbl.create 8 in
  let tally key nodes wall =
    let n0, w0 = Option.value ~default:(0, 0.0) (Hashtbl.find_opt totals key) in
    Hashtbl.replace totals key (n0 + nodes, w0 +. wall)
  in
  Printf.printf "scheduler core benchmark (%s, %d repeat%s)\n%!"
    (if smoke then "smoke" else "full")
    repeats
    (if repeats = 1 then "" else "s");
  let entries =
    List.concat_map
      (fun (name, circuit) ->
        List.filter_map
          (fun rung ->
            let rung_name = match rung with `Exact -> "exact" | `Clustered -> "clustered" in
            match List.find_opt (fun (w, r, _, _, _) -> w = name && r = rung_name) legacy with
            | None ->
              fail "%s %s: no frozen legacy baseline" name rung_name;
              None
            | Some (_, _, legacy_nodes, legacy_objective, legacy_wall) ->
              let fast = measure ~rung ~jobs:1 ~repeats circuit in
              tally ("legacy-" ^ rung_name) legacy_nodes legacy_wall;
              tally ("fast-" ^ rung_name) fast.nodes fast.wall;
              if fast.objective > legacy_objective +. 1e-9 then
                fail "%s %s: objective %.9f worse than frozen legacy %.9f" name rung_name
                  fast.objective legacy_objective;
              (* Bit-identical schedules at every --jobs (the clustered
                 rung is the only pool-parallel path, but the exact rung
                 must be jobs-insensitive too). *)
              List.iter
                (fun j ->
                  if j > 1 then begin
                    let m = measure ~rung ~jobs:j ~repeats:1 circuit in
                    if m.fp <> fast.fp then
                      fail "%s %s: schedule differs between --jobs 1 and --jobs %d" name
                        rung_name j;
                    if m.nodes <> fast.nodes then
                      fail "%s %s: node count differs between --jobs 1 and --jobs %d" name
                        rung_name j
                  end)
                jobs_list;
              Printf.printf
                "  %-22s %-9s legacy: %6d nodes %8.2f ms | fast: %6d nodes %8.2f ms (%s)\n%!"
                name rung_name legacy_nodes (legacy_wall *. 1e3) fast.nodes
                (fast.wall *. 1e3) fast.rung;
              Some
                (Core.Json.Object
                   [
                     ("workload", Core.Json.String name);
                     ("rung", Core.Json.String rung_name);
                     ("legacy_nodes", Core.Json.Number (float_of_int legacy_nodes));
                     ("fast_nodes", Core.Json.Number (float_of_int fast.nodes));
                     ("legacy_wall_seconds", Core.Json.Number legacy_wall);
                     ("fast_wall_seconds", Core.Json.Number fast.wall);
                     ("legacy_objective", Core.Json.Number legacy_objective);
                     ("fast_objective", Core.Json.Number fast.objective);
                     ("served_rung", Core.Json.String fast.rung);
                   ]))
          [ `Exact; `Clustered ])
      (workloads ())
  in
  let aggregates =
    List.map
      (fun rung ->
        let ln, lw = Option.value ~default:(0, 0.0) (Hashtbl.find_opt totals ("legacy-" ^ rung)) in
        let fn, fw = Option.value ~default:(0, 0.0) (Hashtbl.find_opt totals ("fast-" ^ rung)) in
        let node_ratio = float_of_int ln /. float_of_int (max 1 fn) in
        Printf.printf
          "TOTAL %-9s nodes %d -> %d (%.2fx)   wall %.1f ms (frozen legacy %.1f ms)\n%!" rung
          ln fn node_ratio (fw *. 1e3) (lw *. 1e3);
        if node_ratio < 2.0 then
          fail "%s rung: aggregate node reduction %.2fx below the 2x gate" rung node_ratio;
        ( rung,
          Core.Json.Object
            [
              ("legacy_nodes", Core.Json.Number (float_of_int ln));
              ("fast_nodes", Core.Json.Number (float_of_int fn));
              ("node_ratio", Core.Json.Number node_ratio);
              ("legacy_wall_seconds", Core.Json.Number lw);
              ("fast_wall_seconds", Core.Json.Number fw);
            ] ))
      [ "exact"; "clustered" ]
  in
  let doc =
    Core.Json.Object
      [
        ("bench", Core.Json.String "scheduler core vs frozen legacy baseline");
        ("device", Core.Json.String (Core.Device.name device));
        ("smoke", Core.Json.Bool smoke);
        ("repeats", Core.Json.Number (float_of_int repeats));
        ( "jobs_checked",
          Core.Json.Array (List.map (fun j -> Core.Json.Number (float_of_int j)) jobs_list)
        );
        ("workloads", Core.Json.Array entries);
        ("aggregate", Core.Json.Object aggregates);
        ( "failures",
          Core.Json.Array (List.rev_map (fun m -> Core.Json.String m) !failures) );
      ]
  in
  let oc = open_out out in
  output_string oc (Core.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  if !failures <> [] then begin
    List.iter (fun m -> Printf.eprintf "FAIL: %s\n" m) (List.rev !failures);
    exit 1
  end
