let schedule device (problem : Encoding.problem) =
  (* Program order decides each pair's direction; ids are assigned in
     program order, so (min, max) is "earlier gate first". *)
  let extra = List.map (fun (i, j) -> (min i j, max i j)) problem.instances in
  (Par_sched.schedule_with_orderings device problem.circuit ~extra, List.length extra)
