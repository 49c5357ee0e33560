let order tasks =
  let s1, s2 = List.partition Task.is_compute_intensive tasks in
  let by_comm a b =
    let c = Float.compare a.Task.comm b.Task.comm in
    if c <> 0 then c else Task.compare_id a b
  in
  let by_comp_desc a b =
    let c = Float.compare b.Task.comp a.Task.comp in
    if c <> 0 then c else Task.compare_id a b
  in
  List.sort by_comm s1 @ List.sort by_comp_desc s2

let omim_schedule tasks = Sim.run_order_exn ~capacity:Float.infinity (order tasks)

(* The two-machine recurrence of [omim_schedule]'s executor with no
   memory bound, without building the schedule: the same arithmetic in
   the same order, so the same bits (property-tested). *)
let omim tasks =
  let link = ref 0.0 and cpu = ref 0.0 and makespan = ref 0.0 in
  List.iter
    (fun (t : Task.t) ->
      let comm_end = !link +. t.Task.comm in
      let comp_end = Float.max comm_end !cpu +. t.Task.comp in
      link := comm_end;
      cpu := comp_end;
      makespan := Float.max !makespan comp_end)
    (order tasks);
  !makespan
