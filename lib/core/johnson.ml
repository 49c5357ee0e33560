(* [<] agrees with Float.compare on task times, which are never NaN. *)
let compare (a : Task.t) (b : Task.t) =
  let ia = Task.is_compute_intensive a in
  if ia <> Task.is_compute_intensive b then if ia then -1 else 1
  else
    let ka = if ia then a.Task.comm else -.a.Task.comp
    and kb = if ia then b.Task.comm else -.b.Task.comp in
    if ka < kb then -1 else if kb < ka then 1 else Task.compare_id a b

let order tasks = List.stable_sort compare tasks

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
