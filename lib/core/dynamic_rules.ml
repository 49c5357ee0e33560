type criterion =
  | LCMR
  | SCMR
  | MAMR

let all = [ LCMR; SCMR; MAMR ]

let name = function
  | LCMR -> "LCMR"
  | SCMR -> "SCMR"
  | MAMR -> "MAMR"

let crit_of = function
  | LCMR -> Candidates.Lcmr
  | SCMR -> Candidates.Scmr
  | MAMR -> Candidates.Mamr

let decide ?min_idle_filter st idx ~kcap crit head =
  Sim.settle st;
  let used = Sim.memory_in_use st in
  match head with
  | Some (next : Task.t) when used +. next.Task.mem <= kcap -> head
  | _ ->
      Candidates.select ?min_idle_filter idx crit ~used ~kcap
        ~cpu_free:(Sim.cpu_free_time st) ~now:(Sim.link_free_time st)

(* The decision loop keeps the instance in a Candidates index built once
   per run (flat segment trees over the task slots), so each step costs
   O(log n), with no allocation in the index, instead of re-filtering and
   re-scanning the remaining list: O(n log n) per run where the list
   version was O(n²). Selections are bit-identical to the list scan
   (property-tested against the frozen reference in the test suite). *)
let run ?state ?min_idle_filter criterion instance =
  let capacity = instance.Instance.capacity in
  let st = match state with Some s -> s | None -> Sim.initial_state () in
  let tasks = instance.Instance.tasks in
  Array.iter
    (fun t ->
      if t.Task.mem > capacity *. (1.0 +. 1e-12) then
        invalid_arg
          (Printf.sprintf "Dynamic_rules.run: task %d needs %g > capacity %g" t.Task.id
             t.Task.mem capacity))
    tasks;
  let kcap = capacity *. (1.0 +. 1e-12) in
  let crit = crit_of criterion in
  Candidates.with_index tasks (fun idx ->
      let entries = ref [] in
      while Candidates.size idx > 0 do
        match decide ?min_idle_filter st idx ~kcap crit None with
        | Some t ->
            entries := Sim.schedule_task st ~capacity t :: !entries;
            Candidates.remove idx t
        | None ->
            (* Nothing fits: wait for the next memory release. All tasks
               fit the capacity alone, so a release must exist. *)
            let advanced = Sim.advance_to_next_release st in
            assert advanced
      done;
      Schedule.make ~capacity (List.rev !entries))
