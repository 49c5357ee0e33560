type criterion =
  | LCMR
  | SCMR
  | MAMR

let all = [ LCMR; SCMR; MAMR ]

let name = function
  | LCMR -> "LCMR"
  | SCMR -> "SCMR"
  | MAMR -> "MAMR"

(* Larger score wins; ties by smaller id. *)
let score = function
  | LCMR -> fun t -> t.Task.comm
  | SCMR -> fun t -> -.t.Task.comm
  | MAMR -> Task.acceleration

let better key a b =
  let c = Float.compare (key a) (key b) in
  if c > 0 then true else if c < 0 then false else Task.compare_id a b < 0

let select ?(min_idle_filter = true) criterion ~cpu_free ~now candidates =
  let idle t = Float.max 0.0 (now +. t.Task.comm -. cpu_free) in
  match candidates with
  | [] -> None
  | first :: _ ->
      let eligible =
        if not min_idle_filter then candidates
        else begin
          let min_idle =
            List.fold_left (fun acc t -> Float.min acc (idle t)) (idle first) candidates
          in
          List.filter (fun t -> idle t <= min_idle +. 1e-12) candidates
        end
      in
      let key = score criterion in
      let best = function
        | [] -> None
        | t :: rest -> Some (List.fold_left (fun a b -> if better key b a then b else a) t rest)
      in
      best eligible

let crit_of = function
  | LCMR -> Candidates.Lcmr
  | SCMR -> Candidates.Scmr
  | MAMR -> Candidates.Mamr

(* The decision loop keeps the instance in a Candidates index built once
   per run (flat segment trees over the task slots), so each step costs
   O(log n), with no allocation in the index, instead of re-filtering and
   re-scanning the remaining list: O(n log n) per run where the list
   version was O(n²). Selections are bit-identical to [select] on the
   filtered list (property-tested against the frozen reference in the
   test suite). *)
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
        Sim.settle st;
        match
          Candidates.select ?min_idle_filter idx crit ~used:(Sim.memory_in_use st) ~kcap
            ~cpu_free:(Sim.cpu_free_time st) ~now:(Sim.link_free_time st)
        with
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
