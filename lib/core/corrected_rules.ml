type rule =
  | OOLCMR
  | OOSCMR
  | OOMAMR

let all = [ OOLCMR; OOSCMR; OOMAMR ]

let name = function
  | OOLCMR -> "OOLCMR"
  | OOSCMR -> "OOSCMR"
  | OOMAMR -> "OOMAMR"

let criterion = function
  | OOLCMR -> Dynamic_rules.LCMR
  | OOSCMR -> Dynamic_rules.SCMR
  | OOMAMR -> Dynamic_rules.MAMR

(* The static order is held in an array with a head cursor that skips
   scheduled tasks (O(n) total head advances), and a Candidates index
   whose membership marks what is scheduled lets the correction step
   select in O(log n) instead of re-filtering the list: O(n log n) per
   run where the list version was O(n²). Without [?order] the index is
   built over [instance.tasks], the array the dynamic rules index too, so
   a portfolio reuses one index build (selections break ties by id, not
   by slot, so the slot order does not matter). Bit-identical to the
   frozen reference (property-tested). *)
let run ?state ?order rule instance =
  let capacity = instance.Instance.capacity in
  let st = match state with Some s -> s | None -> Sim.initial_state () in
  let initial =
    match order with Some o -> o | None -> Johnson.order (Instance.task_list instance)
  in
  List.iter
    (fun t ->
      if t.Task.mem > capacity *. (1.0 +. 1e-12) then
        invalid_arg
          (Printf.sprintf "Corrected_rules.run: task %d needs %g > capacity %g" t.Task.id
             t.Task.mem capacity))
    initial;
  let kcap = capacity *. (1.0 +. 1e-12) in
  let crit = Dynamic_rules.crit_of (criterion rule) in
  let arr = Array.of_list initial in
  let indexed = match order with Some _ -> arr | None -> instance.Instance.tasks in
  Candidates.with_index indexed (fun idx ->
      let head = ref 0 in
      let entries = ref [] in
      while Candidates.size idx > 0 do
        while not (Candidates.mem idx arr.(!head).Task.id) do
          incr head
        done;
        match Dynamic_rules.decide st idx ~kcap crit (Some arr.(!head)) with
        | Some t ->
            entries := Sim.schedule_task st ~capacity t :: !entries;
            Candidates.remove idx t
        | None ->
            let advanced = Sim.advance_to_next_release st in
            assert advanced
      done;
      Schedule.make ~capacity (List.rev !entries))
