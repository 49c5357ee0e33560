(* Evict-aware variants of the dynamic selection rules: the same greedy
   decision loop as [Dynamic_rules.run], but every decision is taken on
   the *effective* communication time — the task's [comm] minus the
   shares of its tiles currently resident in the unit's memory — and the
   memory fit allows on-demand eviction of unpinned tiles.

   Selection mirrors the flat rules' list scan expression for expression
   (including the 1e-12 idle tolerance), so on instances without tile
   annotations the whole run is bit-identical to the flat heuristics
   (QCheck-pinned in the test suite). The candidate scan is a plain list
   pass: effective communications change as tiles enter and leave
   residency, which defeats the static (comm, id) index of
   [Candidates]. *)

let name policy criterion =
  Printf.sprintf "%s+%s" (Dynamic_rules.name criterion) (Residency.policy_name policy)

let select ?(min_idle_filter = true) criterion ~cstate ~kcap ~cpu_free ~now candidates =
  let fitting =
    List.filter (fun t -> Sim.cached_fits_now cstate ~kcap t) candidates
  in
  let eff = Sim.effective_comm cstate in
  let idle t = Float.max 0.0 (now +. eff t -. cpu_free) in
  match fitting with
  | [] -> None
  | first :: _ ->
      let eligible =
        if not min_idle_filter then fitting
        else begin
          let min_idle =
            List.fold_left (fun acc t -> Float.min acc (idle t)) (idle first) fitting
          in
          List.filter (fun t -> idle t <= min_idle +. 1e-12) fitting
        end
      in
      let key =
        match criterion with
        | Dynamic_rules.LCMR -> eff
        | Dynamic_rules.SCMR -> fun t -> -.eff t
        | Dynamic_rules.MAMR ->
            fun t ->
              let c = eff t in
              if c = 0.0 then Float.infinity else t.Task.comp /. c
      in
      let better a b =
        let c = Float.compare (key a) (key b) in
        if c > 0 then true else if c < 0 then false else Task.compare_id a b < 0
      in
      let best = function
        | [] -> None
        | t :: rest ->
            Some (List.fold_left (fun a b -> if better b a then b else a) t rest)
      in
      best eligible

let run ?policy ?cstate ?min_idle_filter criterion instance =
  let capacity = instance.Instance.capacity in
  let cs = match cstate with Some c -> c | None -> Sim.cached_state ?policy () in
  let tasks = Instance.task_list instance in
  List.iter
    (fun t ->
      if t.Task.mem > capacity *. (1.0 +. 1e-12) then
        invalid_arg
          (Printf.sprintf "Cached_rules.run: task %d needs %g > capacity %g" t.Task.id
             t.Task.mem capacity))
    tasks;
  let kcap = capacity *. (1.0 +. 1e-12) in
  let remaining = ref tasks in
  let entries = ref [] in
  while !remaining <> [] do
    Sim.settle_cached cs;
    match
      select ?min_idle_filter criterion ~cstate:cs ~kcap
        ~cpu_free:(Sim.cached_cpu_free cs) ~now:(Sim.cached_link_free cs) !remaining
    with
    | Some t ->
        entries := Sim.schedule_task_cached cs ~capacity t :: !entries;
        remaining := List.filter (fun u -> u.Task.id <> t.Task.id) !remaining
    | None ->
        (* Nothing fits: wait for the next completion or write-back. All
           tasks fit the capacity alone, so an event must exist. *)
        let advanced = Sim.cached_advance_to_next_event cs in
        assert advanced
  done;
  (Schedule.make ~capacity (List.rev !entries), Residency.stats (Sim.cached_residency cs))
