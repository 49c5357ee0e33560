(* Frozen pre-rewrite implementations of the decision loops (dynamic
   rules, corrected rules, online engine) and of BP's First-Fit packing,
   kept verbatim. Two users:
   - test/test_equiv.ml pins the rewritten O(n log n) paths to
     bit-identical schedules (and BP to identical bins) against these
     copies with QCheck properties;
   - bench/core_scaling.ml times the decision loops as the "before"
     numbers the rewritten paths are compared against.
   Do not "fix" or modernise this file — its value is that it does not
   change. *)

open Dt_core

(* Old Dynamic_rules: full re-filter and re-scan of the remaining list at
   every decision step. *)
module Dyn = struct
  let score = function
    | Dynamic_rules.LCMR -> fun (t : Task.t) -> t.Task.comm
    | Dynamic_rules.SCMR -> fun (t : Task.t) -> -.t.Task.comm
    | Dynamic_rules.MAMR -> Task.acceleration

  let better key a b =
    let c = Float.compare (key a) (key b) in
    if c > 0 then true else if c < 0 then false else Task.compare_id a b < 0

  let select ?(min_idle_filter = true) criterion ~cpu_free ~now candidates =
    let idle (t : Task.t) = Float.max 0.0 (now +. t.Task.comm -. cpu_free) in
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
          | t :: rest ->
              Some (List.fold_left (fun a b -> if better key b a then b else a) t rest)
        in
        best eligible

  let run ?state ?min_idle_filter criterion instance =
    let capacity = instance.Instance.capacity in
    let st = match state with Some s -> s | None -> Sim.initial_state () in
    let remaining = ref (Instance.task_list instance) in
    let entries = ref [] in
    let rec step () =
      match !remaining with
      | [] -> ()
      | _ ->
          let candidates =
            List.filter (fun (t : Task.t) -> Sim.fits_now st ~capacity t.Task.mem) !remaining
          in
          (match
             select ?min_idle_filter criterion ~cpu_free:(Sim.cpu_free_time st)
               ~now:(Sim.link_free_time st) candidates
           with
          | Some t ->
              entries := Sim.schedule_task st ~capacity t :: !entries;
              remaining := List.filter (fun (u : Task.t) -> u.Task.id <> t.Task.id) !remaining
          | None ->
              let advanced = Sim.advance_to_next_release st in
              assert advanced);
          step ()
    in
    step ();
    Schedule.make ~capacity (List.rev !entries)
end

(* Old Bin_packing.bins: First-Fit scanning a list of open bins, a new
   bin appended with [@]; O(bins) per task. *)
module Bp = struct
  type bin = { mutable free : float; mutable members : Task.t list }

  let bins ~capacity tasks =
    let open_bins = ref [] in
    let place t =
      if t.Task.mem > capacity *. (1.0 +. 1e-12) then
        invalid_arg
          (Printf.sprintf "Bin_packing: task %d needs %g > capacity %g" t.Task.id t.Task.mem
             capacity);
      let rec fit = function
        | [] ->
            open_bins := !open_bins @ [ { free = capacity -. t.Task.mem; members = [ t ] } ]
        | b :: rest ->
            if t.Task.mem <= b.free +. (1e-12 *. Float.max 1.0 capacity) then begin
              b.free <- b.free -. t.Task.mem;
              b.members <- t :: b.members
            end
            else fit rest
      in
      fit !open_bins
    in
    List.iter place tasks;
    List.map (fun b -> List.rev b.members) !open_bins
end

(* Old Corrected_rules: pending kept as a list, head by pattern match,
   corrections re-filter the whole list. *)
module Cor = struct
  let run ?state ?order rule instance =
    let capacity = instance.Instance.capacity in
    let st = match state with Some s -> s | None -> Sim.initial_state () in
    let initial =
      match order with Some o -> o | None -> Johnson.order (Instance.task_list instance)
    in
    let pending = ref initial in
    let entries = ref [] in
    let take (t : Task.t) =
      entries := Sim.schedule_task st ~capacity t :: !entries;
      pending := List.filter (fun (u : Task.t) -> u.Task.id <> t.Task.id) !pending
    in
    let rec step () =
      match !pending with
      | [] -> ()
      | next :: _ ->
          if Sim.fits_now st ~capacity next.Task.mem then take next
          else begin
            let candidates =
              List.filter (fun (t : Task.t) -> Sim.fits_now st ~capacity t.Task.mem) !pending
            in
            match
              Dyn.select (Corrected_rules.criterion rule)
                ~cpu_free:(Sim.cpu_free_time st) ~now:(Sim.link_free_time st) candidates
            with
            | Some t -> take t
            | None ->
                let advanced = Sim.advance_to_next_release st in
                assert advanced
          end;
          step ()
    in
    step ();
    Schedule.make ~capacity (List.rev !entries)
end

(* Old online engine: future as a sorted assoc list (insertion sort on
   submit), arrived as a list (append on promote, filter on take), and a
   full Johnson re-sort of the arrived suffix at every decision point. *)
module Eng = struct
  type t = {
    capacity : float;
    policy : Dt_runtime.Engine.policy;
    st : Sim.state;
    mutable future : (float * Task.t) list;
    mutable arrived : Task.t list;
    mutable entries : Schedule.entry list;
  }

  let create ~policy ~capacity () =
    { capacity; policy; st = Sim.initial_state (); future = []; arrived = []; entries = [] }

  let submit t ~arrival (task : Task.t) =
    let rec insert = function
      | [] -> [ (arrival, task) ]
      | ((a, u) :: rest) as l ->
          if a > arrival || (a = arrival && Task.compare_id u task > 0) then
            (arrival, task) :: l
          else (a, u) :: insert rest
    in
    t.future <- insert t.future

  let promote t =
    let time = Sim.link_free_time t.st in
    let rec split acc = function
      | (a, task) :: rest when a <= time -> split (task :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let ready, future = split [] t.future in
    if ready <> [] then begin
      t.future <- future;
      t.arrived <- t.arrived @ ready
    end

  let take_task t (task : Task.t) =
    let entry = Sim.schedule_task t.st ~capacity:t.capacity task in
    t.arrived <- List.filter (fun (u : Task.t) -> u.Task.id <> task.Task.id) t.arrived;
    t.entries <- entry :: t.entries

  let rec step t =
    promote t;
    match (t.arrived, t.future) with
    | [], [] -> false
    | [], (a, _) :: _ ->
        Sim.advance_link_to t.st a;
        step t
    | arrived, future -> (
        let fits (task : Task.t) =
          Sim.fits_now t.st ~capacity:t.capacity task.Task.mem
        in
        let select criterion candidates =
          Dyn.select criterion ~cpu_free:(Sim.cpu_free_time t.st)
            ~now:(Sim.link_free_time t.st) candidates
        in
        let choice =
          match t.policy with
          | Dt_runtime.Engine.Dynamic criterion -> select criterion (List.filter fits arrived)
          | Dt_runtime.Engine.Corrected rule -> (
              match Johnson.order arrived with
              | next :: _ when fits next -> Some next
              | _ ->
                  select (Corrected_rules.criterion rule) (List.filter fits arrived))
        in
        match choice with
        | Some task ->
            take_task t task;
            true
        | None -> (
            let next_arrival = match future with [] -> None | (a, _) :: _ -> Some a in
            match (Sim.next_release_time t.st, next_arrival) with
            | None, None -> assert false
            | Some r, Some a when a < r ->
                Sim.advance_link_to t.st a;
                step t
            | Some _, _ ->
                let advanced = Sim.advance_to_next_release t.st in
                assert advanced;
                step t
            | None, Some a ->
                Sim.advance_link_to t.st a;
                step t))

  let drain t =
    while step t do
      ()
    done;
    Schedule.make ~capacity:t.capacity (List.rev t.entries)
end
