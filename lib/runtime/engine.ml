open Dt_core

type policy =
  | Dynamic of Dynamic_rules.criterion
  | Corrected of Corrected_rules.rule

let all_policies =
  List.map (fun c -> Dynamic c) Dynamic_rules.all
  @ List.map (fun r -> Corrected r) Corrected_rules.all

let policy_name = function
  | Dynamic c -> Dynamic_rules.name c
  | Corrected r -> Corrected_rules.name r

let policy_of_name s =
  let s = String.uppercase_ascii s in
  List.find_opt (fun p -> policy_name p = s) all_policies

type admission =
  | Accepted
  | Rejected_queue_full of int
  | Rejected_too_big of float

let admission_to_string = function
  | Accepted -> "accepted"
  | Rejected_queue_full n -> Printf.sprintf "queue full (limit %d)" n
  | Rejected_too_big c -> Printf.sprintf "task exceeds capacity %g" c

type arrival_item = { arr : float; task : Task.t }

let arrival_cmp a b =
  let c = Float.compare a.arr b.arr in
  if c <> 0 then c else Task.compare_id a.task b.task

(* Johnson's order over a set is (compute-intensive tasks by comm asc,
   id asc) followed by (the rest by comp desc, id asc); its head is
   therefore the top of one of two heaps, maintained incrementally under
   arrivals and removals instead of re-sorting the arrived suffix at
   every decision point. *)
let johnson1_cmp (a : Task.t) (b : Task.t) =
  let c = Float.compare a.Task.comm b.Task.comm in
  if c <> 0 then c else Task.compare_id a b

let johnson2_cmp (a : Task.t) (b : Task.t) =
  let c = Float.compare b.Task.comp a.Task.comp in
  if c <> 0 then c else Task.compare_id a b

type t = {
  capacity : float;
  kcap : float; (* capacity *. (1. +. 1e-12), the Sim.fits_now bound *)
  policy : policy;
  use_johnson : bool;
  queue_limit : int;
  st : Sim.state;
  future : arrival_item Iheap.t; (* not yet arrived, keyed by (arrival, id) *)
  j1 : Task.t Iheap.t; (* arrived compute-intensive tasks, (comm, id) *)
  j2 : Task.t Iheap.t; (* arrived comm-intensive tasks, (comp desc, id) *)
  mutable n_pending : int;
  mutable n_scheduled : int;
  mutable n_rejected : int;
  mutable entries : Schedule.entry list; (* scheduled so far, reversed *)
  mutable fresh : Schedule.entry list; (* since the last take, reversed *)
}

let create ?(policy = Corrected Corrected_rules.OOSCMR) ?(queue_limit = 65536)
    ~capacity () =
  if not (capacity > 0.0) then invalid_arg "Engine.create: capacity must be positive";
  (* [float_of_string "inf"] passes the positivity check above but makes
     every task fit; reject it explicitly *)
  if not (Float.is_finite capacity) then
    invalid_arg "Engine.create: capacity must be finite";
  if queue_limit <= 0 then invalid_arg "Engine.create: queue_limit must be positive";
  let task_id (t : Task.t) = t.Task.id in
  {
    capacity;
    kcap = capacity *. (1.0 +. 1e-12);
    policy;
    use_johnson = (match policy with Corrected _ -> true | Dynamic _ -> false);
    queue_limit;
    st = Sim.initial_state ();
    future = Iheap.create ~cmp:arrival_cmp ~id:(fun it -> it.task.Task.id) ();
    j1 = Iheap.create ~cmp:johnson1_cmp ~id:task_id ();
    j2 = Iheap.create ~cmp:johnson2_cmp ~id:task_id ();
    n_pending = 0;
    n_scheduled = 0;
    n_rejected = 0;
    entries = [];
    fresh = [];
  }

let capacity t = t.capacity
let policy t = t.policy
let queue_limit t = t.queue_limit
let pending t = t.n_pending
let scheduled t = t.n_scheduled
let rejected t = t.n_rejected
let now t = Sim.link_free_time t.st
let makespan t = if t.entries = [] then 0.0 else Sim.cpu_free_time t.st

let submit t ?(arrival = 0.0) (task : Task.t) =
  if Float.is_nan arrival || arrival < 0.0 || arrival = Float.infinity then
    invalid_arg "Engine.submit: arrival must be finite and non-negative";
  if task.Task.mem > t.capacity *. (1.0 +. 1e-12) then begin
    t.n_rejected <- t.n_rejected + 1;
    Rejected_too_big t.capacity
  end
  else if t.n_pending >= t.queue_limit then begin
    t.n_rejected <- t.n_rejected + 1;
    Rejected_queue_full t.queue_limit
  end
  else begin
    (* the indexed structures cannot hold two live tasks with one id (the
       old list code silently dropped both on removal); reject up front.
       Between drains every pending task is in the arrival heap. *)
    if Iheap.mem t.future task.Task.id then
      invalid_arg
        (Printf.sprintf "Engine.submit: duplicate pending task id %d" task.Task.id);
    Iheap.add t.future { arr = arrival; task };
    t.n_pending <- t.n_pending + 1;
    Accepted
  end

(* Move every task whose arrival has been reached into the arrived
   structures: the drain's candidate index and, under a Corrected policy,
   the Johnson head heaps. O(log n) per arrival instead of a list
   append. *)
let promote t cand =
  let time = Sim.link_free_time t.st in
  let rec loop () =
    match Iheap.peek t.future with
    | Some it when it.arr <= time ->
        ignore (Iheap.pop t.future);
        Candidates.add cand it.task;
        if t.use_johnson then
          if Task.is_compute_intensive it.task then Iheap.add t.j1 it.task
          else Iheap.add t.j2 it.task;
        loop ()
    | _ -> ()
  in
  loop ()

let take_task t cand (task : Task.t) =
  let entry = Sim.schedule_task t.st ~capacity:t.capacity task in
  Candidates.remove cand task;
  if t.use_johnson then
    if Task.is_compute_intensive task then Iheap.remove t.j1 task.Task.id
    else Iheap.remove t.j2 task.Task.id;
  t.entries <- entry :: t.entries;
  t.fresh <- entry :: t.fresh;
  t.n_pending <- t.n_pending - 1;
  t.n_scheduled <- t.n_scheduled + 1

(* One decision point: schedule a task, or advance virtual time to the
   next event, or report starvation (nothing submitted is left). *)
let rec step t cand =
  Sim.settle t.st;
  promote t cand;
  if Candidates.size cand = 0 then
    match Iheap.peek t.future with
    | None -> false
    | Some it ->
        Sim.advance_link_to t.st it.arr;
        step t cand
  else begin
    let fits (task : Task.t) = Sim.memory_in_use t.st +. task.Task.mem <= t.kcap in
    let select criterion =
      Candidates.select cand (Dynamic_rules.crit_of criterion)
        ~used:(Sim.memory_in_use t.st) ~kcap:t.kcap
        ~cpu_free:(Sim.cpu_free_time t.st) ~now:(Sim.link_free_time t.st)
    in
    let choice =
      match t.policy with
      | Dynamic criterion -> select criterion
      | Corrected rule -> (
          let head =
            match Iheap.peek t.j1 with Some _ as x -> x | None -> Iheap.peek t.j2
          in
          match head with
          | Some next when fits next -> Some next
          | _ -> select (Corrected_rules.criterion rule))
    in
    match choice with
    | Some task ->
        take_task t cand task;
        true
    | None -> (
        (* nothing arrived fits: advance to the earlier of the next
           memory release and the next arrival *)
        let next_arrival = Option.map (fun it -> it.arr) (Iheap.peek t.future) in
        match (Sim.next_release_time t.st, next_arrival) with
        | None, None ->
            (* every arrived task fits the capacity alone, so with no
               memory held something must fit *)
            assert false
        | Some r, Some a when a < r ->
            Sim.advance_link_to t.st a;
            step t cand
        | Some _, _ ->
            let advanced = Sim.advance_to_next_release t.st in
            assert advanced;
            step t cand
        | None, Some a ->
            Sim.advance_link_to t.st a;
            step t cand)
  end

let schedule t = Schedule.make ~capacity:t.capacity (List.rev t.entries)

(* The candidate index lives for one drain: it is built over every
   pending task, all absent, and [promote] marks each one present when it
   arrives. A drain schedules everything, so nothing is left in it. *)
let drain t =
  let pending = Array.of_list (List.map (fun it -> it.task) (Iheap.to_list t.future)) in
  Candidates.with_index ~present:false pending (fun cand ->
      while step t cand do
        ()
      done);
  schedule t

let take_new_entries t =
  let taken = List.rev t.fresh in
  t.fresh <- [];
  taken
