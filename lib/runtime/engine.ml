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

(* The Johnson head of a drain. Its n tasks are sorted once into
   Johnson's order. While some are still to arrive, the arrived,
   unscheduled ones are marked in a min-tree over their ranks: leaf n + r
   holds r while rank r is marked and [max_int] otherwise, node i holds
   the min of nodes 2i and 2i + 1, so the root, node 1, is the head's
   rank. A task a correction took stays marked until it reaches the
   root, where [head] finds it absent from the index and clears it. After
   the last arrival the head only moves forward: a cursor from the root
   skips the absent tasks, as the offline rules do. *)
type johnson = { by_rank : Task.t array; node : int array; mutable cursor : int }

let set_rank j r v =
  let i = ref ((Array.length j.node / 2) + r) in
  j.node.(!i) <- v;
  while !i > 1 do
    i := !i lsr 1;
    j.node.(!i) <- Int.min j.node.(2 * !i) j.node.((2 * !i) + 1)
  done

(* Mark an arriving task, found by binary search in Johnson's order (a
   total order on the drain's distinct ids); the last arrival hands over
   to the cursor. *)
let arrive j task ~last =
  let lo = ref 0 and hi = ref (Array.length j.by_rank) in
  while !lo < !hi do
    let m = (!lo + !hi) lsr 1 in
    if Johnson.compare j.by_rank.(m) task < 0 then lo := m + 1 else hi := m
  done;
  set_rank j !lo !lo;
  if last then j.cursor <- j.node.(1)

(* The head over a drain's tasks of which the first [k] have arrived:
   the cursor at once when all have, else the tree with those k marked. *)
let johnson_head tasks k =
  let n = Array.length tasks in
  let by_rank = Array.copy tasks in
  Array.stable_sort Johnson.compare by_rank;
  if k = n then { by_rank; node = [||]; cursor = 0 }
  else begin
    let j = { by_rank; node = Array.make (2 * n) max_int; cursor = -1 } in
    for s = 0 to k - 1 do
      arrive j tasks.(s) ~last:false
    done;
    j
  end

(* The head, while some arrived task is unscheduled. *)
let rec head j cand =
  if j.cursor >= 0 then begin
    while not (Candidates.mem cand j.by_rank.(j.cursor).Task.id) do
      j.cursor <- j.cursor + 1
    done;
    j.by_rank.(j.cursor)
  end
  else
    let task = j.by_rank.(j.node.(1)) in
    if Candidates.mem cand task.Task.id then task
    else begin
      set_rank j j.node.(1) max_int;
      head j cand
    end

(* Fillers for the unused tails of the growable arrays. *)
let no_task = Task.make ~id:(-1) ~comm:0.0 ~comp:0.0 ()
let no_entry = { Schedule.task = no_task; s_comm = 0.0; s_comp = 0.0 }

type t = {
  capacity : float;
  kcap : float; (* capacity *. (1. +. 1e-12), the Sim.fits_now bound *)
  policy : policy;
  crit : Candidates.crit;
  queue_limit : int;
  st : Sim.state;
  waiting : (int, unit) Hashtbl.t; (* the pending ids *)
  mutable p_task : Task.t array; (* the pending tasks, in submission order *)
  mutable p_arr : float array; (* their arrivals *)
  mutable n_pending : int;
  mutable n_rejected : int;
  mutable entries : Schedule.entry array; (* in scheduling order *)
  mutable n_scheduled : int;
  mutable taken : int; (* entries already returned by take_new_entries *)
}

let create ?(policy = Corrected Corrected_rules.OOSCMR) ?(queue_limit = 65536)
    ~capacity () =
  if not (capacity > 0.0) then invalid_arg "Engine.create: capacity must be positive";
  (* [float_of_string "inf"] passes the positivity check above but makes
     every task fit; reject it explicitly *)
  if not (Float.is_finite capacity) then
    invalid_arg "Engine.create: capacity must be finite";
  if queue_limit <= 0 then invalid_arg "Engine.create: queue_limit must be positive";
  let criterion = match policy with Dynamic c -> c | Corrected r -> Corrected_rules.criterion r in
  {
    capacity;
    kcap = capacity *. (1.0 +. 1e-12);
    policy;
    crit = Dynamic_rules.crit_of criterion;
    queue_limit;
    st = Sim.initial_state ();
    waiting = Hashtbl.create 64;
    p_task = [||];
    p_arr = [||];
    n_pending = 0;
    n_rejected = 0;
    entries = [||];
    n_scheduled = 0;
    taken = 0;
  }

let capacity t = t.capacity
let policy t = t.policy
let queue_limit t = t.queue_limit
let pending t = t.n_pending
let scheduled t = t.n_scheduled
let rejected t = t.n_rejected
let now t = Sim.link_free_time t.st
let makespan t = if t.n_scheduled = 0 then 0.0 else Sim.cpu_free_time t.st

(* [a] with room for [need] elements, at least doubled when it grows. *)
let room a need fill =
  if need <= Array.length a then a
  else Array.append a (Array.make (max need (2 * Array.length a) - Array.length a) fill)

let submit t ?(arrival = 0.0) (task : Task.t) =
  if Float.is_nan arrival || arrival < 0.0 || arrival = Float.infinity then
    invalid_arg "Engine.submit: arrival must be finite and non-negative";
  if task.Task.mem > t.kcap then begin
    t.n_rejected <- t.n_rejected + 1;
    Rejected_too_big t.capacity
  end
  else if t.n_pending >= t.queue_limit then begin
    t.n_rejected <- t.n_rejected + 1;
    Rejected_queue_full t.queue_limit
  end
  else begin
    (* a drain's candidate index cannot hold two tasks with one id (the
       old list code silently dropped both on removal); reject up front *)
    if Hashtbl.mem t.waiting task.Task.id then
      invalid_arg
        (Printf.sprintf "Engine.submit: duplicate pending task id %d" task.Task.id);
    Hashtbl.replace t.waiting task.Task.id ();
    let n = t.n_pending in
    t.p_task <- room t.p_task (n + 1) no_task;
    t.p_arr <- room t.p_arr (n + 1) 0.0;
    t.p_task.(n) <- task;
    t.p_arr.(n) <- arrival;
    t.n_pending <- n + 1;
    Accepted
  end

(* The pending tasks and their arrivals, with the [k] that have arrived
   at [time] first: sorted by (arrival, id), unless all have (the
   arrivals are then never read). *)
let arrival_order t time =
  let n = t.n_pending and task = t.p_task and arr = t.p_arr in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if arr.(i) <= time then incr k
  done;
  if !k = n then (Array.sub task 0 n, arr, n)
  else begin
    let order = Array.init n Fun.id in
    Array.stable_sort
      (fun i j ->
        let c = Float.compare arr.(i) arr.(j) in
        if c <> 0 then c else Task.compare_id task.(i) task.(j))
      order;
    (Array.map (Array.get task) order, Array.map (Array.get arr) order, !k)
  end

let take t cand (task : Task.t) =
  let entry = Sim.schedule_task t.st ~capacity:t.capacity task in
  Candidates.remove cand task;
  t.entries.(t.n_scheduled) <- entry;
  t.n_scheduled <- t.n_scheduled + 1

(* A drain is the offline decision loop over the arrived prefix of the
   pending set: the candidate index and the Johnson head start with the
   tasks already arrived, a cursor over the rest adds each one as virtual
   time reaches it, and every decision is [Dynamic_rules.decide]'s. With
   nothing arrived the link waits for the next arrival; with nothing
   fitting, for the earlier of the next release and the next arrival. *)
let schedule_pending t =
  let n = t.n_pending in
  if n > 0 then begin
    let tasks, arr, k = arrival_order t (Sim.link_free_time t.st) in
    t.n_pending <- 0;
    Hashtbl.clear t.waiting;
    t.entries <- room t.entries (t.n_scheduled + n) no_entry;
    Candidates.with_index ~present:k tasks (fun cand ->
        let j = match t.policy with Corrected _ -> Some (johnson_head tasks k) | Dynamic _ -> None in
        let next = ref k in
        while !next < n || Candidates.size cand > 0 do
          while !next < n && arr.(!next) <= Sim.link_free_time t.st do
            Candidates.add cand tasks.(!next);
            (match j with Some j -> arrive j tasks.(!next) ~last:(!next = n - 1) | None -> ());
            incr next
          done;
          if Candidates.size cand = 0 then Sim.advance_link_to t.st arr.(!next)
          else
            let h = match j with Some j -> Some (head j cand) | None -> None in
            match Dynamic_rules.decide t.st cand ~kcap:t.kcap t.crit h with
            | Some task -> take t cand task
            | None -> (
                match Sim.next_release_time t.st with
                | Some r when not (!next < n && arr.(!next) < r) ->
                    ignore (Sim.advance_to_next_release t.st)
                | _ ->
                    (* every arrived task fits the capacity alone, so
                       with no memory held something must fit *)
                    assert (!next < n);
                    Sim.advance_link_to t.st arr.(!next))
        done)
  end

let schedule t = Schedule.of_array ~capacity:t.capacity (Array.sub t.entries 0 t.n_scheduled)

let drain t =
  schedule_pending t;
  schedule t

let take_new_entries t =
  let fresh = List.init (t.n_scheduled - t.taken) (fun i -> t.entries.(t.taken + i)) in
  t.taken <- t.n_scheduled;
  fresh
