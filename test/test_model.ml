(* Unit tests for Task, Instance and Schedule. *)

open Dt_core

let check_float = Alcotest.(check (float 1e-9))

let task_defaults () =
  let t = Task.make ~id:3 ~comm:2.5 ~comp:1.0 () in
  check_float "mem defaults to comm" 2.5 t.Task.mem;
  Alcotest.(check string) "label" "t3" t.Task.label;
  Alcotest.(check bool) "comm intensive" false (Task.is_compute_intensive t);
  check_float "acceleration" 0.4 (Task.acceleration t)

let task_validation () =
  Alcotest.check_raises "negative comm" (Invalid_argument "Task.make: negative duration or memory")
    (fun () -> ignore (Task.make ~id:0 ~comm:(-1.0) ~comp:0.0 ()));
  let zero = Task.make ~id:0 ~comm:0.0 ~comp:0.0 () in
  Alcotest.(check bool) "zero comm counts as compute intensive" true
    (Task.is_compute_intensive zero);
  check_float "acceleration of zero comm is infinite" Float.infinity (Task.acceleration zero)

let instance_accessors () =
  let i = Instance.of_triples ~capacity:8.0 [ (3.0, 2.0); (1.0, 4.0); (2.0, 2.0) ] in
  Alcotest.(check int) "size" 3 (Instance.size i);
  check_float "sum comm" 6.0 (Instance.sum_comm i);
  check_float "sum comp" 8.0 (Instance.sum_comp i);
  check_float "serial" 14.0 (Instance.serial_makespan i);
  check_float "area bound" 8.0 (Instance.area_bound i);
  check_float "m_c" 3.0 (Instance.min_capacity i);
  Alcotest.(check bool) "feasible" true (Instance.feasible i);
  Alcotest.(check bool) "tight capacity infeasible" false
    (Instance.feasible (Instance.with_capacity i 2.0))

let instance_renumbers () =
  let t = Task.make ~id:42 ~comm:1.0 ~comp:1.0 () in
  let i = Instance.make ~capacity:2.0 [ t; t ] in
  Alcotest.(check (list int)) "ids" [ 0; 1 ]
    (List.map (fun (t : Task.t) -> t.Task.id) (Instance.task_list i))

let keep_ids_rejects_duplicates () =
  let t = Task.make ~id:7 ~comm:1.0 ~comp:1.0 () in
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Instance.make_keep_ids: duplicate task ids") (fun () ->
      ignore (Instance.make_keep_ids ~capacity:2.0 [ t; t ]))

let entry task s_comm s_comp = { Schedule.task; s_comm; s_comp }

let sched_of_triples ~capacity triples =
  Schedule.make ~capacity
    (List.map (fun (t, sc, sp) -> entry t sc sp) triples)

let t1 = Task.make ~id:0 ~comm:2.0 ~comp:3.0 ()
let t2 = Task.make ~id:1 ~comm:1.0 ~comp:2.0 ()

let schedule_metrics () =
  (* t1: comm [0,2) comp [2,5); t2: comm [2,3) comp [5,7) *)
  let s = sched_of_triples ~capacity:3.0 [ (t1, 0.0, 2.0); (t2, 2.0, 5.0) ] in
  Alcotest.(check bool) "valid" true (Schedule.check s = Ok ());
  check_float "makespan" 7.0 (Schedule.makespan s);
  check_float "comm idle" 0.0 (Schedule.comm_idle s);
  check_float "comp idle" 2.0 (Schedule.comp_idle s);
  check_float "overlap" 1.0 (Schedule.overlap s);
  check_float "peak memory" 3.0 (Schedule.peak_memory s);
  check_float "memory at 2.5" 3.0 (Schedule.memory_at s 2.5);
  check_float "memory at 5.5" 1.0 (Schedule.memory_at s 5.5);
  Alcotest.(check bool) "same order" true (Schedule.same_order s)

let schedule_violations () =
  let is_err s = match Schedule.check s with Ok () -> false | Error _ -> true in
  (* overlapping communications *)
  Alcotest.(check bool) "comm overlap" true
    (is_err (sched_of_triples ~capacity:10.0 [ (t1, 0.0, 2.0); (t2, 1.0, 5.0) ]));
  (* computation before data arrival *)
  Alcotest.(check bool) "data not ready" true
    (is_err (sched_of_triples ~capacity:10.0 [ (t1, 0.0, 1.5) ]));
  (* overlapping computations *)
  Alcotest.(check bool) "comp overlap" true
    (is_err (sched_of_triples ~capacity:10.0 [ (t1, 0.0, 2.0); (t2, 2.0, 4.0) ]));
  (* memory capacity exceeded: both tasks held during [2, 3) *)
  Alcotest.(check bool) "memory exceeded" true
    (is_err (sched_of_triples ~capacity:2.5 [ (t1, 0.0, 2.0); (t2, 2.0, 5.0) ]));
  (* negative time *)
  Alcotest.(check bool) "negative time" true
    (is_err (sched_of_triples ~capacity:10.0 [ (t1, -1.0, 2.0) ]))

let suite =
  [
    Alcotest.test_case "task defaults" `Quick task_defaults;
    Alcotest.test_case "task validation" `Quick task_validation;
    Alcotest.test_case "instance accessors" `Quick instance_accessors;
    Alcotest.test_case "instance renumbers ids" `Quick instance_renumbers;
    Alcotest.test_case "keep_ids rejects duplicates" `Quick keep_ids_rejects_duplicates;
    Alcotest.test_case "schedule metrics" `Quick schedule_metrics;
    Alcotest.test_case "schedule violations" `Quick schedule_violations;
  ]

(* The order Schedule.make sorts by, restated: (s_comm, s_comp, id). *)
let entry_order (a : Schedule.entry) (b : Schedule.entry) =
  compare
    (a.Schedule.s_comm, a.Schedule.s_comp, a.Schedule.task.Task.id)
    (b.Schedule.s_comm, b.Schedule.s_comp, b.Schedule.task.Task.id)

(* Entries with few distinct start times, so ties on s_comm and on
   (s_comm, s_comp) are common; ids are distinct. *)
let entries_gen =
  QCheck2.Gen.(
    let* n = int_range 0 30 in
    let time = map (fun x -> float_of_int x /. 2.0) (int_range 0 4) in
    let* starts = list_repeat n (pair time time) in
    let* ids = shuffle_l (List.init n Fun.id) in
    return
      (List.map2
         (fun (s_comm, s_comp) id ->
           { Schedule.task = Task.make ~id ~comm:0.0 ~comp:0.0 (); s_comm; s_comp })
         starts ids))

let same_array a b = Array.length a = Array.length b && Array.for_all2 ( == ) a b

let make_sorted_input =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"Schedule.make on sorted input = forced sort"
       entries_gen (fun entries ->
         let sorted = List.sort entry_order entries in
         let forced = Schedule.make ~capacity:1.0 entries
         and in_order = Schedule.make ~capacity:1.0 sorted in
         same_array in_order.Schedule.entries forced.Schedule.entries
         && same_array in_order.Schedule.entries (Array.of_list sorted)))

let make_sorts_zero_length_ties () =
  (* zero-length tasks all start at 0: only the ids order them, and an
     executor given them in descending id order emits them out of order *)
  let tasks = List.init 5 (fun k -> Task.make ~id:(4 - k) ~comm:0.0 ~comp:0.0 ()) in
  let ids s = List.map (fun (e : Schedule.entry) -> e.Schedule.task.Task.id) (Schedule.entries s) in
  Alcotest.(check (list int)) "executor output sorted by id" [ 0; 1; 2; 3; 4 ]
    (ids (Sim.run_order_exn ~capacity:1.0 tasks));
  let entries = List.map (fun task -> { Schedule.task; s_comm = 0.0; s_comp = 0.0 }) tasks in
  Alcotest.(check (list int)) "make sorts by id" [ 0; 1; 2; 3; 4 ]
    (ids (Schedule.make ~capacity:1.0 entries))

let suite =
  suite
  @ [
      make_sorted_input;
      Alcotest.test_case "zero-length ties reach the sort" `Quick make_sorts_zero_length_ties;
    ]
