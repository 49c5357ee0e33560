(* Tests of the eager executors: unit scenarios plus the structural
   property that every produced schedule is valid. *)

open Dt_core

let check_float = Alcotest.(check (float 1e-9))

let no_memory_pressure () =
  (* capacity never binds: classic pipelined behaviour *)
  let tasks =
    [ Task.make ~id:0 ~comm:2.0 ~comp:3.0 (); Task.make ~id:1 ~comm:1.0 ~comp:2.0 () ]
  in
  let s = Sim.run_order_exn ~capacity:100.0 tasks in
  check_float "makespan" 7.0 (Schedule.makespan s);
  Alcotest.(check bool) "valid" true (Schedule.check s = Ok ())

let memory_stalls_link () =
  (* capacity 3: the second transfer (mem 2) must wait for the first
     task's computation to finish at t = 5 *)
  let tasks =
    [ Task.make ~id:0 ~comm:2.0 ~comp:3.0 (); Task.make ~id:1 ~comm:2.0 ~comp:1.0 () ]
  in
  let s = Sim.run_order_exn ~capacity:3.0 tasks in
  let e2 = List.nth (Schedule.entries s) 1 in
  check_float "second comm delayed" 5.0 e2.Schedule.s_comm;
  check_float "makespan" 8.0 (Schedule.makespan s)

let too_big_task () =
  let tasks = [ Task.make ~id:0 ~comm:5.0 ~comp:1.0 () ] in
  match Sim.run_order ~capacity:4.0 tasks with
  | Error t -> Alcotest.(check int) "offending task" 0 t.Task.id
  | Ok _ -> Alcotest.fail "expected capacity error"

let state_roundtrip () =
  let st = Sim.initial_state () in
  ignore (Sim.schedule_task st ~capacity:10.0 (Task.make ~id:0 ~comm:2.0 ~comp:3.0 ()));
  let link_free, cpu_free, held = Sim.dump_state st in
  let st' = Sim.restore_state ~link_free ~cpu_free ~held in
  check_float "link" (Sim.link_free_time st) (Sim.link_free_time st');
  check_float "cpu" (Sim.cpu_free_time st) (Sim.cpu_free_time st');
  check_float "mem" (Sim.memory_in_use st) (Sim.memory_in_use st')

let fits_now_processes_releases () =
  let st = Sim.initial_state () in
  let t0 = Task.make ~id:0 ~comm:2.0 ~comp:1.0 () in
  ignore (Sim.schedule_task st ~capacity:3.0 t0);
  (* link free at 2; t0 computes in [2, 3) holding 2. A task of memory 2
     does not fit at t = 2. *)
  Alcotest.(check bool) "does not fit during computation" false
    (Sim.fits_now st ~capacity:3.0 2.0);
  Alcotest.(check bool) "advance" true (Sim.advance_to_next_release st);
  Alcotest.(check bool) "fits after release" true (Sim.fits_now st ~capacity:3.0 2.0);
  check_float "link moved to release" 3.0 (Sim.link_free_time st)

let dual_matches_single_when_same_orders () =
  let tasks =
    [
      Task.make ~id:0 ~comm:2.0 ~comp:3.0 ();
      Task.make ~id:1 ~comm:4.0 ~comp:1.0 ();
      Task.make ~id:2 ~comm:1.0 ~comp:2.0 ();
    ]
  in
  let single = Sim.run_order_exn ~capacity:5.0 tasks in
  match Sim.run_two_orders ~capacity:5.0 ~comm_order:tasks tasks with
  | Ok dual ->
      check_float "same makespan" (Schedule.makespan single) (Schedule.makespan dual)
  | Error _ -> Alcotest.fail "dual-order run failed"

let dual_detects_deadlock () =
  (* capacity 3: t0 (mem 3) holds everything; t1's transfer cannot start,
     yet t1 computes first in the computation order: deadlock. *)
  let t0 = Task.make ~id:0 ~comm:2.0 ~comp:1.0 ~mem:3.0 ()
  and t1 = Task.make ~id:1 ~comm:1.0 ~comp:1.0 ~mem:1.0 () in
  match Sim.run_two_orders ~capacity:3.0 ~comm_order:[ t0; t1 ] [ t1; t0 ] with
  | Error (Sim.Deadlock t) -> Alcotest.(check int) "stuck task" 1 t.Task.id
  | Error (Sim.Too_big _) -> Alcotest.fail "unexpected Too_big"
  | Ok _ -> Alcotest.fail "expected deadlock"

let prop_run_order_valid =
  Generators.prop_test ~name:"run_order produces valid schedules"
    (Generators.instance_gen ~max_size:10 ())
    (fun instance ->
      let s =
        Sim.run_order_exn ~capacity:instance.Instance.capacity (Instance.task_list instance)
      in
      Generators.check_feasible "run_order" instance s
      && Schedule.size s = Instance.size instance)

let prop_dual_order_valid =
  Generators.prop_test ~name:"run_two_orders produces valid schedules"
    (Generators.instance_gen ~max_size:7 ())
    (fun instance ->
      let tasks = Instance.task_list instance in
      let rev = List.rev tasks in
      match Sim.run_two_orders ~capacity:instance.Instance.capacity ~comm_order:tasks rev with
      | Ok s -> Generators.check_feasible "run_two_orders" instance s
      | Error (Sim.Deadlock _) -> true (* legitimate for adversarial order pairs *)
      | Error (Sim.Too_big _) -> QCheck2.Test.fail_reportf "unexpected Too_big")

let prop_capacity_relaxation_never_hurts =
  Generators.prop_test ~name:"larger capacity never increases run_order makespan"
    (Generators.instance_gen ~max_size:10 ())
    (fun instance ->
      let tasks = Instance.task_list instance in
      let tight = Sim.run_order_exn ~capacity:instance.Instance.capacity tasks in
      let loose = Sim.run_order_exn ~capacity:(2.0 *. instance.Instance.capacity) tasks in
      Schedule.makespan loose <= Schedule.makespan tight +. 1e-9)

let suite =
  [
    Alcotest.test_case "no memory pressure" `Quick no_memory_pressure;
    Alcotest.test_case "memory stalls the link" `Quick memory_stalls_link;
    Alcotest.test_case "oversized task rejected" `Quick too_big_task;
    Alcotest.test_case "state dump/restore" `Quick state_roundtrip;
    Alcotest.test_case "fits_now and releases" `Quick fits_now_processes_releases;
    Alcotest.test_case "dual = single on equal orders" `Quick dual_matches_single_when_same_orders;
    Alcotest.test_case "dual-order deadlock" `Quick dual_detects_deadlock;
    prop_run_order_valid;
    prop_dual_order_valid;
    prop_capacity_relaxation_never_hurts;
  ]

let copied_state_is_independent () =
  let st = Sim.initial_state () in
  ignore (Sim.schedule_task st ~capacity:10.0 (Task.make ~id:0 ~comm:2.0 ~comp:3.0 ()));
  let snapshot = Sim.copy_state st in
  ignore (Sim.schedule_task st ~capacity:10.0 (Task.make ~id:1 ~comm:1.0 ~comp:1.0 ()));
  (* mutating the original must not affect the copy *)
  check_float "copy link time" 2.0 (Sim.link_free_time snapshot);
  check_float "copy cpu time" 5.0 (Sim.cpu_free_time snapshot);
  check_float "original advanced" 3.0 (Sim.link_free_time st)

let lp_boundary_respects_held_memory () =
  (* one unfinished task holds 4 units until t = 10 under capacity 5: the
     next chunk's first transfer of memory 3 cannot start before 10 —
     whether the MILP returns a schedule or defers to the (identical)
     eager incumbent *)
  let boundary =
    { Lp_schedule.link_free = 2.0; cpu_free = 2.0; held = [ (10.0, 4.0) ] }
  in
  let chunk = [ Task.make ~id:0 ~comm:3.0 ~comp:1.0 () ] in
  (match Lp_schedule.solve_chunk ~boundary ~capacity:5.0 chunk with
  | None -> () (* nothing beats the eager incumbent: fine *)
  | Some [ e ] ->
      Alcotest.(check bool) "waits for the release" true (e.Schedule.s_comm >= 10.0 -. 1e-6)
  | Some _ -> Alcotest.fail "one entry expected");
  let instance = Instance.make_keep_ids ~capacity:5.0 chunk in
  let sched = Lp_schedule.run ~boundary ~k:3 instance in
  match Schedule.entries sched with
  | [ e ] ->
      Alcotest.(check bool) "run waits for the release" true
        (e.Schedule.s_comm >= 10.0 -. 1e-6)
  | _ -> Alcotest.fail "one entry expected"

let suite =
  suite
  @ [
      Alcotest.test_case "copied state is independent" `Quick copied_state_is_independent;
      Alcotest.test_case "lp boundary holds memory" `Quick lp_boundary_respects_held_memory;
    ]

(* comm 1, comp 10, mem 1 under a large capacity: the link runs ahead of
   the unit, so releases pile up at 11, 21, 31, ... *)
let backlog_task id = Task.make ~id ~comm:1.0 ~comp:10.0 ()

let schedule_backlog st ids =
  List.iter (fun id -> ignore (Sim.schedule_task st ~capacity:1000.0 (backlog_task id))) ids

(* 10 pending releases; 5 of them (at 11 .. 51) consumed, then 20 more
   pushed from t = 51 while the release at 61 is consumed on the way:
   the ring's tail wraps past slot 15 before the 17th pending release
   forces it to grow, and 24 remain pending. *)
let wrapped_state () =
  let st = Sim.initial_state () in
  schedule_backlog st (List.init 10 Fun.id);
  Sim.advance_link_to st 51.0;
  Sim.settle st;
  schedule_backlog st (List.init 20 (fun k -> 10 + k));
  st

let held_bits (_, _, held) = List.map (fun (t, m) -> (Int64.bits_of_float t, Int64.bits_of_float m)) held

let dump_bits st =
  let link, cpu, _ = Sim.dump_state st in
  (Int64.bits_of_float link, Int64.bits_of_float cpu, held_bits (Sim.dump_state st))

let ring_wraps_then_grows () =
  let st = wrapped_state () in
  let _, _, held = Sim.dump_state st in
  (* task k computes in [10k + 1, 10k + 11); tasks 6 .. 29 still hold *)
  let expected = List.init 24 (fun k -> (float_of_int ((10 * (k + 6)) + 11), 1.0)) in
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "pending releases in order" expected held;
  check_float "memory held" 24.0 (Sim.memory_in_use st);
  Alcotest.(check (option (float 0.0))) "next release" (Some 71.0) (Sim.next_release_time st);
  let times = ref [] in
  while Sim.advance_to_next_release st do
    times := Sim.link_free_time st :: !times
  done;
  Alcotest.(check (list (float 0.0))) "consumed in order" (List.map fst expected) (List.rev !times);
  check_float "all memory released" 0.0 (Sim.memory_in_use st)

let copies_stay_independent () =
  let st = wrapped_state () in
  let before = dump_bits st in
  let copy = Sim.copy_state st in
  (* advance the copy, with tasks unlike the original's later ones: the
     original must not move *)
  List.iter
    (fun id -> ignore (Sim.schedule_task copy ~capacity:1000.0 (Task.make ~id ~comm:1.0 ~comp:3.0 ())))
    [ 100; 101 ];
  ignore (Sim.advance_to_next_release copy);
  Alcotest.(check bool) "original untouched by the copy" true (dump_bits st = before);
  let copy_before = dump_bits copy in
  (* advance the original: the copy must not move *)
  schedule_backlog st (List.init 20 (fun k -> 200 + k));
  Sim.advance_link_to st 400.0;
  Sim.settle st;
  Alcotest.(check bool) "copy untouched by the original" true (dump_bits copy = copy_before);
  Alcotest.(check bool) "the two diverged" true (dump_bits st <> dump_bits copy)

let dump_restore_roundtrip () =
  List.iter
    (fun st ->
      let link_free, cpu_free, held = Sim.dump_state st in
      let st' = Sim.restore_state ~link_free ~cpu_free ~held in
      Alcotest.(check bool) "same dump" true (dump_bits st' = dump_bits st);
      Alcotest.(check int64) "same memory" (Int64.bits_of_float (Sim.memory_in_use st))
        (Int64.bits_of_float (Sim.memory_in_use st'));
      (* and the same future *)
      let next st = Sim.schedule_task st ~capacity:30.0 (Task.make ~id:999 ~comm:2.0 ~comp:1.0 ~mem:20.0 ()) in
      let e = next st and e' = next st' in
      Alcotest.(check (pair (float 0.0) (float 0.0))) "same next entry"
        (e.Schedule.s_comm, e.Schedule.s_comp) (e'.Schedule.s_comm, e'.Schedule.s_comp);
      Alcotest.(check bool) "same state after" true (dump_bits st' = dump_bits st))
    [ Sim.initial_state (); wrapped_state () ]

let suite =
  suite
  @ [
      Alcotest.test_case "release ring wraps, then grows" `Quick ring_wraps_then_grows;
      Alcotest.test_case "copies stay independent both ways" `Quick copies_stay_independent;
      Alcotest.test_case "dump_state then restore_state is the identity" `Quick
        dump_restore_roundtrip;
    ]
