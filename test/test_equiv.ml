(* Equivalence pinning for the O(n log n) decision-loop rewrite: the
   incremental implementations (Candidates index, arrival heap,
   incremental Johnson order) must produce bit-identical schedules to the
   frozen pre-rewrite copies in Dt_reference, on every policy, with and
   without the min-idle filter, and under random arrival times. The
   cluster simulator is pinned the same way against its indexed-heap,
   list-of-flows original. *)

open Dt_core
module Engine = Dt_runtime.Engine

let same_schedule a b =
  let ea = Schedule.entries a and eb = Schedule.entries b in
  List.length ea = List.length eb
  && List.for_all2
       (fun (x : Schedule.entry) (y : Schedule.entry) ->
         Task.equal x.Schedule.task y.Schedule.task
         && x.Schedule.s_comm = y.Schedule.s_comm
         && x.Schedule.s_comp = y.Schedule.s_comp)
       ea eb

(* Larger instances than the default generator: deep release/blocked
   interleavings only appear past a few dozen tasks. *)
let instance_gen = Generators.instance_gen ~min_size:1 ~max_size:40 ()

let dynamic_prop criterion filter =
  Generators.prop_test ~count:300
    ~name:
      (Printf.sprintf "Dynamic %s (min-idle %s) = reference, bit for bit"
         (Dynamic_rules.name criterion)
         (if filter then "on" else "off"))
    instance_gen
    (fun i ->
      same_schedule
        (Dynamic_rules.run ~min_idle_filter:filter criterion i)
        (Dt_reference.Dyn.run ~min_idle_filter:filter criterion i))

let corrected_prop rule =
  Generators.prop_test ~count:300
    ~name:
      (Printf.sprintf "Corrected %s = reference, bit for bit" (Corrected_rules.name rule))
    instance_gen
    (fun i -> same_schedule (Corrected_rules.run rule i) (Dt_reference.Cor.run rule i))

(* Online: an instance plus one arrival time per task. *)
let online_gen =
  QCheck2.Gen.(
    let* i = instance_gen in
    let* arrivals =
      list_repeat (Instance.size i)
        (map (fun x -> float_of_int x /. 4.0) (int_range 0 120))
    in
    return (i, arrivals))

let online_print (i, arrivals) =
  Printf.sprintf "%s arrivals=[%s]" (Generators.instance_print i)
    (String.concat "; " (List.map (Printf.sprintf "%g") arrivals))

let online_prop_test ~name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name ~print:online_print online_gen prop)

let engine_prop policy =
  online_prop_test
    ~name:
      (Printf.sprintf "Engine %s with random arrivals = reference, bit for bit"
         (Engine.policy_name policy))
    (fun (i, arrivals) ->
      let capacity = i.Instance.capacity in
      let eng = Engine.create ~policy ~capacity () in
      let reference = Dt_reference.Eng.create ~policy ~capacity () in
      List.iter2
        (fun task arrival ->
          (match Engine.submit eng ~arrival task with
          | Engine.Accepted -> ()
          | a -> QCheck2.Test.fail_reportf "submission not accepted: %s"
                   (Engine.admission_to_string a));
          Dt_reference.Eng.submit reference ~arrival task)
        (Instance.task_list i) arrivals;
      same_schedule (Engine.drain eng) (Dt_reference.Eng.drain reference))

(* Satellite: an out-of-order (here: fully reversed) submission stream
   must land on the same schedule as the in-order one — the arrival heap
   canonicalises (arrival, id) regardless of submission order. *)
let reversed_replay_prop =
  online_prop_test ~name:"reversed-arrival replay = in-order replay, bit for bit"
    (fun (i, arrivals) ->
      let capacity = i.Instance.capacity in
      let pairs = List.combine (Instance.task_list i) arrivals in
      let run order =
        let eng = Engine.create ~capacity () in
        List.iter (fun (task, arrival) -> ignore (Engine.submit eng ~arrival task)) order;
        Engine.drain eng
      in
      same_schedule (run pairs) (run (List.rev pairs)))

let duplicate_order_rejected () =
  let t0 = Task.make ~id:0 ~comm:1.0 ~comp:1.0 ()
  and t0' = Task.make ~id:0 ~comm:2.0 ~comp:1.0 () in
  let i = Instance.make ~capacity:10.0 [ Task.make ~id:0 ~comm:1.0 ~comp:1.0 () ] in
  Alcotest.check_raises "duplicate ids in the override order"
    (Invalid_argument "Candidates.add: duplicate task id 0") (fun () ->
      ignore (Corrected_rules.run ~order:[ t0; t0' ] Corrected_rules.OOSCMR i))

let duplicate_submit_rejected () =
  let eng = Engine.create ~capacity:10.0 () in
  let accept ~arrival task =
    match Engine.submit eng ~arrival task with
    | Engine.Accepted -> ()
    | a -> Alcotest.failf "submission rejected: %s" (Engine.admission_to_string a)
  in
  let collide ~arrival task =
    Alcotest.check_raises "pending id collision"
      (Invalid_argument "Engine.submit: duplicate pending task id 3") (fun () ->
        ignore (Engine.submit eng ~arrival task))
  in
  accept ~arrival:0.0 (Task.make ~id:3 ~comm:1.0 ~comp:1.0 ());
  collide ~arrival:5.0 (Task.make ~id:3 ~comm:2.0 ~comp:1.0 ());
  (* the failed submission left the engine untouched; after scheduling,
     the id is free again, and pending again once re-submitted *)
  ignore (Engine.drain eng);
  Alcotest.(check int) "one task scheduled" 1 (Engine.scheduled eng);
  accept ~arrival:0.0 (Task.make ~id:3 ~comm:2.0 ~comp:3.0 ());
  collide ~arrival:0.0 (Task.make ~id:3 ~comm:1.0 ~comp:1.0 ());
  let reference = Dt_reference.Eng.create ~policy:(Engine.policy eng) ~capacity:10.0 () in
  Dt_reference.Eng.submit reference ~arrival:0.0 (Task.make ~id:3 ~comm:1.0 ~comp:1.0 ());
  ignore (Dt_reference.Eng.drain reference);
  Dt_reference.Eng.submit reference ~arrival:0.0 (Task.make ~id:3 ~comm:2.0 ~comp:3.0 ());
  Alcotest.(check bool) "second drain = reference" true
    (same_schedule (Engine.drain eng) (Dt_reference.Eng.drain reference))

(* Two drains on one engine, the second batch reusing the first batch's
   ids with other sizes: tasks that corrections took out of Johnson
   order in the first drain must not surface in the second. *)
let redrain_gen =
  QCheck2.Gen.(
    let* first = online_gen in
    let* second = online_gen in
    return (first, second))

let redrain_prop policy =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:
         (Printf.sprintf "Engine %s, two drains reusing ids = reference, bit for bit"
            (Engine.policy_name policy))
       ~print:(fun (a, b) -> online_print a ^ " then " ^ online_print b)
       redrain_gen
       (fun (((i1, _) as first), ((i2, _) as second)) ->
         let capacity = Float.max i1.Instance.capacity i2.Instance.capacity in
         let eng = Engine.create ~policy ~capacity () in
         let reference = Dt_reference.Eng.create ~policy ~capacity () in
         let drain (i, arrivals) =
           List.iter2
             (fun task arrival ->
               ignore (Engine.submit eng ~arrival task);
               Dt_reference.Eng.submit reference ~arrival task)
             (Instance.task_list i) arrivals;
           same_schedule (Engine.drain eng) (Dt_reference.Eng.drain reference)
         in
         drain first && drain second))

(* All four tasks are compute-intensive, so Johnson's order is A B C E
   by comm. A fits and goes first; at t = 1 the head B does not fit
   beside A, and the correction takes C, the only task that does. B
   waits for every release, is taken as the head, and the head then has
   to skip C, already scheduled, to reach E. *)
let johnson_head_skips_corrected () =
  let capacity = 10.0 in
  let tasks =
    [
      Task.make ~id:0 ~label:"A" ~comm:1.0 ~comp:5.0 ~mem:1.0 ();
      Task.make ~id:1 ~label:"B" ~comm:2.0 ~comp:6.0 ~mem:9.5 ();
      Task.make ~id:2 ~label:"C" ~comm:3.0 ~comp:7.0 ~mem:1.0 ();
      Task.make ~id:3 ~label:"E" ~comm:5.0 ~comp:9.0 ~mem:9.2 ();
    ]
  in
  let eng = Engine.create ~capacity () in
  let reference = Dt_reference.Eng.create ~policy:(Engine.policy eng) ~capacity () in
  List.iter
    (fun task ->
      ignore (Engine.submit eng task);
      Dt_reference.Eng.submit reference ~arrival:0.0 task)
    tasks;
  let sched = Engine.drain eng in
  Alcotest.(check (list string)) "correction, then the head skips it" [ "A"; "C"; "B"; "E" ]
    (List.map (fun (e : Schedule.entry) -> e.Schedule.task.Task.label) (Schedule.entries sched));
  Alcotest.(check bool) "= reference" true (same_schedule sched (Dt_reference.Eng.drain reference))

(* --- cluster simulator ------------------------------------------------ *)

module Link_sim = Dt_cluster.Link_sim

(* Small shared topologies: 1-3 nodes of 1-4 units on 1-2 links of
   bandwidth 0.5, 1 or 2, node memory at most twice the largest task so
   that processes on one node wait for each other's memory. Comm and
   comp come from a few values, so completions often fall on the same
   instant and the same-instant ordering is exercised. *)
let cluster_gen =
  QCheck2.Gen.(
    let* nodes =
      array_size (int_range 1 3)
        (let* units = int_range 1 4 in
         let* links = array_size (int_range 1 2) (oneofl [ 0.5; 1.0; 2.0 ]) in
         let* unit_link = array_repeat units (int_bound (Array.length links - 1)) in
         let* mem_factor = oneofl [ 1.0; 1.25; 1.5; 2.0 ] in
         return (units, links, unit_link, mem_factor))
    in
    let n_units = Array.fold_left (fun acc (u, _, _, _) -> acc + u) 0 nodes in
    let* orders =
      array_size (int_range 1 6)
        (let* n = int_range 0 6 in
         list_repeat n
           (triple (oneofl [ 0.0; 0.5; 1.0; 2.0 ]) (oneofl [ 0.0; 0.5; 1.0; 3.0 ])
              (oneofl [ 0.5; 1.0; 2.0 ])))
    in
    let* placement = array_repeat (Array.length orders) (int_bound (n_units - 1)) in
    let orders =
      Array.map
        (fun tasks ->
          Array.of_list
            (List.mapi (fun id (comm, comp, mem) -> Task.make ~id ~comm ~comp ~mem ()) tasks))
        orders
    in
    let max_mem =
      Array.fold_left
        (Array.fold_left (fun acc (t : Task.t) -> Float.max acc t.Task.mem))
        0.5 orders
    in
    let topo =
      Dt_cluster.Topology.make
        (Array.map
           (fun (units, links, unit_link, mem_factor) ->
             {
               Dt_cluster.Topology.units;
               links = Array.map (fun bandwidth -> { Dt_cluster.Topology.bandwidth }) links;
               unit_link;
               mem_capacity = mem_factor *. max_mem;
             })
           nodes)
    in
    return (topo, placement, orders))

let cluster_print (topo, placement, orders) =
  Format.asprintf "%a placement=[%s] orders=[%s]" Dt_cluster.Topology.pp topo
    (String.concat "; " (Array.to_list (Array.map string_of_int placement)))
    (String.concat " | "
       (Array.to_list
          (Array.map
             (fun o ->
               String.concat ", "
                 (Array.to_list
                    (Array.map
                       (fun (t : Task.t) ->
                         Printf.sprintf "(%g,%g,%g)" t.Task.comm t.Task.comp t.Task.mem)
                       o)))
             orders)))

let bits = Array.map Int64.bits_of_float
let link_bits = Array.map (fun (n, l, busy) -> (n, l, Int64.bits_of_float busy))

let link_sim_prop mode =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:
         (Printf.sprintf "Link_sim %s = reference on every field, bit for bit"
            (Link_sim.mode_name mode))
       ~print:cluster_print cluster_gen
       (fun (topo, placement, orders) ->
         let r = Link_sim.run topo ~placement ~mode ~orders in
         let old_mode =
           match mode with Link_sim.Fcfs -> Dt_reference.Link_sim.Fcfs | Ps -> Dt_reference.Link_sim.Ps
         in
         let o = Dt_reference.Link_sim.run topo ~placement ~mode:old_mode ~orders in
         bits r.Link_sim.process_makespans = bits o.Dt_reference.Link_sim.process_makespans
         && Int64.bits_of_float r.Link_sim.makespan
            = Int64.bits_of_float o.Dt_reference.Link_sim.makespan
         && link_bits r.Link_sim.link_busy = link_bits o.Dt_reference.Link_sim.link_busy
         && bits r.Link_sim.unit_busy = bits o.Dt_reference.Link_sim.unit_busy
         && bits r.Link_sim.node_peak_mem = bits o.Dt_reference.Link_sim.node_peak_mem))

(* First-Fit against the frozen list scan: same bins, same members in the
   same order. Memories sit at, just below and just above the capacity,
   around half of it and inside the 1e-12 fit slack, so exact fits and
   near misses are common. *)
let bp_gen =
  QCheck2.Gen.(
    let* capacity = oneofl [ 0.5; 1.0; 10.0; 3.7e9 ] in
    let slack = 1e-12 *. Float.max 1.0 capacity in
    let mem =
      oneof
        [
          oneofl
            [
              0.0;
              capacity;
              capacity *. (1.0 -. 1e-13);
              capacity *. (1.0 +. 5e-13);
              capacity -. (slack /. 2.0);
              capacity /. 2.0;
              (capacity /. 2.0) +. (slack /. 2.0);
              (capacity /. 2.0) -. (slack /. 2.0);
              capacity /. 3.0;
            ];
          map (fun x -> capacity *. float_of_int x /. 16.0) (int_range 1 16);
        ]
    in
    let* mems = list_size (int_range 0 60) mem in
    return
      (capacity, List.mapi (fun id mem -> Task.make ~id ~comm:1.0 ~comp:1.0 ~mem ()) mems))

let bins_ids bins = List.map (List.map (fun (t : Task.t) -> t.Task.id)) bins

let bp_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"Bin_packing.bins = reference First-Fit"
       ~print:(fun (capacity, tasks) ->
         Printf.sprintf "capacity=%h mems=[%s]" capacity
           (String.concat "; " (List.map (fun (t : Task.t) -> Printf.sprintf "%h" t.Task.mem) tasks)))
       bp_gen
       (fun (capacity, tasks) ->
         let run f = match f ~capacity tasks with b -> Ok b | exception Invalid_argument m -> Error m in
         match (run Bin_packing.bins, run Dt_reference.Bp.bins) with
         | Ok a, Ok b -> bins_ids a = bins_ids b && List.for_all2 (List.for_all2 ( == )) a b
         | Error a, Error b -> a = b
         | Ok _, Error _ | Error _, Ok _ -> false))

(* Every task above half the capacity opens its own bin: 20,000 bins,
   which the list scan took quadratic time to reach. *)
let bp_one_bin_per_task () =
  let n = 20_000 in
  let tasks =
    List.init n (fun id ->
        Task.make ~id ~comm:1.0 ~comp:1.0 ~mem:(0.5 +. (float_of_int (1 + (id mod 7)) /. 16.0)) ())
  in
  let bins = Bin_packing.bins ~capacity:1.0 tasks in
  Alcotest.(check int) "one bin per task" n (List.length bins);
  Alcotest.(check bool) "in submission order" true
    (bins_ids bins = List.init n (fun id -> [ id ]))

let suite =
  List.concat
    [
      List.concat_map
        (fun c -> [ dynamic_prop c true; dynamic_prop c false ])
        Dynamic_rules.all;
      List.map corrected_prop Corrected_rules.all;
      List.map engine_prop Engine.all_policies;
      List.map redrain_prop Engine.all_policies;
      [ reversed_replay_prop ];
      [
        Alcotest.test_case "duplicate ids in ?order raise" `Quick duplicate_order_rejected;
        Alcotest.test_case "duplicate pending id raises on submit" `Quick
          duplicate_submit_rejected;
        Alcotest.test_case "Johnson head skips a task a correction took" `Quick
          johnson_head_skips_corrected;
        link_sim_prop Link_sim.Fcfs;
        link_sim_prop Link_sim.Ps;
        bp_prop;
        Alcotest.test_case "First-Fit with one bin per task (20,000 tasks)" `Quick
          bp_one_bin_per_task;
      ];
    ]
