(* dt_cluster: the shared-resource fleet simulator and the load
   balancer.

   The anchor property is the degeneration one: on the private
   one-node-per-process topology, with no balancing, both link modes
   must reproduce Fleet.run bit for bit — the cluster model is a strict
   generalisation of the paper's independent model, not a reimplementation
   that drifts. On top of that: hand-computed contention examples (FCFS
   serialisation, PS fair sharing, node-memory gating), balancer
   conservation invariants, and the never-worse guarantee of the
   simulator-verified migration plan. *)

open Dt_cluster

let check_float = Alcotest.(check (float 1e-12))

let mk ~id ?(comm = 1.0) ?(comp = 0.0) ?(mem = 1.0) () =
  Dt_core.Task.make ~id ~comm ~comp ~mem ()

(* --- hand-computed link contention ------------------------------------ *)

(* Two single-task processes on one node, one unit each, sharing one
   link of bandwidth 1: p0 transfers 1 unit, p1 transfers 3.
     FCFS: p0 owns the link first (request order) -> ends 1; p1 ends 4.
     PS:   both flow at rate 1/2; p0 done at 2; p1 then finishes its
           remaining 2 units at full rate -> ends 4. *)
let shared_link_modes () =
  let topo =
    Topology.make
      [|
        {
          Topology.units = 2;
          links = [| { Topology.bandwidth = 1.0 } |];
          unit_link = [| 0; 0 |];
          mem_capacity = 100.0;
        };
      |]
  in
  let orders = [| [| mk ~id:0 ~comm:1.0 () |]; [| mk ~id:0 ~comm:3.0 () |] |] in
  let placement = [| 0; 1 |] in
  let fcfs = Link_sim.run topo ~placement ~mode:Link_sim.Fcfs ~orders in
  check_float "fcfs p0" 1.0 fcfs.Link_sim.process_makespans.(0);
  check_float "fcfs p1" 4.0 fcfs.Link_sim.process_makespans.(1);
  check_float "fcfs makespan" 4.0 fcfs.Link_sim.makespan;
  let ps = Link_sim.run topo ~placement ~mode:Link_sim.Ps ~orders in
  check_float "ps p0" 2.0 ps.Link_sim.process_makespans.(0);
  check_float "ps p1" 4.0 ps.Link_sim.process_makespans.(1);
  (* the link carries at least one transfer over [0,4] in both modes *)
  (match (fcfs.Link_sim.link_busy, ps.Link_sim.link_busy) with
  | [| (0, 0, bf) |], [| (0, 0, bp) |] ->
      check_float "fcfs link busy" 4.0 bf;
      check_float "ps link busy" 4.0 bp
  | _ -> Alcotest.fail "expected exactly one link");
  match Link_sim.utilisation fcfs with
  | [| (0, 0, u) |] -> check_float "fcfs link utilisation" 1.0 u
  | _ -> Alcotest.fail "expected exactly one utilisation entry"

(* Node-wide memory: two units with private links (no link contention),
   node capacity 1.0, both processes need 1.0 for (comm 1, comp 1).
   Memory is held from communication start to computation end, so p1's
   transfer cannot start before p0's computation ends at 2. *)
let node_memory_gating () =
  let topo =
    Topology.shared ~nodes:1 ~units_per_node:2 ~links_per_node:2 ~node_mem:1.0 ()
  in
  let orders =
    [|
      [| mk ~id:0 ~comm:1.0 ~comp:1.0 ~mem:1.0 () |];
      [| mk ~id:0 ~comm:1.0 ~comp:1.0 ~mem:1.0 () |];
    |]
  in
  let placement = [| 0; 1 |] in
  List.iter
    (fun mode ->
      let r = Link_sim.run topo ~placement ~mode ~orders in
      let name = Link_sim.mode_name mode in
      check_float (name ^ " p0") 2.0 r.Link_sim.process_makespans.(0);
      check_float (name ^ " p1") 4.0 r.Link_sim.process_makespans.(1);
      check_float (name ^ " node peak") 1.0 r.Link_sim.node_peak_mem.(0))
    [ Link_sim.Fcfs; Link_sim.Ps ];
  (* a task larger than its node's memory is rejected upfront *)
  Alcotest.check_raises "oversized task"
    (Invalid_argument
       "Link_sim.run: task 0 of process 0 needs 2 > node 0 capacity 1") (fun () ->
      ignore
        (Link_sim.run topo ~placement ~mode:Link_sim.Fcfs
           ~orders:[| [| mk ~id:0 ~mem:2.0 () |]; [| mk ~id:0 () |] |]))

(* --- generators ------------------------------------------------------- *)

let traces_gen =
  QCheck2.Gen.(
    let* n_proc = int_range 1 5 in
    let* task_lists =
      list_repeat n_proc
        (let* n = int_range 1 6 in
         let* mks = list_repeat n Generators.task_gen in
         return (List.mapi (fun i f -> f i) mks))
    in
    return (Dt_trace.Trace.of_task_lists ~prefix:"q" (Array.of_list task_lists)))

let traces_print traces =
  String.concat "; "
    (Array.to_list
       (Array.map
          (fun (t : Dt_trace.Trace.t) ->
            Printf.sprintf "%s: %s" t.Dt_trace.Trace.name
              (String.concat ", "
                 (List.map
                    (fun (task : Dt_core.Task.t) ->
                      Printf.sprintf "(%g,%g,%g)" task.Dt_core.Task.comm
                        task.Dt_core.Task.comp task.Dt_core.Task.mem)
                    t.Dt_trace.Trace.tasks)))
          traces))

let prop_test ?(count = 200) ~name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:traces_print traces_gen prop)

let policy = Dt_trace.Fleet.Portfolio Dt_core.Heuristic.all

(* --- degeneration: private topology == Fleet.run ---------------------- *)

let degenerate_identity =
  prop_test ~name:"degenerate topology reproduces Fleet.run bit for bit"
    (fun traces ->
      let fleet = Dt_trace.Fleet.run policy traces in
      let topo = Cluster.degenerate_topology traces in
      List.for_all
        (fun mode ->
          let config =
            {
              Cluster.default_config with
              mode;
              strategy = Balancer.No_migration;
            }
          in
          let o = Cluster.run ~config topo policy traces in
          o.Cluster.application_makespan = fleet.Dt_trace.Fleet.application_makespan
          && o.Cluster.migrations = 0
          && Array.for_all2
               (fun pm (po : Dt_trace.Fleet.process_outcome) ->
                 pm = po.Dt_trace.Fleet.makespan)
               o.Cluster.cooperative.Link_sim.process_makespans
               fleet.Dt_trace.Fleet.processes
          && Array.for_all2
               (fun c (po : Dt_trace.Fleet.process_outcome) ->
                 Dt_core.Heuristic.name c
                 = Dt_core.Heuristic.name po.Dt_trace.Fleet.chosen)
               o.Cluster.chosen fleet.Dt_trace.Fleet.processes)
        [ Link_sim.Fcfs; Link_sim.Ps ])

(* --- simulator-verified balancing never loses ------------------------- *)

let shared_topo_for traces =
  let total =
    Array.fold_left
      (fun acc t -> acc +. Dt_trace.Trace.min_capacity t)
      0.0 traces
  in
  Topology.shared ~nodes:2 ~units_per_node:2 ~node_mem:(1.5 *. total) ()

let never_worse =
  prop_test ~name:"cooperative run never loses to independent placement"
    (fun traces ->
      let topo = shared_topo_for traces in
      List.for_all
        (fun strategy ->
          let config = { Cluster.default_config with strategy } in
          let o = Cluster.run ~config topo policy traces in
          o.Cluster.application_makespan <= o.Cluster.independent_makespan
          && (o.Cluster.kept_balanced || o.Cluster.migrations = 0))
        [ Balancer.Greedy; Balancer.Diffusive ])

(* --- the pool changes nothing ------------------------------------------ *)

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b
let float_bits = Array.map Int64.bits_of_float

let same_result (a : Link_sim.result) (b : Link_sim.result) =
  float_bits a.Link_sim.process_makespans = float_bits b.Link_sim.process_makespans
  && same_bits a.Link_sim.makespan b.Link_sim.makespan
  && Array.for_all2
       (fun (n, l, x) (n', l', y) -> n = n' && l = l' && same_bits x y)
       a.Link_sim.link_busy b.Link_sim.link_busy
  && float_bits a.Link_sim.unit_busy = float_bits b.Link_sim.unit_busy
  && float_bits a.Link_sim.node_peak_mem = float_bits b.Link_sim.node_peak_mem

let same_outcome (a : Cluster.outcome) (b : Cluster.outcome) =
  Array.map Dt_core.Heuristic.name a.Cluster.chosen
  = Array.map Dt_core.Heuristic.name b.Cluster.chosen
  && a.Cluster.initial_placement = b.Cluster.initial_placement
  && a.Cluster.placement = b.Cluster.placement
  && a.Cluster.migrations = b.Cluster.migrations
  && a.Cluster.kept_balanced = b.Cluster.kept_balanced
  && same_bits a.Cluster.predicted_cost_initial b.Cluster.predicted_cost_initial
  && same_bits a.Cluster.predicted_cost_balanced b.Cluster.predicted_cost_balanced
  && same_result a.Cluster.independent b.Cluster.independent
  && same_result a.Cluster.cooperative b.Cluster.cooperative
  && same_bits a.Cluster.application_makespan b.Cluster.application_makespan
  && same_bits a.Cluster.independent_makespan b.Cluster.independent_makespan

let pool = lazy (Dt_par.Pool.create ~num_domains:2 ())

(* Every process starts on unit 0, so both balancing strategies migrate
   as soon as there are two processes, and the two placements are
   simulated side by side. *)
let pool_identity =
  prop_test ~count:100 ~name:"Cluster.run ~pool = Cluster.run, every outcome field bit for bit"
    (fun traces ->
      let topo = shared_topo_for traces in
      let placement = Array.make (Array.length traces) 0 in
      List.for_all
        (fun (mode, strategy) ->
          let config = { Cluster.default_config with mode; strategy } in
          let o = Cluster.run ~placement ~config topo policy traces in
          same_outcome o (Cluster.run ~pool:(Lazy.force pool) ~placement ~config topo policy traces))
        (List.concat_map
           (fun mode ->
             List.map (fun s -> (mode, s)) [ Balancer.No_migration; Balancer.Greedy; Balancer.Diffusive ])
           [ Link_sim.Fcfs; Link_sim.Ps ]))

(* Both processes start on node 0, whose memory holds neither task; the
   balancer moves process 0 to node 1, so the initial placement fails on
   process 0 and the balanced one on process 1. The pooled run must
   raise the sequential run's error, whichever simulation ends first. *)
let pool_raises_in_order () =
  let node mem_capacity =
    { Topology.units = 2; links = [| { Topology.bandwidth = 1.0 } |]; unit_link = [| 0; 0 |]; mem_capacity }
  in
  let topo = Topology.make [| node 1.0; node 10.0 |] in
  let traces =
    Dt_trace.Trace.of_task_lists ~prefix:"big"
      [| [ mk ~id:0 ~comm:3.0 ~comp:1.0 ~mem:2.0 () ]; [ mk ~id:0 ~comm:1.0 ~comp:1.0 ~mem:2.0 () ] |]
  in
  let config = { Cluster.default_config with strategy = Balancer.Greedy } in
  let expected = Invalid_argument "Link_sim.run: task 0 of process 0 needs 2 > node 0 capacity 1" in
  let run ?pool () = ignore (Cluster.run ?pool ~placement:[| 0; 0 |] ~config topo policy traces) in
  Alcotest.check_raises "sequential" expected (fun () -> run ());
  for _ = 1 to 20 do
    Alcotest.check_raises "pooled" expected (fun () -> run ~pool:(Lazy.force pool) ())
  done

(* --- balancer conservation invariants --------------------------------- *)

let totals summaries placement units =
  let comm = Array.make units 0.0
  and comp = Array.make units 0.0
  and tasks = Array.make units 0 in
  Array.iteri
    (fun p u ->
      let s = summaries.(p) in
      comm.(u) <- comm.(u) +. s.Dt_trace.Fleet.comm_volume;
      comp.(u) <- comp.(u) +. s.Dt_trace.Fleet.comp_volume;
      tasks.(u) <- tasks.(u) + s.Dt_trace.Fleet.tasks)
    placement;
  ( Array.fold_left ( +. ) 0.0 comm,
    Array.fold_left ( +. ) 0.0 comp,
    Array.fold_left ( + ) 0 tasks )

let conservation =
  prop_test ~name:"migration conserves comm/comp volume and task count"
    (fun traces ->
      let topo = shared_topo_for traces in
      let units = Topology.total_units topo in
      let summaries = Dt_trace.Fleet.summarize_set traces in
      let initial = Topology.block_placement topo (Array.length traces) in
      let before = Array.copy initial in
      List.for_all
        (fun strategy ->
          let balanced, migrations =
            Balancer.balance topo summaries strategy initial
          in
          let moved = ref 0 in
          Array.iteri
            (fun p u -> if u <> balanced.(p) then incr moved)
            initial;
          (* the input placement is never mutated *)
          Array.for_all2 ( = ) before initial
          && Array.length balanced = Array.length traces
          && Array.for_all (fun u -> u >= 0 && u < units) balanced
          && migrations >= !moved
          && (strategy <> Balancer.No_migration || migrations = 0)
          && (let close a b =
                Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)
              in
              let comm0, comp0, tasks0 = totals summaries initial units in
              let comm1, comp1, tasks1 = totals summaries balanced units in
              (* per-unit partial sums associate differently between
                 placements, so the volumes match up to rounding only *)
              close comm0 comm1 && close comp0 comp1 && tasks0 = tasks1)
          && Balancer.cost topo Balancer.default_cost_model summaries balanced
             <= Balancer.cost topo Balancer.default_cost_model summaries initial
               +. 1e-9)
        [ Balancer.No_migration; Balancer.Greedy; Balancer.Diffusive ])

(* --- balancer improves an artificially skewed placement ---------------- *)

let balancer_improves () =
  let traces =
    Dt_trace.Trace.of_task_lists ~prefix:"skew"
      (Array.init 8 (fun p ->
           [ mk ~id:0 ~comm:(1.0 +. float_of_int p) ~comp:1.0 ~mem:1.0 () ]))
  in
  let topo = Topology.shared ~nodes:2 ~units_per_node:2 ~node_mem:100.0 () in
  let summaries = Dt_trace.Fleet.summarize_set traces in
  (* everything piled on unit 0: maximal imbalance *)
  let skewed = Array.make 8 0 in
  List.iter
    (fun strategy ->
      let balanced, migrations = Balancer.balance topo summaries strategy skewed in
      let name = Balancer.strategy_name strategy in
      Alcotest.(check bool) (name ^ " migrates") true (migrations > 0);
      let model = Balancer.default_cost_model in
      Alcotest.(check bool)
        (name ^ " strictly improves the modeled cost")
        true
        (Balancer.cost topo model summaries balanced
        < Balancer.cost topo model summaries skewed))
    [ Balancer.Greedy; Balancer.Diffusive ]

(* --- topology helpers -------------------------------------------------- *)

let link_groups_partition () =
  let topo = Topology.shared ~nodes:2 ~units_per_node:2 ~node_mem:10.0 () in
  let placement = [| 0; 2; 1; 0; 3 |] in
  let groups = Topology.link_groups topo ~placement in
  Alcotest.(check int) "one group per link" (Topology.total_links topo)
    (List.length groups);
  let members = List.concat_map snd groups in
  Alcotest.(check (list int))
    "every process in exactly one group" [ 0; 1; 2; 3; 4 ]
    (List.sort Int.compare members);
  (* both of node 0's units feed its single link *)
  Alcotest.(check (list int)) "node 0 link members" [ 0; 2; 3 ]
    (List.assoc (0, 0) groups)

let placement_validation () =
  let topo = Topology.shared ~nodes:1 ~units_per_node:2 ~node_mem:1.0 () in
  Topology.validate_placement topo [| 0; 1; 1 |];
  Alcotest.check_raises "out of range"
    (Invalid_argument "Topology: placement maps process 1 to unit 2 (of 2)")
    (fun () -> Topology.validate_placement topo [| 0; 2 |])

let suite =
  [
    Alcotest.test_case "shared link: fcfs vs ps hand example" `Quick
      shared_link_modes;
    Alcotest.test_case "node-wide memory gating" `Quick node_memory_gating;
    Alcotest.test_case "balancer improves a skewed placement" `Quick
      balancer_improves;
    Alcotest.test_case "link groups partition the fleet" `Quick
      link_groups_partition;
    Alcotest.test_case "placement validation" `Quick placement_validation;
    degenerate_identity;
    never_worse;
    pool_identity;
    Alcotest.test_case "Cluster.run ~pool raises the sequential run's error" `Quick
      pool_raises_in_order;
    conservation;
  ]
