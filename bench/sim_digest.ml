(* Bit-identity check of the simulators on real inputs: an MD5 over
   - every Link_sim.result field for the seed-1 CCSD plans (150
     processes, portfolio winners at capacity 1.5 m_c) on a contended
     10-node x 15-unit shared topology, under both link modes, on the
     block placement and on its greedy-balanced one;
   - every entry of the OOSCMR Engine drains of the seed-1 HF sessions
     (every task arriving at 0) and CCSD sessions (task i arriving at
     i * mean comm / 2, load 2), one engine per trace.
   Optimisations of Link_sim, Engine or the structures under them must
   leave this digest unchanged.

     dune exec bench/sim_digest.exe                # print the digest
     dune exec bench/sim_digest.exe -- --expect D  # exit 1 unless D *)

open Dt_core
open Digest_inputs
module Cl = Dt_cluster

let capacity_factor = 1.5

let add_int b i = Buffer.add_int64_le b (Int64.of_int i)

let add_result b (r : Cl.Link_sim.result) =
  Array.iter (add_float b) r.Cl.Link_sim.process_makespans;
  add_float b r.Cl.Link_sim.makespan;
  Array.iter
    (fun (n, l, busy) ->
      add_int b n;
      add_int b l;
      add_float b busy)
    r.Cl.Link_sim.link_busy;
  Array.iter (add_float b) r.Cl.Link_sim.unit_busy;
  Array.iter (add_float b) r.Cl.Link_sim.node_peak_mem

(* 10 nodes of 15 units on one unit-bandwidth link each, node memory the
   larger of 1.5 x the largest m_c and 1.5 x the mean per-node m_c sum. *)
let topology traces =
  let nodes = 10 in
  let mcs = Array.map Dt_trace.Trace.min_capacity traces in
  let node_mem =
    Float.max
      (capacity_factor *. Array.fold_left Float.max 0.0 mcs)
      (capacity_factor *. Array.fold_left ( +. ) 0.0 mcs /. Float.of_int nodes)
  in
  Cl.Topology.shared ~nodes ~units_per_node:15 ~links_per_node:1 ~node_mem ()

let cluster_digest b traces =
  let orders =
    Array.map
      (fun trace ->
        let _, sched =
          Dt_trace.Fleet.schedule_process ~capacity_factor (Dt_trace.Fleet.Portfolio Heuristic.all)
            trace
        in
        Array.of_list (List.map (fun e -> e.Schedule.task) (Schedule.entries sched)))
      traces
  in
  let topo = topology traces in
  let initial = Cl.Topology.block_placement topo (Array.length traces) in
  let balanced, migrations =
    Cl.Balancer.balance topo (Dt_trace.Fleet.summarize_set traces) Cl.Balancer.Greedy initial
  in
  add_int b migrations;
  List.iter
    (fun mode ->
      List.iter
        (fun placement -> add_result b (Cl.Link_sim.run topo ~placement ~mode ~orders))
        [ initial; balanced ])
    [ Cl.Link_sim.Fcfs; Cl.Link_sim.Ps ]

(* One engine per trace, its tasks renumbered by submission index. *)
let engine_digest b ~load traces =
  Array.iter
    (fun trace ->
      let tasks = Array.of_list trace.Dt_trace.Trace.tasks in
      let n = Array.length tasks in
      let spacing =
        match load with
        | None -> 0.0
        | Some load ->
            Array.fold_left (fun acc (t : Task.t) -> acc +. t.Task.comm) 0.0 tasks
            /. Float.of_int (max 1 n) /. load
      in
      let e =
        Dt_runtime.Engine.create ~policy:(Dt_runtime.Engine.Corrected Corrected_rules.OOSCMR)
          ~capacity:(capacity_factor *. Dt_trace.Trace.min_capacity trace)
          ()
      in
      Array.iteri
        (fun i (t : Task.t) ->
          let task =
            Task.make ~id:i ~label:t.Task.label ~comm:t.Task.comm ~comp:t.Task.comp ~mem:t.Task.mem ()
          in
          match Dt_runtime.Engine.submit e ~arrival:(Float.of_int i *. spacing) task with
          | Dt_runtime.Engine.Accepted -> ()
          | a -> failwith ("engine refused a task: " ^ Dt_runtime.Engine.admission_to_string a))
        tasks;
      Array.iter
        (fun (en : Schedule.entry) ->
          add_int b en.Schedule.task.Task.id;
          add_float b en.Schedule.s_comm;
          add_float b en.Schedule.s_comp)
        (Dt_runtime.Engine.drain e).Schedule.entries)
    traces

let () =
  run ~usage:"sim_digest" (fun () ->
      let b = Buffer.create (1 lsl 20) in
      let ccsd = traces `Ccsd in
      cluster_digest b ccsd;
      engine_digest b ~load:None (traces `Hf);
      engine_digest b ~load:(Some 2.0) ccsd;
      ( "simulator digest (CCSD Link_sim x 4, HF + CCSD engine drains, seed 1)",
        Digest.to_hex (Digest.string (Buffer.contents b)) ))
