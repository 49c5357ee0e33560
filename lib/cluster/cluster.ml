type config = {
  mode : Link_sim.mode;
  strategy : Balancer.strategy;
  cost_model : Balancer.cost_model;
  max_iters : int option;
}

let default_config =
  {
    mode = Link_sim.Fcfs;
    strategy = Balancer.Greedy;
    cost_model = Balancer.default_cost_model;
    max_iters = None;
  }

type outcome = {
  chosen : Dt_core.Heuristic.t array;
  initial_placement : int array;
  placement : int array;
  migrations : int;
  kept_balanced : bool;
  predicted_cost_initial : float;
  predicted_cost_balanced : float;
  independent : Link_sim.result;
  cooperative : Link_sim.result;
  application_makespan : float;
  independent_makespan : float;
}

let degenerate_topology ?(capacity_factor = 1.5) traces =
  Topology.private_
    ~capacities:
      (Array.map
         (fun trace -> Dt_trace.Trace.min_capacity trace *. capacity_factor)
         traces)

(* The communication order of the schedule the per-process policy picked:
   what this process would send, in what order, if it were alone. *)
let plan_process ~capacity_factor policy trace =
  let chosen, sched = Dt_trace.Fleet.schedule_process ~capacity_factor policy trace in
  let order =
    Array.of_list (List.map (fun e -> e.Dt_core.Schedule.task) (Dt_core.Schedule.entries sched))
  in
  (chosen, order)

let run ?(capacity_factor = 1.5) ?pool ?placement ?(config = default_config) topo policy
    traces =
  if Array.length traces = 0 then invalid_arg "Cluster.run: empty trace set";
  let plans =
    let plan = plan_process ~capacity_factor policy in
    match pool with
    | None -> Array.map plan traces
    | Some pool -> Dt_par.Pool.parallel_map pool plan traces
  in
  let chosen = Array.map fst plans in
  let orders = Array.map snd plans in
  let initial_placement =
    match placement with
    | Some p ->
        if Array.length p <> Array.length traces then
          invalid_arg
            (Printf.sprintf "Cluster.run: placement of length %d for %d traces"
               (Array.length p) (Array.length traces));
        Topology.validate_placement topo p;
        Array.copy p
    | None -> Topology.block_placement topo (Array.length traces)
  in
  let summaries = Dt_trace.Fleet.summarize_set traces in
  let predicted_cost_initial =
    Balancer.cost topo config.cost_model summaries initial_placement
  in
  let balanced, migrations =
    Balancer.balance ?max_iters:config.max_iters ~cost_model:config.cost_model topo summaries
      config.strategy initial_placement
  in
  let predicted_cost_balanced = Balancer.cost topo config.cost_model summaries balanced in
  let placements =
    if migrations = 0 then [| initial_placement |] else [| initial_placement; balanced |]
  in
  let simulate placement = Link_sim.run topo ~placement ~mode:config.mode ~orders in
  let sims =
    match pool with
    | Some pool when migrations > 0 ->
        (* the balancer does not read the simulation, so both placements
           run side by side; an exception surfaces in the sequential
           order, initial placement first *)
        Array.map
          (function Ok r -> r | Error e -> raise e)
          (Dt_par.Pool.parallel_map pool
             (fun p -> match simulate p with r -> Ok r | exception e -> Error e)
             placements)
    | _ -> Array.map simulate placements
  in
  let independent = sims.(0) in
  let cooperative, placement, migrations, kept_balanced =
    match sims with
    (* trust the simulator over the model: discard plans that lose *)
    | [| _; simulated |] when simulated.Link_sim.makespan <= independent.Link_sim.makespan ->
        (simulated, balanced, migrations, true)
    | _ -> (independent, initial_placement, 0, false)
  in
  {
    chosen;
    initial_placement;
    placement;
    migrations;
    kept_balanced;
    predicted_cost_initial;
    predicted_cost_balanced;
    independent;
    cooperative;
    application_makespan = cooperative.Link_sim.makespan;
    independent_makespan = independent.Link_sim.makespan;
  }
