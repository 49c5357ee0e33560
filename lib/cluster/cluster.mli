(** Cooperative scheduling of a whole process fleet on a shared-resource
    cluster: per-process orders come from the usual heuristics
    ([Fleet.schedule_process], each process planning against its private
    capacity), the {!Balancer} migrates processes between units under the
    communication- and memory-aware cost model, and {!Link_sim} charges
    the shared links and node memories for the contention the paper's
    independent model ignores.

    The balanced plan is verified against the simulator: when migrating
    yields a worse simulated application makespan than the starting
    placement (the model is only a model), the plan is discarded and the
    initial placement kept, so cooperative scheduling never loses to
    independent scheduling on the same topology. *)

type config = {
  mode : Link_sim.mode;
  strategy : Balancer.strategy;
  cost_model : Balancer.cost_model;
  max_iters : int option;  (** balancer migration bound; None = its default *)
}

val default_config : config
(** FCFS links, greedy balancing, default cost model. *)

type outcome = {
  chosen : Dt_core.Heuristic.t array;      (** per-process winning heuristic *)
  initial_placement : int array;
  placement : int array;                   (** the placement actually run *)
  migrations : int;                        (** 0 when the plan was discarded *)
  kept_balanced : bool;                    (** false = fell back to initial *)
  predicted_cost_initial : float;          (** balancer model, initial placement *)
  predicted_cost_balanced : float;
  independent : Link_sim.result;           (** initial placement, no balancing *)
  cooperative : Link_sim.result;           (** the kept placement *)
  application_makespan : float;            (** = [cooperative.makespan] *)
  independent_makespan : float;            (** = [independent.makespan] *)
}

val run :
  ?capacity_factor:float ->
  ?pool:Dt_par.Pool.t ->
  ?placement:int array ->
  ?config:config ->
  Topology.t ->
  Dt_trace.Fleet.policy ->
  Dt_trace.Trace.t array ->
  outcome
(** [run topo policy traces] schedules every trace under the policy at
    capacity [capacity_factor * its m_c] (default 1.5; the private
    planning capacity, independent of the node capacities), places the
    processes (default {!Topology.block_placement}), balances, simulates
    both placements and keeps the better one. With [?pool] the
    per-process planning fans out over the pool, one trace per claim,
    and, when the balancer migrated, the two placements are simulated
    side by side (the balancer does not read the simulation); the
    outcome is bit-identical to the sequential run, and an exception
    from a simulation surfaces in the sequential order.

    Raises [Invalid_argument] on an empty trace set, a placement of the
    wrong length, or a trace whose largest task exceeds its node's
    memory capacity. *)

val degenerate_topology : ?capacity_factor:float -> Dt_trace.Trace.t array -> Topology.t
(** One node per trace — single unit, private unit-bandwidth link,
    memory [capacity_factor * m_c] (default 1.5): the topology on which
    {!run} with [No_migration] reproduces [Fleet.run] bit for bit. *)
