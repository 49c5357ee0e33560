(** Contention-aware fleet execution: replay each process's chosen
    communication order on a shared {!Topology.t}.

    Every process keeps the semantics of the single-machine executor
    ({!Dt_core.Sim}): its transfers start in schedule order, the next one
    only after the previous one completed; a task holds its memory from
    communication start to computation end; its computation starts as
    soon as its data has arrived and its unit is free. What changes is
    that the resources are shared:

    - {b Link}: concurrent transfers on one link contend. Under {!Fcfs}
      the link serves one transfer at a time, full bandwidth, in request
      order (the head may additionally wait for node memory; it keeps
      its turn while doing so). Under {!Ps} (processor sharing) all
      admitted transfers progress simultaneously, each at [bandwidth/k]
      while [k] are active — the fluid model of a fair-shared NIC.
    - {b Unit}: computations of the processes placed on one unit are
      serialised in data-arrival order.
    - {b Memory}: node-wide. Requests are granted strictly in request
      order (FIFO per node), so a large waiter is never starved by
      later small ones.

    Simultaneous events are processed in a deterministic order (creation
    order at equal instants), so results are reproducible. On the
    degenerate one-process-per-node topology ({!Topology.private_}) both
    modes reproduce [Dt_core.Sim.run_order] bit for bit: with a single
    flow per link, rates, start instants and completion instants are
    computed by the same floating-point expressions.

    {b Cost.} Events sit in a plain binary heap on [(time, creation
    number)], at most a few per process at any instant, so an event
    costs O(log p) for [p] processes and no hashing. A processor-sharing
    link keeps its active flows in an array in admission order; a rate
    change (an admission or a completion) touches each of its [k] flows
    once and leaves a stale completion check in the heap, skipped when
    it surfaces. On the benchmark's 150-process CCSD fleet (10 nodes of
    15 units, one link each) a run costs about 0.9 µs per task under
    {!Fcfs} and 1.5 µs under {!Ps} on a 2-vCPU x86-64 Xeon. *)

type mode =
  | Fcfs  (** link serves one transfer at a time, in request order *)
  | Ps    (** fluid fair sharing: each of [k] transfers runs at [bw/k] *)

val mode_name : mode -> string
val mode_of_name : string -> mode option

type result = {
  process_makespans : float array;  (** last computation end per process *)
  makespan : float;                 (** application makespan: max over processes *)
  link_busy : (int * int * float) array;
      (** per link [(node, link, busy time)]: time the link carried at
          least one active transfer *)
  unit_busy : float array;          (** per global unit: total computation time *)
  node_peak_mem : float array;      (** per node: peak memory in use *)
}

val run :
  Topology.t ->
  placement:int array ->
  mode:mode ->
  orders:Dt_core.Task.t array array ->
  result
(** [run topo ~placement ~mode ~orders] executes process [p]'s tasks in
    the order [orders.(p)] on unit [placement.(p)].

    Raises [Invalid_argument] when the placement is out of range, when
    [placement] and [orders] disagree on the process count, or when some
    task alone exceeds its node's memory capacity (the cluster analogue
    of [Sim]'s Too_big). *)

val utilisation : result -> (int * int * float) array
(** [link_busy] divided by the application makespan ([0.] when the
    makespan is zero). *)
