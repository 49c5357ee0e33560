(** Whole-application view: the paper's setting has 150 worker processes,
    each independently ordering its own transfers to and from the Global
    Arrays memory. This module runs a scheduling policy on every
    per-process trace and aggregates the outcome — the application
    finishes when its slowest process does. *)

type policy =
  | Fixed of Dt_core.Heuristic.t         (** same heuristic everywhere *)
  | Portfolio of Dt_core.Heuristic.t list(** per-process best-of (Auto) *)

type process_outcome = {
  name : string;
  makespan : float;
  omim : float;
  ratio : float;
  chosen : Dt_core.Heuristic.t;  (** the heuristic that actually ran *)
}

type outcome = {
  processes : process_outcome array;
  application_makespan : float;        (** max over processes *)
  application_lower_bound : float;     (** max of the per-process OMIMs *)
  mean_ratio : float;
  worst_ratio : float;
}

type trace_summary = {
  summary_name : string;
  tasks : int;
  comm_volume : float;   (** total communication time: link work of the trace *)
  comp_volume : float;   (** total computation time: unit work of the trace *)
  mem_peak : float;      (** largest single memory requirement, [m_c] *)
  mem_volume : float;    (** sum of the per-task memory requirements *)
}
(** The per-trace aggregates a cluster load balancer needs: how much link
    work, unit work and memory a process brings to wherever it is placed
    (the communication- and memory-aware cost model of [dt_cluster]). *)

val summarize : Trace.t -> trace_summary
val summarize_set : Trace.t array -> trace_summary array

val schedule_process :
  capacity_factor:float -> policy -> Trace.t -> Dt_core.Heuristic.t * Dt_core.Schedule.t
(** The per-process decision {!run} makes, exposed with the schedule
    itself: the trace scheduled under the policy at capacity
    [capacity_factor * m_c]. [dt_cluster] replays the communication
    order of this exact schedule on a shared topology, so cooperative
    runs and {!run} agree on what each process would do in isolation. *)

val run :
  ?capacity_factor:float -> ?pool:Dt_par.Pool.t -> policy -> Trace.t array -> outcome
(** Each process gets capacity [capacity_factor * its own m_c]
    (default 1.5). With [?pool] the per-process schedulers run
    concurrently, one trace per pool claim; the outcome (makespans, ratios,
    chosen heuristics, aggregation) is bit-identical to the sequential
    run. Raises [Invalid_argument] on an empty trace set. *)

val speedup_over_submission : outcome -> submission:outcome -> float
(** Application-level speedup of this policy against the
    submission-order baseline. *)
