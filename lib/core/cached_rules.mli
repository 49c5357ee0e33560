(** Evict-aware variants of the dynamic selection rules (SCMR / LCMR /
    MAMR) on the tile residency model.

    Each decision is taken on the {e effective} communication time — the
    task's [comm] minus the shares of its currently-resident tiles — and
    the memory fit test allows on-demand eviction of unpinned tiles
    ({!Sim.cached_fits_now}). On instances without tile annotations every
    run is bit-identical to the corresponding {!Dynamic_rules.run}
    (QCheck-pinned). *)

val name : Residency.policy -> Dynamic_rules.criterion -> string
(** E.g. ["SCMR+lru"], ["LCMR+min-refetch"]. *)

val select :
  ?min_idle_filter:bool ->
  Dynamic_rules.criterion ->
  cstate:Sim.cached_state ->
  kcap:float ->
  cpu_free:float ->
  now:float ->
  Task.t list ->
  Task.t option
(** One decision: the best fitting candidate under the criterion applied
    to effective communication times, min-idle filtered like
    {!Candidates.select}. *)

val run :
  ?policy:Residency.policy ->
  ?cstate:Sim.cached_state ->
  ?min_idle_filter:bool ->
  Dynamic_rules.criterion ->
  Instance.t ->
  Schedule.t * Residency.stats
(** The greedy decision loop under the residency model. Returns the
    schedule (entries record effective transfer times, see
    {!Sim.schedule_task_cached}) and the final cache statistics. Raises
    [Invalid_argument] when a task alone exceeds the capacity. *)
