(** Greedy executors for problem DT.

    Given an order of the tasks (the decision variable of the problem), the
    executor starts every event as early as possible: a communication starts
    at the first instant at which the link is free and the task's memory
    fits; a computation starts as soon as its data has arrived and the
    processing unit is free. For fixed orders this eagerness is optimal:
    delaying a communication never frees memory earlier and delaying a
    computation only postpones a memory release.

    A {!state} value carries the resource availability and the memory still
    held by unfinished tasks, so that successive batches can be chained
    (Section 6.3 of the paper). *)

type state
(** Mutable executor state: link/processor availability, memory in use and
    the pending release events (computation completions). The clocks sit
    in a flat all-float record and the releases in a growable ring of two
    float arrays, so an executor step allocates nothing but the entry it
    returns. *)

val initial_state : unit -> state
(** Everything free at time [0.]. *)

val copy_state : state -> state

val restore_state :
  link_free:float -> cpu_free:float -> held:(float * float) list -> state
(** Rebuild a state from explicit resource availabilities and a list of
    [(release_time, memory)] pairs for tasks still holding memory (sorted
    by release time internally). Used to hand a partial schedule over to
    another engine (lp.k chunk boundaries, batch boundaries). *)

val dump_state : state -> float * float * (float * float) list
(** [(link_free, cpu_free, held)] — the inverse of {!restore_state}. *)

val link_free_time : state -> float
val cpu_free_time : state -> float

val memory_in_use : state -> float
(** Memory currently held, {e before} processing any pending release. *)

val next_release_time : state -> float option
(** Earliest pending memory-release instant (computation completion), if
    any. Unlike {!advance_to_next_release} this does not consume the
    event; online engines use it to compare the next release against the
    next task arrival before deciding which event to advance to. *)

val settle : state -> unit
(** Process every release event up to the link-free instant, so that
    {!memory_in_use} reflects the memory actually held when the next
    communication could start. Same side effect as a {!fits_now} probe,
    without the fit test; incremental decision loops call it once per
    step instead of once per candidate. *)

val advance_link_to : state -> float -> unit
(** Move the link availability forward to the given instant (no-op when
    the link is already free later). Used by arrival-aware engines to
    wait for the next task arrival. *)

val advance_to_next_release : state -> bool
(** Move the link availability to the next memory-release instant (used by
    dynamic heuristics when no pending task fits). Returns [false] when
    there is no pending release. *)

val fits_now : state -> capacity:float -> float -> bool
(** [fits_now st ~capacity m]: would a task of memory requirement [m] fit
    if its communication started right when the link becomes free?
    Processes releases up to that instant as a side effect. *)

val schedule_task : state -> capacity:float -> Task.t -> Schedule.entry
(** Start the task's communication at the earliest fitting instant, then
    its computation. Updates the state. Raises [Invalid_argument] when the
    task alone exceeds the capacity. *)

val run_order : ?state:state -> capacity:float -> Task.t list -> (Schedule.t, Task.t) result
(** Execute the tasks in the given order (same order on both resources —
    a permutation schedule). [Error t] when task [t] exceeds the capacity
    by itself. *)

val run_order_exn : ?state:state -> capacity:float -> Task.t list -> Schedule.t

type dual_error =
  | Too_big of Task.t   (** a task alone exceeds the capacity *)
  | Deadlock of Task.t  (** the orders block each other through memory:
                            this communication can never acquire its
                            memory (Proposition 1 territory) *)

val run_two_orders :
  ?state:state ->
  capacity:float ->
  comm_order:Task.t list ->
  Task.t list ->
  (Schedule.t, dual_error) result
(** [run_two_orders ~capacity ~comm_order comp_order] executes with
    distinct link and processor orders ([comp_order] must be a permutation
    of [comm_order]). Used by the exact solver and by the MILP decoder,
    where the two orders may legitimately differ. *)

(** {1 Residency-aware (cached) execution}

    The tile-aware variant of the executor: the unit's memory doubles as
    a cache of the named shared tiles the tasks reference (see
    {!Task.tile_ref} and {!Residency}). A resident tile costs no transfer
    (its [t_comm] share is skipped) and no new memory; missing tiles are
    fetched and stay resident after the task completes; unpinned tiles
    are evicted on demand by the residency policy, so cache residue never
    delays a task. Tasks with [writes] stream their output tiles back
    over the link after the computation and the written tiles become
    resident.

    On tasks without tile annotations this path performs exactly the
    arithmetic of {!schedule_task} in the same order — schedules are
    bit-identical to the flat model (QCheck-pinned in the test suite).

    Entries record the task as {!Task.charged} with the effective
    (post-hit) transfer time, so makespans reflect the cache. Schedule
    validity under {!Schedule.check} is only meaningful for runs without
    write-backs (the write transfer is not part of the entry's
    communication interval). *)

type cached_state

val cached_state : ?policy:Residency.policy -> unit -> cached_state
(** Fresh clocks, empty memory, empty residency set (default {!Residency.Lru}). *)

val cached_residency : cached_state -> Residency.t
val cached_link_free : cached_state -> float
val cached_cpu_free : cached_state -> float

val cached_memory_in_use : cached_state -> float
(** Private memory of in-flight tasks plus resident tile bytes, {e before}
    processing any pending event. *)

val settle_cached : cached_state -> unit
(** Process every completion/write-back event up to the link-free instant
    (the cached analogue of {!settle}). *)

val cached_advance_to_next_event : cached_state -> bool
(** Move the link availability to the next completion or write-back event
    (used by decision loops when no pending task fits). Returns [false]
    when there is no pending event. *)

val effective_comm : cached_state -> Task.t -> float
(** The transfer time the task would pay right now: [comm] minus the
    shares of its currently-resident tiles, clamped at [0.]. *)

val cached_fits_now : cached_state -> kcap:float -> Task.t -> bool
(** Could the task's communication start at the link-free instant,
    counting on-demand eviction of every unpinned tile the task does not
    reference itself? Settles pending events as a side effect. *)

val schedule_task_cached : cached_state -> capacity:float -> Task.t -> Schedule.entry
(** Start the task's communication at the earliest fitting instant
    (evicting unpinned tiles before waiting for releases), then its
    computation, then its write-backs. Raises [Invalid_argument] when the
    task alone exceeds the capacity. *)

val run_order_cached :
  ?cstate:cached_state ->
  ?policy:Residency.policy ->
  capacity:float ->
  Task.t list ->
  (Schedule.t * Residency.stats, Task.t) result
(** Execute the tasks in the given order under the residency model.
    [Error t] when task [t] exceeds the capacity by itself. *)
