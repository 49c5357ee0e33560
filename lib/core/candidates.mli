(** Flat candidate index for the dynamic decision loops.

    The heuristics of Sections 4.2–4.3 repeatedly answer the same query:
    among the unscheduled tasks that fit in the free memory right now,
    which one does the active criterion pick once the minimum-idle filter
    has been applied? The original implementations re-filtered and
    re-scanned the whole remaining list at every decision — O(n) per
    step, O(n²) per run. This index answers the query in O(log n) and
    allocates nothing per add, remove or search:

    - an index is built over a {e fixed} task array: the instance for
      the offline loops, the arrival-sorted pending set for one engine
      drain. A task is then only marked present or absent; its slot
      never moves;
    - two array segment trees sit over the slots, one in [(mem, id)]
      order holding the SCMR, LCMR and MAMR winners of each subtree as
      int slots, one in [(comm, id)] order holding the MAMR winner and
      the smallest memory requirement. Adding or removing a task
      rewrites one leaf-to-root path of each in place;
    - the fits-now test [used +. mem <= kcap] is monotone in [mem], so
      the fitting set is a prefix of the mem order: a binary search
      finds its end and a bottom-up fold of that prefix yields all three
      winners. Because the boundary is implicit, a memory level that
      swings with every schedule/release event costs nothing — an
      earlier design that physically partitioned tasks into fits/blocked
      sets moved Θ(n) tasks per event on memory-saturated instances;
    - the minimum-idle filter keeps the tasks whose idle time
      [max 0 (now + comm - cpu_free)] is within [1e-12] of the minimum.
      Idle time is monotone in [comm], so the eligible set is a prefix
      of the comm order; it only {e binds} (excludes some fitting task)
      when the CPU frees up before the longest fitting transfer
      completes. When it does not bind — the common case under CPU
      backlog — the prefix fold already answers every criterion. When it
      does, LCMR takes the rightmost eligible fitting task (a descent
      pruned by the smallest memory requirement) and then the leftmost
      fitting task of that comm group; MAMR runs a pruned search of the
      eligible region.

    Every comparison uses the exact float expressions of the original
    list scan and of {!Sim.fits_now}, so selections are bit-identical to
    the list scan (property-tested).

    {b Lifetime.} The arrays live in a per-domain workspace that every
    index built on that domain reuses, grown to the largest task count
    seen. Arrays that large go straight to the major heap, and fresh
    ones per run raised the fleet benchmark's peak RSS by about 18%
    (DESIGN.md, "Complexity of the decision loops"). The workspace never
    shrinks: after an index over n tasks, the domain keeps about 21
    words per slot, rounded up to a power of two, for as long as it
    lives. The engine caps n with its queue limit; offline callers with
    large instances keep that much per domain that ran them. An index
    is only valid inside the {!with_index} call that built it, and only
    until the next index is built on the same domain; any later use
    raises [Invalid_argument] instead of reading another run's data.

    {b Reuse.} The workspace also keeps the last successful build's
    keys: per slot, the task's comm, mem, acceleration and id, and the
    sort orders and id lookup derived from them (no task itself is
    retained). A build over an array of the same length whose slots
    carry the same four keys, compared with [=], skips the sorts: its
    cost drops from O(n log n) to an O(n) comparison plus an O(size)
    reset and refill of the trees. Any mismatch, or a NaN, rebuilds in
    full; a build that raises (a duplicate id) leaves nothing to reuse.
    The offline portfolio builds six indexes over the same
    [instance.tasks] array, the three dynamic and the three corrected
    rules, so five of them reuse the first. *)

type t

(** The selection criteria, mirroring {!Dynamic_rules.criterion} (which
    cannot be used here without a dependency cycle). *)
type crit = Lcmr | Scmr | Mamr

val with_index : ?present:int -> Task.t array -> (t -> 'a) -> 'a
(** [with_index ~present:k tasks f] builds an index over [tasks] with
    the slots [0 .. k-1] present ([k] defaults to all) and returns
    [f index]: O(n log n), or O(n) when the last build on this domain had
    the same keys (see {b Reuse} above). The index must not escape [f],
    and [f] must not build another index while it still uses this one.
    Raises [Invalid_argument "Candidates.add: duplicate task id <id>"]
    when two tasks share an id, and [Invalid_argument] when [k] is
    outside [[0, n]]. *)

val size : t -> int
(** Number of present tasks. *)

val mem : t -> int -> bool
(** Is the task with this id present? O(log n). *)

val add : t -> Task.t -> unit
(** Mark an indexed task present, in O(log n). Raises
    [Invalid_argument "Candidates.add: duplicate task id <id>"] when it
    is present already, and [Invalid_argument] when no task of the index
    has its id. *)

val remove : t -> Task.t -> unit
(** Mark a task absent, in O(log n). Raises
    [Invalid_argument "Candidates.remove: unknown task id <id>"] when no
    present task has its id. *)

val select :
  ?min_idle_filter:bool ->
  t ->
  crit ->
  used:float ->
  kcap:float ->
  cpu_free:float ->
  now:float ->
  Task.t option
(** Among the present tasks that fit under [used +. mem <= kcap], those
    whose idle time [max 0 (now + comm - cpu_free)] is within [1e-12] of
    the minimum (all of them with [min_idle_filter] off), then the
    criterion's best: largest comm (LCMR), smallest comm (SCMR) or
    largest acceleration (MAMR), ties to the smaller id. [kcap] is the
    tolerance-adjusted capacity [capacity *. (1. +. 1e-12)], precomputed
    by the caller so the test is the exact expression of
    {!Sim.fits_now}. O(log n) when the minimum-idle filter does not bind
    (always, for SCMR and with the filter off). [None] iff no task
    fits. *)
