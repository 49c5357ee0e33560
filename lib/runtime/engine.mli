(** Online, arrival-aware scheduling engine.

    Everything in [lib/core] is offline: all [(CM, CP, MC)] triples are
    known before the first decision. This engine is the runtime-system
    counterpart the paper's conclusion announces: tasks carry {e arrival
    times} and the engine only ever reasons about tasks that have already
    arrived (the {e known suffix}). Decisions are made whenever the
    communication link becomes idle, exactly as in Sections 4.2-4.3, but
    over the arrived set only; when nothing has arrived or nothing fits,
    the engine advances virtual time to the earlier of the next memory
    release and the next arrival.

    Two guarantees shape the implementation:

    - {b clairvoyant degeneration}: when every arrival time is [0.] the
      engine reproduces the corresponding offline schedule bit for bit —
      [Dynamic c] matches {!Dt_core.Dynamic_rules.run}[ c], and
      [Corrected r] matches {!Dt_core.Corrected_rules.run}[ r]. A drain
      {e is} the offline loop run over the arrived prefix: the same
      candidate index, and each decision is
      {!Dt_core.Dynamic_rules.decide}, the step the offline rules take.
      The online Johnson head is the first arrived, unscheduled task in
      Johnson's order over the drain's tasks; on a subset Johnson's order
      is the induced subsequence of the full order, so with every task
      arrived it is the offline head. This is property-tested.
    - {b admission control}: a task whose memory requirement alone
      exceeds the capacity is rejected rather than accepted-and-stuck,
      and the pending queue is bounded, exposing backpressure to the
      caller instead of growing without limit. *)

type policy =
  | Dynamic of Dt_core.Dynamic_rules.criterion
      (** pure dynamic selection over the arrived tasks (min-idle filter
          then LCMR/SCMR/MAMR tie-break), Section 4.2 online *)
  | Corrected of Dt_core.Corrected_rules.rule
      (** the head of Johnson's order over the arrived tasks, with
          dynamic corrections when it does not fit, Section 4.3 online *)

val all_policies : policy list
val policy_name : policy -> string
val policy_of_name : string -> policy option
(** Case-insensitive inverse of {!policy_name} ("LCMR", "OOSCMR", ...). *)

type admission =
  | Accepted
  | Rejected_queue_full of int  (** the configured pending-queue bound *)
  | Rejected_too_big of float   (** the engine's memory capacity *)

val admission_to_string : admission -> string

type t

val create : ?policy:policy -> ?queue_limit:int -> capacity:float -> unit -> t
(** [policy] defaults to [Corrected OOSCMR] (the paper's overall best);
    [queue_limit] (default [65536]) bounds the number of submitted, not
    yet scheduled tasks. Raises [Invalid_argument] on a non-positive
    capacity or queue limit. *)

val capacity : t -> float
val policy : t -> policy
val queue_limit : t -> int

val submit : t -> ?arrival:float -> Dt_core.Task.t -> admission
(** Offer a task to the engine; [arrival] defaults to [0.] and must be
    finite and non-negative (else [Invalid_argument]). Admission is
    checked immediately: a task alone exceeding the capacity is
    [Rejected_too_big], a full pending queue is [Rejected_queue_full];
    both leave the engine untouched. A task whose id equals that of a
    pending (submitted, not yet scheduled) task is a programming error
    and raises [Invalid_argument "Engine.submit: duplicate pending task
    id <id>"] — the old list-based engine silently dropped both copies on
    removal instead. Ids of already-scheduled tasks may be reused. An
    accepted task becomes visible to the scheduler only once virtual time
    reaches its arrival. Amortised O(1) per submission (an append to the
    pending set and its id set), arrivals in any order. *)

val pending : t -> int
(** Submitted tasks not yet scheduled (arrived or not). *)

val scheduled : t -> int
val rejected : t -> int
(** Running counts of scheduled and rejected submissions. *)

val now : t -> float
(** Current virtual time (the link availability instant). *)

val makespan : t -> float
(** Completion time of the last scheduled computation so far ([0.] before
    any task is scheduled). *)

val schedule_pending : t -> unit
(** Run the decision loop until every submitted task is scheduled,
    advancing virtual time through arrivals as needed. The engine stays
    usable: later submissions continue from the drained state, as in
    batched scheduling. {!makespan} and {!scheduled} then read the
    result without building a schedule.

    A drain works on the pending set as one array. Unless every task
    has already arrived, it is sorted once by [(arrival, id)], so the
    tasks arrived at the drain's start form a prefix: the candidate
    index is built with that prefix present, in one O(n) pass, and a
    cursor over the rest adds each task as virtual time reaches it.
    Under a [Corrected] policy the drain's tasks are sorted once into
    Johnson's order. While tasks are still to arrive, an int min-tree
    over their ranks marks the arrived, unscheduled ones: its root is the
    Johnson head, each arrival updates it in O(log n), and a task taken
    by a correction is cleared when it reaches the root. Once all have
    arrived, a cursor over Johnson's order replaces the tree, as in
    {!Dt_core.Corrected_rules}. All of it is rebuilt per drain, so an id
    reused by a later submission never meets a stale copy. *)

val drain : t -> Dt_core.Schedule.t
(** {!schedule_pending}, then the full {!schedule} so far. *)

val schedule : t -> Dt_core.Schedule.t
(** The schedule of everything scheduled so far, without draining. *)

val take_new_entries : t -> Dt_core.Schedule.entry list
(** Entries scheduled since the previous call (in scheduling order);
    the incremental feed behind the wire protocol's [POLL]. *)
