(** Dynamic-selection heuristics (Section 4.2).

    Whenever the communication link becomes idle, the next task is chosen
    among the remaining tasks that (a) fit in the currently available
    memory and (b) induce the minimum idle time on the processing unit;
    ties within that set are resolved by the selection criterion. If no
    remaining task fits, the link stays idle until the next memory-release
    event. Communications and computations keep the same order. *)

type criterion =
  | LCMR  (** largest communication time *)
  | SCMR  (** smallest communication time *)
  | MAMR  (** maximum acceleration, i.e. ratio computation/communication *)

val all : criterion list
val name : criterion -> string

val crit_of : criterion -> Candidates.crit
(** The {!Candidates} counterpart of a criterion (that module sits below
    this one, so it cannot name [criterion] itself). Used by every
    decision loop built on the incremental candidate index. *)

val decide :
  ?min_idle_filter:bool ->
  Sim.state ->
  Candidates.t ->
  kcap:float ->
  Candidates.crit ->
  Task.t option ->
  Task.t option
(** One decision point of every dynamic loop, offline and online: after
    {!Sim.settle}, the Johnson [head] of a corrected rule if given and it
    fits under [used +. mem <= kcap], else [crit]'s pick among the
    present tasks of the index that fit ({!Candidates.select}). [None]
    when nothing fits: the caller advances time and asks again. *)

val run : ?state:Sim.state -> ?min_idle_filter:bool -> criterion -> Instance.t -> Schedule.t
(** Raises [Invalid_argument] if a task alone exceeds the capacity.
    [min_idle_filter] (default [true]) restricts the selection to tasks
    inducing minimum idle time on the processing unit, as the paper
    specifies; disabling it is an ablation that shows the filter's
    contribution. *)
