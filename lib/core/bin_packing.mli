(** The BP heuristic (Section 4.4): group tasks into memory-capacity bins
    with First-Fit, then process bin after bin. Tasks sharing a bin fit in
    memory together, so their transfers can proceed while earlier bin
    members compute. *)

val bins : capacity:float -> Task.t list -> Task.t list list
(** First-Fit in the given (submission) order: each task goes to the first
    bin where it fits; a new bin is opened otherwise. O(n log b) for n
    tasks packed into b bins: the leftmost fitting bin is found by a
    descent of a max-tree over the bins' free space. Raises
    [Invalid_argument] if a task alone exceeds the capacity. *)

val order : capacity:float -> Task.t list -> Task.t list
(** Concatenation of the bins. *)

val run : ?state:Sim.state -> Instance.t -> Schedule.t
