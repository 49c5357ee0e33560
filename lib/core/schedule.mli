(** Concrete schedules: start times of each task on the communication link
    and on the processing unit, plus validity checking against the DT model
    (link/processor exclusivity, data-before-compute, memory capacity). *)

type entry = {
  task : Task.t;
  s_comm : float;  (** start of the input transfer *)
  s_comp : float;  (** start of the computation *)
}

type t = private {
  entries : entry array;  (** sorted by [s_comm] *)
  capacity : float;
}

val make : capacity:float -> entry list -> t
(** Sorts entries by [(s_comm, s_comp, id)]. O(n) when they already come
    in that order, as every sequential executor emits them; O(n log n)
    otherwise. Does not validate; see {!check}. *)

val of_array : capacity:float -> entry array -> t
(** {!make} on an array, which the schedule then owns. *)

val entries : t -> entry list
val size : t -> int

val comm_end : entry -> float
val comp_end : entry -> float

val makespan : t -> float
(** Latest computation end ([0.] for an empty schedule). *)

val comm_idle : t -> float
(** Total idle time on the link before the last communication ends. *)

val comp_idle : t -> float
(** Total idle time on the processing unit before the last computation
    ends, counted from time [0.]. *)

val overlap : t -> float
(** Time during which the link and the processor are simultaneously busy. *)

val peak_memory : t -> float
(** Maximum memory occupied at any instant (memory is held from [s_comm]
    to [comp_end]). *)

val memory_at : t -> float -> float
(** Memory in use at a given time (half-open intervals
    [[s_comm, comp_end)]). *)

val same_order : t -> bool
(** True when communications and computations happen in the same task
    order (a permutation schedule). *)

type violation =
  | Comm_overlap of int * int          (** two transfers overlap (task ids) *)
  | Comp_overlap of int * int          (** two computations overlap *)
  | Data_not_ready of int              (** computation before transfer end *)
  | Memory_exceeded of float * float   (** (time, usage) above capacity *)
  | Negative_time of int

val check : t -> (unit, violation) result
(** Full validity check of the schedule against problem DT. *)

val violation_to_string : violation -> string

val pp : Format.formatter -> t -> unit
