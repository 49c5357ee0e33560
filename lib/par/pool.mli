(** A persistent fan-out pool on OCaml 5 domains.

    The pool owns one worker domain per shard. Each shard has one FIFO
    under a small private lock. {!submit} puts a {e pinned} task on one
    shard's FIFO: that shard's single worker runs it, in submission
    order, and no other domain ever does — the basis for the runtime
    server's connection-to-shard affinity.

    {!parallel_map} allocates one job with an atomic claim counter,
    pushes one helper onto the FIFOs of up to [num_domains] shards, and
    then helps: the calling domain claims and executes elements one at a
    time alongside the workers, so a job always completes even if every
    worker is busy — concurrent and nested calls cannot deadlock. Results
    are collected into per-index slots, so the output is bit-identical to
    [Array.map f a] regardless of which domain computed which element. *)

type t
(** A pool of worker domains. Create once, reuse across many calls. *)

type stats = {
  jobs : int;
      (** total work accepted: [parallel_map] calls plus pinned
          {!submit} tasks *)
  fallbacks : int;
      (** [parallel_map] calls made from inside pool work (nested
          parallelism) that ran inline on the caller instead of fanning
          out. A high ratio of [fallbacks] to [jobs] means the pool is
          used in a way where parallelism never engages. *)
  steals : int;
      (** [parallel_map] elements executed by a pool worker rather than
          by the calling domain. Zero means the caller computed every
          element itself. *)
}

val create : ?num_domains:int -> unit -> t
(** [create ?num_domains ()] spawns the worker domains (one per shard).

    [num_domains] defaults to the [DTSCHED_DOMAINS] environment variable
    when set, otherwise to [Domain.recommended_domain_count () - 1]
    (at least 1), leaving a core for the submitting domain.

    @raise Invalid_argument if [num_domains <= 0], or if
    [DTSCHED_DOMAINS] is set to anything but a positive integer. *)

val num_domains : t -> int
(** Number of shards (= worker domains) in the pool. *)

val stats : t -> stats
(** Monotone counters since {!create}. Cheap; safe from any domain. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f a] is [Array.map f a], computed cooperatively
    by the calling domain and the pool's workers, one element per claim.
    Bit-identical to the sequential map; if any [f] application raises,
    the first such exception is re-raised in the caller (with its
    backtrace) after the job quiesces, and the pool remains usable.

    Inputs of at most one element run inline. Calls from inside pool work
    (nested parallelism) run inline too and are counted in
    {!stats}[.fallbacks].

    @raise Invalid_argument if the pool is shut down. *)

val submit : t -> shard:int -> (unit -> unit) -> unit
(** [submit pool ~shard task] enqueues [task] on shard
    [shard mod num_domains pool]. Pinned tasks on the same shard are
    executed sequentially, in submission order, by that shard's single
    worker domain — two tasks pinned to the same shard never run
    concurrently, which lets per-shard state go lock-free. A pinned task
    never runs on another shard. [task] must not raise; exceptions
    escaping it are discarded.

    @raise Invalid_argument if the pool is shut down or [shard < 0]. *)

val shutdown : t -> unit
(** Stops and joins the worker domains. Idempotent. Pinned tasks not yet
    started are dropped (drain before shutdown if that matters). Any
    {!parallel_map} or {!submit} after shutdown raises
    [Invalid_argument]. *)

val with_pool : ?num_domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down on exit,
    normal or exceptional. *)

val default_num_domains : unit -> int
(** The domain count {!create} uses when [num_domains] is omitted. *)
