(* A persistent fan-out pool on OCaml 5 domains.

   One worker domain per shard, each with one FIFO under its own lock.
   [submit] puts an affinity task on one shard's FIFO: the shard's single
   worker runs it in submission order, and no other domain ever does —
   this is what gives the runtime service its connection-to-shard
   affinity and lock-free sessions.

   A [parallel_map] call allocates one job with an atomic claim counter,
   pushes one helper closure onto [min d (n-1)] shard queues and then
   *helps*: the caller claims indices one at a time until the counter is
   exhausted, racing whichever helpers the workers have picked up. Because
   the caller can claim every index itself, a job completes even if every
   worker is busy or asleep — there is no configuration in which
   [parallel_map] deadlocks, including concurrent calls from several
   domains (each job carries its own counter, completion count and
   wakeup). A helper popped after its job is exhausted finds nothing to
   claim and returns.

   Results land in a preallocated slot per index, so collection is
   deterministic and in index order no matter which domain computed
   what: bit-identical to the sequential [Array.map]. *)

type stats = { jobs : int; fallbacks : int; steals : int }

type shard = {
  mutex : Mutex.t;
  cond : Condition.t;
  tasks : (unit -> unit) Queue.t;
}

type t = {
  shards : shard array;
  stopped : bool Atomic.t;
  mutable domains : unit Domain.t array;
  jobs : int Atomic.t;        (* parallel_map calls + pinned submissions *)
  fallbacks : int Atomic.t;   (* nested parallel_map calls run inline *)
  steals : int Atomic.t;      (* parallel_map elements run by a worker *)
}

(* True while the current domain is executing pool work: set permanently
   in worker domains and around the claim loop of a helping caller. A
   [parallel_map] issued from such a context runs inline (and is counted
   in [fallbacks]) instead of fanning out — the enclosing job already
   owns the domains, and an inner fan-out would only add queue traffic. *)
let in_pool_context : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* ----------------------------- workers ------------------------------ *)

(* Tasks must not raise (helpers record failures in their job, the
   server's pinned tasks answer ERR internal); this catch-all is the last
   line of defense so a bug cannot kill a worker domain. *)
let run_task task = try task () with _ -> ()

let worker pool s =
  Domain.DLS.set in_pool_context true;
  let rec loop () =
    Mutex.lock s.mutex;
    (* [submit] and [shutdown] signal under this lock, so checking the
       queue and the flag under it cannot lose a wakeup *)
    while Queue.is_empty s.tasks && not (Atomic.get pool.stopped) do
      Condition.wait s.cond s.mutex
    done;
    if Atomic.get pool.stopped then Mutex.unlock s.mutex
    else begin
      let task = Queue.pop s.tasks in
      Mutex.unlock s.mutex;
      run_task task;
      loop ()
    end
  in
  loop ()

let push s task =
  Mutex.lock s.mutex;
  Queue.push task s.tasks;
  Condition.signal s.cond;
  Mutex.unlock s.mutex

(* ----------------------------- creation ----------------------------- *)

let default_num_domains () =
  match Sys.getenv_opt "DTSCHED_DOMAINS" with
  | None -> max 1 (Domain.recommended_domain_count () - 1)
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf
               "DTSCHED_DOMAINS must be a positive integer (got %S)" s))

let create ?num_domains () =
  let n =
    match num_domains with
    | Some n when n > 0 -> n
    | Some n ->
        invalid_arg
          (Printf.sprintf "Pool.create: num_domains must be positive (got %d)" n)
    | None -> default_num_domains ()
  in
  let pool =
    {
      shards =
        Array.init n (fun _ ->
            { mutex = Mutex.create (); cond = Condition.create (); tasks = Queue.create () });
      stopped = Atomic.make false;
      domains = [||];
      jobs = Atomic.make 0;
      fallbacks = Atomic.make 0;
      steals = Atomic.make 0;
    }
  in
  pool.domains <- Array.map (fun s -> Domain.spawn (fun () -> worker pool s)) pool.shards;
  pool

let num_domains pool = Array.length pool.shards

let stats pool =
  {
    jobs = Atomic.get pool.jobs;
    fallbacks = Atomic.get pool.fallbacks;
    steals = Atomic.get pool.steals;
  }

(* --------------------------- parallel_map ---------------------------- *)

let check_running pool what =
  if Atomic.get pool.stopped then
    invalid_arg (Printf.sprintf "Pool.%s: pool is shut down" what)

let fanout pool f a n =
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let failure = Atomic.make None in
  let done_mutex = Mutex.create () in
  let done_cond = Condition.create () in
  let rec claim ~worker =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (if Atomic.get failure = None then begin
         if worker then Atomic.incr pool.steals;
         try results.(i) <- Some (f a.(i))
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set failure None (Some (e, bt)))
       end);
      (* skipped-after-failure indices count too, so [completed] always
         converges to [n] and nobody waits on an abandoned tail *)
      if Atomic.fetch_and_add completed 1 + 1 = n then begin
        Mutex.lock done_mutex;
        Condition.broadcast done_cond;
        Mutex.unlock done_mutex
      end;
      claim ~worker
    end
  in
  for s = 0 to min (Array.length pool.shards) (n - 1) - 1 do
    push pool.shards.(s) (fun () -> claim ~worker:true)
  done;
  (* caller-help: claim indices instead of sleeping — this is also what
     makes the pool deadlock-free, whatever the workers are doing *)
  Domain.DLS.set in_pool_context true;
  claim ~worker:false;
  Domain.DLS.set in_pool_context false;
  Mutex.lock done_mutex;
  while Atomic.get completed < n do
    Condition.wait done_cond done_mutex
  done;
  Mutex.unlock done_mutex;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> Array.map (function Some v -> v | None -> assert false) results

let parallel_map pool f a =
  check_running pool "parallel_map";
  Atomic.incr pool.jobs;
  let n = Array.length a in
  if n <= 1 then Array.map f a
  else if Domain.DLS.get in_pool_context then begin
    (* nested call from inside pool work: the enclosing job already owns
       the domains — run inline, visibly (see stats.fallbacks) *)
    Atomic.incr pool.fallbacks;
    Array.map f a
  end
  else fanout pool f a n

(* ------------------------- pinned submission ------------------------- *)

let submit pool ~shard task =
  check_running pool "submit";
  if shard < 0 then
    invalid_arg (Printf.sprintf "Pool.submit: shard must be >= 0 (got %d)" shard);
  Atomic.incr pool.jobs;
  push pool.shards.(shard mod Array.length pool.shards) task

(* ----------------------------- shutdown ------------------------------ *)

let shutdown pool =
  if not (Atomic.exchange pool.stopped true) then begin
    Array.iter
      (fun s ->
        Mutex.lock s.mutex;
        Condition.broadcast s.cond;
        Mutex.unlock s.mutex)
      pool.shards;
    Array.iter Domain.join pool.domains
  end

let with_pool ?num_domains f =
  let pool = create ?num_domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
