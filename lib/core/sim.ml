(* All-float, so OCaml stores the record flat and a clock write boxes
   nothing. *)
type clocks = {
  mutable link_free : float;
  mutable cpu_free : float;
  mutable used : float;
}

(* Pending releases (computation end, memory) in a power-of-two ring of
   two float arrays: [len] entries from [head], wrapping. They are pushed
   in computation order, hence in nondecreasing time: computations are
   sequential on the single processing unit, so their completion instants
   are ordered. *)
type state = {
  c : clocks;
  mutable rel_time : float array;
  mutable rel_mem : float array;
  mutable head : int;
  mutable len : int;
}

let fresh_clocks () = { link_free = 0.0; cpu_free = 0.0; used = 0.0 }

let initial_state () =
  {
    c = fresh_clocks ();
    rel_time = Array.make 16 0.0;
    rel_mem = Array.make 16 0.0;
    head = 0;
    len = 0;
  }

let copy_state st =
  {
    c = { link_free = st.c.link_free; cpu_free = st.c.cpu_free; used = st.c.used };
    rel_time = Array.copy st.rel_time;
    rel_mem = Array.copy st.rel_mem;
    head = st.head;
    len = st.len;
  }

(* Double the ring, unwrapping it to start at slot 0. *)
let grow st =
  let cap = Array.length st.rel_time in
  let rel_time = Array.make (2 * cap) 0.0 and rel_mem = Array.make (2 * cap) 0.0 in
  for k = 0 to st.len - 1 do
    let i = (st.head + k) land (cap - 1) in
    rel_time.(k) <- st.rel_time.(i);
    rel_mem.(k) <- st.rel_mem.(i)
  done;
  st.rel_time <- rel_time;
  st.rel_mem <- rel_mem;
  st.head <- 0

let[@inline] push_release st time m =
  if st.len = Array.length st.rel_time then grow st;
  let i = (st.head + st.len) land (Array.length st.rel_time - 1) in
  st.rel_time.(i) <- time;
  st.rel_mem.(i) <- m;
  st.len <- st.len + 1

(* Consume the earliest release, freeing its memory. The ring must not
   be empty. *)
let[@inline] pop_release st =
  st.c.used <- st.c.used -. st.rel_mem.(st.head);
  st.head <- (st.head + 1) land (Array.length st.rel_time - 1);
  st.len <- st.len - 1

(* Consume the earliest release and move the link to it if it is later:
   the link waits for the memory it frees. *)
let[@inline] wait_release st =
  let t = st.rel_time.(st.head) in
  if t > st.c.link_free then st.c.link_free <- t;
  pop_release st

let restore_state ~link_free ~cpu_free ~held =
  let st = initial_state () in
  st.c.link_free <- link_free;
  st.c.cpu_free <- cpu_free;
  List.iter
    (fun (t, m) ->
      st.c.used <- st.c.used +. m;
      push_release st t m)
    (List.sort (fun (a, _) (b, _) -> Float.compare a b) held);
  st

let dump_state st =
  let cap = Array.length st.rel_time in
  let held =
    List.init st.len (fun k ->
        let i = (st.head + k) land (cap - 1) in
        (st.rel_time.(i), st.rel_mem.(i)))
  in
  (st.c.link_free, st.c.cpu_free, held)

let link_free_time st = st.c.link_free
let cpu_free_time st = st.c.cpu_free
let memory_in_use st = st.c.used

let next_release_time st = if st.len = 0 then None else Some st.rel_time.(st.head)

let settle st =
  while st.len > 0 && st.rel_time.(st.head) <= st.c.link_free do
    pop_release st
  done

let advance_link_to st time = if time > st.c.link_free then st.c.link_free <- time

let advance_to_next_release st =
  if st.len = 0 then false
  else begin
    wait_release st;
    true
  end

let fits_now st ~capacity m =
  settle st;
  st.c.used +. m <= capacity *. (1.0 +. 1e-12)

let schedule_task st ~capacity (task : Task.t) =
  if task.Task.mem > capacity *. (1.0 +. 1e-12) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_task: task %d needs %g > capacity %g" task.Task.id
         task.Task.mem capacity);
  let c = st.c in
  settle st;
  while c.used +. task.Task.mem > capacity *. (1.0 +. 1e-12) do
    (* task.mem <= capacity, so memory must free up *)
    assert (st.len > 0);
    wait_release st
  done;
  let s_comm = c.link_free in
  let comm_end = s_comm +. task.Task.comm in
  let s_comp = Float.max comm_end c.cpu_free in
  let comp_end = s_comp +. task.Task.comp in
  c.used <- c.used +. task.Task.mem;
  push_release st comp_end task.Task.mem;
  c.link_free <- comm_end;
  c.cpu_free <- comp_end;
  { Schedule.task; s_comm; s_comp }

let run_order ?state ~capacity tasks =
  let st = match state with Some s -> s | None -> initial_state () in
  let rec loop acc = function
    | [] -> Ok (Schedule.make ~capacity (List.rev acc))
    | t :: rest ->
        if t.Task.mem > capacity *. (1.0 +. 1e-12) then Error t
        else loop (schedule_task st ~capacity t :: acc) rest
  in
  loop [] tasks

let run_order_exn ?state ~capacity tasks =
  match run_order ?state ~capacity tasks with
  | Ok s -> s
  | Error t ->
      invalid_arg
        (Printf.sprintf "Sim.run_order_exn: task %d needs %g > capacity %g" t.Task.id
           t.Task.mem capacity)

type dual_error =
  | Too_big of Task.t
  | Deadlock of Task.t

(* Dual-order execution. Computations are scheduled eagerly whenever the
   head of the computation order has its data; the head communication is
   then started at the earliest fitting instant, where "fitting" may only
   rely on releases of already-scheduled computations: any not-yet-scheduled
   computation is blocked behind a communication that comes at or after the
   head, so it cannot release memory before the head starts. *)
let run_two_orders ?state ~capacity ~comm_order comp_order =
  let st = match state with Some s -> s | None -> initial_state () in
  (* Per-task started/start-time records, indexed by task id offset by the
     smallest id in the order (ids are dense in practice — [Instance.make]
     renumbers 0..n-1 — so flat arrays beat hashing on this hot path; the
     offset keeps arbitrary [make_keep_ids] id ranges working). *)
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (t : Task.t) -> (min lo t.Task.id, max hi t.Task.id))
      (max_int, min_int) comm_order
  in
  let slots = if hi >= lo then hi - lo + 1 else 0 in
  let comm_started = Array.make slots false in
  let s_comm_of = Array.make slots 0.0 in
  (* a task outside the comm order maps to no slot and never starts, which
     surfaces as the same deadlock the Hashtbl version reported *)
  let started (t : Task.t) =
    let i = t.Task.id - lo in
    i >= 0 && i < slots && comm_started.(i)
  in
  let entries = ref [] in
  let pending_comm = ref comm_order and pending_comp = ref comp_order in
  let exception Stop of dual_error in
  let schedule_ready_comps () =
    let progress = ref false in
    let rec loop () =
      match !pending_comp with
      | [] -> ()
      | t :: rest ->
          if started t then begin
            let s_comm = s_comm_of.(t.Task.id - lo) in
            let ce = s_comm +. t.Task.comm in
            let s_comp = Float.max ce st.c.cpu_free in
            let comp_end = s_comp +. t.Task.comp in
            st.c.cpu_free <- comp_end;
            push_release st comp_end t.Task.mem;
            entries := { Schedule.task = t; s_comm; s_comp } :: !entries;
            pending_comp := rest;
            progress := true;
            loop ()
          end
    in
    loop ();
    !progress
  in
  let start_head_comm () =
    match !pending_comm with
    | [] -> false
    | t :: rest ->
        if t.Task.mem > capacity *. (1.0 +. 1e-12) then raise (Stop (Too_big t));
        settle st;
        while not (st.c.used +. t.Task.mem <= capacity *. (1.0 +. 1e-12)) do
          if st.len = 0 then raise (Stop (Deadlock t));
          wait_release st
        done;
        let s_comm = st.c.link_free in
        st.c.used <- st.c.used +. t.Task.mem;
        st.c.link_free <- s_comm +. t.Task.comm;
        s_comm_of.(t.Task.id - lo) <- s_comm;
        comm_started.(t.Task.id - lo) <- true;
        pending_comm := rest;
        true
  in
  try
    let rec drive () =
      let p1 = schedule_ready_comps () in
      let p2 = start_head_comm () in
      if p1 || p2 then drive ()
      else
        match (!pending_comm, !pending_comp) with
        | [], [] -> Ok (Schedule.make ~capacity (List.rev !entries))
        | _, t :: _ | t :: _, _ -> Error (Deadlock t)
    in
    drive ()
  with Stop e -> Error e

(* ------------------------------------------------------------------ *)
(* Residency-aware (cached) execution: the unit's memory doubles as a
   cache of named shared tiles.  A tile fetched by a task stays resident
   after the task's computation ends; a later task referencing it pays no
   transfer for that share (hit) and no new memory.  Unpinned resident
   tiles are evicted on demand — eviction is free now, the cost is the
   refetch if the tile is needed again, so a cached run can never be
   blocked by cache residue.  With no tile annotations anywhere this
   executor performs exactly the arithmetic of [schedule_task], in the
   same order: bit-identity to the flat model (QCheck-pinned). *)

type cached_event = {
  ev_time : float;               (* computation or write-back end *)
  ev_free : float;               (* private memory released *)
  ev_unpin : int list;           (* input tiles unpinned *)
  ev_admit : Task.tile_ref list; (* write-backs becoming resident *)
}

type cached_state = {
  cbase : clocks; (* link/cpu clocks + private memory in use; [cevents]
                     replaces the flat release ring, carrying unpins and
                     write-back admissions too *)
  cres : Residency.t;
  cevents : cached_event Queue.t; (* pushed in nondecreasing time order *)
}

let cached_state ?policy () =
  { cbase = fresh_clocks (); cres = Residency.create ?policy (); cevents = Queue.create () }

let cached_residency cs = cs.cres
let cached_link_free cs = cs.cbase.link_free
let cached_cpu_free cs = cs.cbase.cpu_free

let cached_memory_in_use cs = cs.cbase.used +. Residency.resident_bytes cs.cres

let apply_cached_event cs ev =
  cs.cbase.used <- cs.cbase.used -. ev.ev_free;
  List.iter (Residency.unpin cs.cres) ev.ev_unpin;
  List.iter (Residency.admit_write cs.cres) ev.ev_admit

let process_cached_until cs time =
  let rec loop () =
    match Queue.peek_opt cs.cevents with
    | Some ev when ev.ev_time <= time ->
        ignore (Queue.pop cs.cevents);
        apply_cached_event cs ev;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let settle_cached cs = process_cached_until cs cs.cbase.link_free

let cached_advance_to_next_event cs =
  match Queue.take_opt cs.cevents with
  | None -> false
  | Some ev ->
      apply_cached_event cs ev;
      if ev.ev_time > cs.cbase.link_free then cs.cbase.link_free <- ev.ev_time;
      true

let sum_ref_comm refs = List.fold_left (fun a (r : Task.tile_ref) -> a +. r.Task.t_comm) 0.0 refs
let sum_ref_mem refs = List.fold_left (fun a (r : Task.tile_ref) -> a +. r.Task.t_mem) 0.0 refs

(* Transfer time the task would actually pay right now: the full comm
   minus the shares of its currently-resident tiles. *)
let effective_comm cs (task : Task.t) =
  match task.Task.tiles with
  | [] -> task.Task.comm
  | tiles ->
      let saved =
        List.fold_left
          (fun a (r : Task.tile_ref) ->
            if Residency.is_resident cs.cres r.Task.tile then a +. r.Task.t_comm else a)
          0.0 tiles
      in
      Float.max 0.0 (task.Task.comm -. saved)

(* Could the task start right now, allowing on-demand eviction of every
   unpinned tile it does not read itself?  The minimum achievable usage
   is: private memory in use + pinned tiles + the task's own resident
   unpinned tiles (kept, they are about to be pinned) + the memory it
   still has to bring in. *)
let cached_fits_now cs ~kcap (task : Task.t) =
  settle_cached cs;
  let resident_t, resident_unpinned_t =
    List.fold_left
      (fun (res_m, unp_m) (r : Task.tile_ref) ->
        if Residency.is_resident cs.cres r.Task.tile then
          ( res_m +. r.Task.t_mem,
            if Residency.pin_count cs.cres r.Task.tile = 0 then unp_m +. r.Task.t_mem
            else unp_m )
        else (res_m, unp_m))
      (0.0, 0.0) task.Task.tiles
  in
  cs.cbase.used +. Residency.pinned_bytes cs.cres +. resident_unpinned_t
  +. (task.Task.mem -. resident_t)
  <= kcap

let schedule_task_cached cs ~capacity (task : Task.t) =
  let st = cs.cbase and res = cs.cres in
  if task.Task.mem > capacity *. (1.0 +. 1e-12) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_task_cached: task %d needs %g > capacity %g"
         task.Task.id task.Task.mem capacity);
  let kcap = capacity *. (1.0 +. 1e-12) in
  process_cached_until cs st.link_free;
  (* Pin the tiles that are resident right now, before any eviction below
     could throw them out; the rest is classified as missing and admitted
     once the memory fit is secured. *)
  let hit_now, miss_now =
    List.partition
      (fun (r : Task.tile_ref) -> Residency.is_resident res r.Task.tile)
      task.Task.tiles
  in
  List.iter (fun r -> ignore (Residency.touch res r)) hit_now;
  let need = task.Task.mem -. sum_ref_mem hit_now in
  let start = ref st.link_free in
  while st.used +. Residency.resident_bytes res +. need > kcap do
    (* evicting an unpinned tile is free; waiting for a release is not *)
    match Residency.evict_candidate res with
    | Some tile -> Residency.evict res tile
    | None -> (
        match Queue.take_opt cs.cevents with
        | None -> assert false (* task.mem <= capacity, so memory must free up *)
        | Some ev ->
            apply_cached_event cs ev;
            if ev.ev_time > !start then start := ev.ev_time)
  done;
  (* Admit the missing tiles; one may have become resident through a
     write-back processed while waiting — then it hits after all. *)
  let eff = ref task.Task.comm in
  List.iter (fun (r : Task.tile_ref) -> eff := !eff -. r.Task.t_comm) hit_now;
  List.iter
    (fun (r : Task.tile_ref) ->
      match Residency.touch res r with
      | `Hit -> eff := !eff -. r.Task.t_comm
      | `Miss -> ())
    miss_now;
  let eff = if task.Task.tiles = [] then task.Task.comm else Float.max 0.0 !eff in
  let s_comm = !start in
  let comm_end = s_comm +. eff in
  let s_comp = Float.max comm_end st.cpu_free in
  let comp_end = s_comp +. task.Task.comp in
  let tiles_mem = sum_ref_mem task.Task.tiles in
  let writes_mem = sum_ref_mem task.Task.writes in
  (* input-tile shares now live in the cache; only the private remainder
     is charged to (and released from) the task itself *)
  st.used <- st.used +. (task.Task.mem -. tiles_mem);
  st.link_free <- comm_end;
  st.cpu_free <- comp_end;
  Queue.push
    {
      ev_time = comp_end;
      ev_free = task.Task.mem -. tiles_mem -. writes_mem;
      ev_unpin = List.map (fun (r : Task.tile_ref) -> r.Task.tile) task.Task.tiles;
      ev_admit = [];
    }
    cs.cevents;
  if task.Task.writes <> [] then begin
    (* the result streams back over the same link after the computation;
       the written tiles then become resident (write-allocate) *)
    let wb_end = comp_end +. sum_ref_comm task.Task.writes in
    if wb_end > st.link_free then st.link_free <- wb_end;
    Queue.push
      { ev_time = wb_end; ev_free = writes_mem; ev_unpin = []; ev_admit = task.Task.writes }
      cs.cevents
  end;
  { Schedule.task = Task.charged task ~comm:eff; s_comm; s_comp }

let run_order_cached ?cstate ?policy ~capacity tasks =
  let cs = match cstate with Some c -> c | None -> cached_state ?policy () in
  let rec loop acc = function
    | [] -> Ok (Schedule.make ~capacity (List.rev acc), Residency.stats cs.cres)
    | t :: rest ->
        if t.Task.mem > capacity *. (1.0 +. 1e-12) then Error t
        else loop (schedule_task_cached cs ~capacity t :: acc) rest
  in
  loop [] tasks
