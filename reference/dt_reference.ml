(* Frozen pre-rewrite implementations of the decision loops (dynamic
   rules, corrected rules, online engine), of BP's First-Fit packing and
   of the cluster simulator with the indexed heap it ran on, kept
   verbatim. Two users:
   - test/test_equiv.ml pins the rewritten paths to bit-identical
     schedules (BP to identical bins, Link_sim to identical results)
     against these copies with QCheck properties;
   - bench/core_scaling.ml times the decision loops as the "before"
     numbers the rewritten paths are compared against.
   Do not "fix" or modernise this file — its value is that it does not
   change. *)

open Dt_core

(* Old Dynamic_rules: full re-filter and re-scan of the remaining list at
   every decision step. *)
module Dyn = struct
  let score = function
    | Dynamic_rules.LCMR -> fun (t : Task.t) -> t.Task.comm
    | Dynamic_rules.SCMR -> fun (t : Task.t) -> -.t.Task.comm
    | Dynamic_rules.MAMR -> Task.acceleration

  let better key a b =
    let c = Float.compare (key a) (key b) in
    if c > 0 then true else if c < 0 then false else Task.compare_id a b < 0

  let select ?(min_idle_filter = true) criterion ~cpu_free ~now candidates =
    let idle (t : Task.t) = Float.max 0.0 (now +. t.Task.comm -. cpu_free) in
    match candidates with
    | [] -> None
    | first :: _ ->
        let eligible =
          if not min_idle_filter then candidates
          else begin
            let min_idle =
              List.fold_left (fun acc t -> Float.min acc (idle t)) (idle first) candidates
            in
            List.filter (fun t -> idle t <= min_idle +. 1e-12) candidates
          end
        in
        let key = score criterion in
        let best = function
          | [] -> None
          | t :: rest ->
              Some (List.fold_left (fun a b -> if better key b a then b else a) t rest)
        in
        best eligible

  let run ?state ?min_idle_filter criterion instance =
    let capacity = instance.Instance.capacity in
    let st = match state with Some s -> s | None -> Sim.initial_state () in
    let remaining = ref (Instance.task_list instance) in
    let entries = ref [] in
    let rec step () =
      match !remaining with
      | [] -> ()
      | _ ->
          let candidates =
            List.filter (fun (t : Task.t) -> Sim.fits_now st ~capacity t.Task.mem) !remaining
          in
          (match
             select ?min_idle_filter criterion ~cpu_free:(Sim.cpu_free_time st)
               ~now:(Sim.link_free_time st) candidates
           with
          | Some t ->
              entries := Sim.schedule_task st ~capacity t :: !entries;
              remaining := List.filter (fun (u : Task.t) -> u.Task.id <> t.Task.id) !remaining
          | None ->
              let advanced = Sim.advance_to_next_release st in
              assert advanced);
          step ()
    in
    step ();
    Schedule.make ~capacity (List.rev !entries)
end

(* Old Bin_packing.bins: First-Fit scanning a list of open bins, a new
   bin appended with [@]; O(bins) per task. *)
module Bp = struct
  type bin = { mutable free : float; mutable members : Task.t list }

  let bins ~capacity tasks =
    let open_bins = ref [] in
    let place t =
      if t.Task.mem > capacity *. (1.0 +. 1e-12) then
        invalid_arg
          (Printf.sprintf "Bin_packing: task %d needs %g > capacity %g" t.Task.id t.Task.mem
             capacity);
      let rec fit = function
        | [] ->
            open_bins := !open_bins @ [ { free = capacity -. t.Task.mem; members = [ t ] } ]
        | b :: rest ->
            if t.Task.mem <= b.free +. (1e-12 *. Float.max 1.0 capacity) then begin
              b.free <- b.free -. t.Task.mem;
              b.members <- t :: b.members
            end
            else fit rest
      in
      fit !open_bins
    in
    List.iter place tasks;
    List.map (fun b -> List.rev b.members) !open_bins
end

(* Old Corrected_rules: pending kept as a list, head by pattern match,
   corrections re-filter the whole list. *)
module Cor = struct
  let run ?state ?order rule instance =
    let capacity = instance.Instance.capacity in
    let st = match state with Some s -> s | None -> Sim.initial_state () in
    let initial =
      match order with Some o -> o | None -> Johnson.order (Instance.task_list instance)
    in
    let pending = ref initial in
    let entries = ref [] in
    let take (t : Task.t) =
      entries := Sim.schedule_task st ~capacity t :: !entries;
      pending := List.filter (fun (u : Task.t) -> u.Task.id <> t.Task.id) !pending
    in
    let rec step () =
      match !pending with
      | [] -> ()
      | next :: _ ->
          if Sim.fits_now st ~capacity next.Task.mem then take next
          else begin
            let candidates =
              List.filter (fun (t : Task.t) -> Sim.fits_now st ~capacity t.Task.mem) !pending
            in
            match
              Dyn.select (Corrected_rules.criterion rule)
                ~cpu_free:(Sim.cpu_free_time st) ~now:(Sim.link_free_time st) candidates
            with
            | Some t -> take t
            | None ->
                let advanced = Sim.advance_to_next_release st in
                assert advanced
          end;
          step ()
    in
    step ();
    Schedule.make ~capacity (List.rev !entries)
end

(* Old online engine: future as a sorted assoc list (insertion sort on
   submit), arrived as a list (append on promote, filter on take), and a
   full Johnson re-sort of the arrived suffix at every decision point. *)
module Eng = struct
  type t = {
    capacity : float;
    policy : Dt_runtime.Engine.policy;
    st : Sim.state;
    mutable future : (float * Task.t) list;
    mutable arrived : Task.t list;
    mutable entries : Schedule.entry list;
  }

  let create ~policy ~capacity () =
    { capacity; policy; st = Sim.initial_state (); future = []; arrived = []; entries = [] }

  let submit t ~arrival (task : Task.t) =
    let rec insert = function
      | [] -> [ (arrival, task) ]
      | ((a, u) :: rest) as l ->
          if a > arrival || (a = arrival && Task.compare_id u task > 0) then
            (arrival, task) :: l
          else (a, u) :: insert rest
    in
    t.future <- insert t.future

  let promote t =
    let time = Sim.link_free_time t.st in
    let rec split acc = function
      | (a, task) :: rest when a <= time -> split (task :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let ready, future = split [] t.future in
    if ready <> [] then begin
      t.future <- future;
      t.arrived <- t.arrived @ ready
    end

  let take_task t (task : Task.t) =
    let entry = Sim.schedule_task t.st ~capacity:t.capacity task in
    t.arrived <- List.filter (fun (u : Task.t) -> u.Task.id <> task.Task.id) t.arrived;
    t.entries <- entry :: t.entries

  let rec step t =
    promote t;
    match (t.arrived, t.future) with
    | [], [] -> false
    | [], (a, _) :: _ ->
        Sim.advance_link_to t.st a;
        step t
    | arrived, future -> (
        let fits (task : Task.t) =
          Sim.fits_now t.st ~capacity:t.capacity task.Task.mem
        in
        let select criterion candidates =
          Dyn.select criterion ~cpu_free:(Sim.cpu_free_time t.st)
            ~now:(Sim.link_free_time t.st) candidates
        in
        let choice =
          match t.policy with
          | Dt_runtime.Engine.Dynamic criterion -> select criterion (List.filter fits arrived)
          | Dt_runtime.Engine.Corrected rule -> (
              match Johnson.order arrived with
              | next :: _ when fits next -> Some next
              | _ ->
                  select (Corrected_rules.criterion rule) (List.filter fits arrived))
        in
        match choice with
        | Some task ->
            take_task t task;
            true
        | None -> (
            let next_arrival = match future with [] -> None | (a, _) :: _ -> Some a in
            match (Sim.next_release_time t.st, next_arrival) with
            | None, None -> assert false
            | Some r, Some a when a < r ->
                Sim.advance_link_to t.st a;
                step t
            | Some _, _ ->
                let advanced = Sim.advance_to_next_release t.st in
                assert advanced;
                step t
            | None, Some a ->
                Sim.advance_link_to t.st a;
                step t))

  let drain t =
    while step t do
      ()
    done;
    Schedule.make ~capacity:t.capacity (List.rev t.entries)
end

(* Old indexed binary heap: an id -> slot Hashtbl beside the array, kept
   for the old Link_sim below. *)
module Iheap = struct
  type 'a t = {
    cmp : 'a -> 'a -> int;
    id : 'a -> int;
    mutable data : 'a array;
    mutable size : int;
    pos : (int, int) Hashtbl.t; (* element id -> slot in [data] *)
  }

  let create ~cmp ~id () = { cmp; id; data = [||]; size = 0; pos = Hashtbl.create 64 }

  let size h = h.size
  let is_empty h = h.size = 0
  let mem h id = Hashtbl.mem h.pos id

  let find h id =
    match Hashtbl.find_opt h.pos id with
    | None -> None
    | Some i -> Some h.data.(i)

  let set h i x =
    h.data.(i) <- x;
    Hashtbl.replace h.pos (h.id x) i

  let swap h i j =
    let x = h.data.(i) and y = h.data.(j) in
    set h i y;
    set h j x

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.cmp h.data.(i) h.data.(parent) < 0 then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && h.cmp h.data.(l) h.data.(!smallest) < 0 then smallest := l;
    if r < h.size && h.cmp h.data.(r) h.data.(!smallest) < 0 then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let grow h =
    if h.size = Array.length h.data then begin
      let cap = max 8 (2 * h.size) in
      let data = Array.make cap h.data.(0) in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end

  let add h x =
    let id = h.id x in
    if Hashtbl.mem h.pos id then
      invalid_arg (Printf.sprintf "Iheap.add: duplicate id %d" id);
    if Array.length h.data = 0 then h.data <- Array.make 8 x else grow h;
    let i = h.size in
    h.size <- h.size + 1;
    set h i x;
    sift_up h i

  let peek h = if h.size = 0 then None else Some h.data.(0)

  (* Remove the element at slot [i]: move the last element in, then restore
     the order in whichever direction it was violated. *)
  let remove_at h i =
    let x = h.data.(i) in
    Hashtbl.remove h.pos (h.id x);
    h.size <- h.size - 1;
    if i < h.size then begin
      set h i h.data.(h.size);
      sift_up h i;
      sift_down h i
    end

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      remove_at h 0;
      Some top
    end

  let remove h id =
    match Hashtbl.find_opt h.pos id with
    | None -> invalid_arg (Printf.sprintf "Iheap.remove: unknown id %d" id)
    | Some i -> remove_at h i

  let update h x =
    let id = h.id x in
    match Hashtbl.find_opt h.pos id with
    | None -> invalid_arg (Printf.sprintf "Iheap.update: unknown id %d" id)
    | Some i ->
        set h i x;
        sift_up h i;
        sift_down h i

  let to_list h = Array.to_list (Array.sub h.data 0 h.size)
end

(* Old cluster simulator: events in the indexed heap above, PS flows as
   a list (append on admission, partition on completion). *)
module Link_sim = struct
  open Dt_cluster
  open Dt_core

  type mode = Fcfs | Ps

  let mode_name = function Fcfs -> "fcfs" | Ps -> "ps"

  let mode_of_name s =
    match String.lowercase_ascii (String.trim s) with
    | "fcfs" -> Some Fcfs
    | "ps" -> Some Ps
    | _ -> None

  type result = {
    process_makespans : float array;
    makespan : float;
    link_busy : (int * int * float) array;
    unit_busy : float array;
    node_peak_mem : float array;
  }

  (* Same memory-fit tolerance as Dt_core.Sim, so the degenerate topology
     admits exactly the same transfers at exactly the same instants. *)
  let fits used mem cap = used +. mem <= cap *. (1.0 +. 1e-12)

  type proc = {
    order : Task.t array;
    unit_ : int;
    node : int;
    link : int;
    mutable next : int;
    mutable finished_at : float;
  }

  (* An active processor-sharing flow. [finish] is the projected completion
     under the current rate epoch; the completion event fires at exactly
     that float, so single-flow links complete at [start +. comm] bit for
     bit (no accrual round-off on the completing flow). *)
  type flow = {
    fp : int;
    ftask : Task.t;
    mutable remaining : float;
    mutable finish : float;
  }

  type link_state = {
    bandwidth : float;
    lnode : int;
    llink : int;
    queue : (int * Task.t) Queue.t; (* FCFS: waiting transfers, head in service *)
    mutable serving : bool;
    mutable flows : flow list;      (* PS: admission order *)
    mutable gen : int;
    mutable epoch : float;
    mutable busy : float;
  }

  type node_state = {
    cap : float;
    mutable used : float;
    mutable peak : float;
    waiters : (int * Task.t) Queue.t; (* node-wide FIFO of memory requests *)
  }

  type unit_state = {
    mutable free : float;
    mutable running : (int * Task.t) option;
    ready : (float * int * Task.t) Queue.t; (* (comm_end, process, task) *)
    mutable ubusy : float;
  }

  type event_kind =
    | Request of int
    | Transfer_end of int
    | Flow_check of int * int * int (* node, link, generation *)
    | Comp_end of int

  type event = { time : float; seq : int; kind : event_kind }

  let run topo ~placement ~mode ~orders =
    let n_proc = Array.length orders in
    if Array.length placement <> n_proc then
      invalid_arg
        (Printf.sprintf "Link_sim.run: %d placements for %d processes"
           (Array.length placement) n_proc);
    Topology.validate_placement topo placement;
    let procs =
      Array.init n_proc (fun p ->
          let u = placement.(p) in
          let node, link = Topology.link_of_unit topo u in
          Array.iter
            (fun (t : Task.t) ->
              if t.Task.mem > Topology.node_mem topo node *. (1.0 +. 1e-12) then
                invalid_arg
                  (Printf.sprintf
                     "Link_sim.run: task %d of process %d needs %g > node %d capacity %g"
                     t.Task.id p t.Task.mem node (Topology.node_mem topo node)))
            orders.(p);
          { order = orders.(p); unit_ = u; node; link; next = 0; finished_at = 0.0 })
    in
    let n_nodes = Array.length topo.Topology.nodes in
    let nodes =
      Array.init n_nodes (fun n ->
          { cap = Topology.node_mem topo n; used = 0.0; peak = 0.0; waiters = Queue.create () })
    in
    let links =
      Array.init n_nodes (fun n ->
          Array.init
            (Array.length topo.Topology.nodes.(n).Topology.links)
            (fun l ->
              {
                bandwidth = Topology.link_bandwidth topo ~node:n ~link:l;
                lnode = n;
                llink = l;
                queue = Queue.create ();
                serving = false;
                flows = [];
                gen = 0;
                epoch = 0.0;
                busy = 0.0;
              }))
    in
    let units =
      Array.init (Topology.total_units topo) (fun _ ->
          { free = 0.0; running = None; ready = Queue.create (); ubusy = 0.0 })
    in
    let seq = ref 0 in
    let events =
      Iheap.create
        ~cmp:(fun a b ->
          match Float.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c)
        ~id:(fun e -> e.seq)
        ()
    in
    let push time kind =
      incr seq;
      Iheap.add events { time; seq = !seq; kind }
    in
    (* --- processor-sharing bookkeeping --------------------------------- *)
    let ps_accrue ls now =
      (match ls.flows with
      | [] -> ()
      | flows ->
          let dt = now -. ls.epoch in
          if dt > 0.0 then begin
            ls.busy <- ls.busy +. dt;
            let rate = ls.bandwidth /. float_of_int (List.length flows) in
            List.iter (fun f -> f.remaining <- Float.max 0.0 (f.remaining -. (rate *. dt))) flows
          end);
      ls.epoch <- now
    in
    let ps_rearm ls now =
      ls.gen <- ls.gen + 1;
      match ls.flows with
      | [] -> ()
      | flows ->
          let rate = ls.bandwidth /. float_of_int (List.length flows) in
          List.iter (fun f -> f.finish <- now +. (f.remaining /. rate)) flows;
          let next = List.fold_left (fun acc f -> Float.min acc f.finish) infinity flows in
          push next (Flow_check (ls.lnode, ls.llink, ls.gen))
    in
    (* --- computations --------------------------------------------------- *)
    let maybe_start_comp u =
      let us = units.(u) in
      if us.running = None && not (Queue.is_empty us.ready) then begin
        let comm_end, p, task = Queue.pop us.ready in
        let s_comp = Float.max comm_end us.free in
        let comp_end = s_comp +. task.Task.comp in
        us.free <- comp_end;
        us.running <- Some (p, task);
        us.ubusy <- us.ubusy +. task.Task.comp;
        push comp_end (Comp_end u)
      end
    in
    let data_arrived p task comm_end =
      let u = procs.(p).unit_ in
      Queue.push (comm_end, p, task) units.(u).ready;
      maybe_start_comp u
    in
    (* --- transfers ------------------------------------------------------ *)
    let start_transfer p (task : Task.t) now =
      let ls = links.(procs.(p).node).(procs.(p).link) in
      match mode with
      | Fcfs ->
          let duration = task.Task.comm /. ls.bandwidth in
          ls.busy <- ls.busy +. duration;
          push (now +. duration) (Transfer_end p)
      | Ps ->
          ps_accrue ls now;
          ls.flows <- ls.flows @ [ { fp = p; ftask = task; remaining = task.Task.comm; finish = infinity } ];
          ps_rearm ls now
    in
    let request_mem p task =
      Queue.push (p, task) nodes.(procs.(p).node).waiters
    in
    let drain_mem n now =
      let ns = nodes.(n) in
      let rec loop () =
        match Queue.peek_opt ns.waiters with
        | Some (p, task) when fits ns.used task.Task.mem ns.cap ->
            ignore (Queue.pop ns.waiters);
            ns.used <- ns.used +. task.Task.mem;
            if ns.used > ns.peak then ns.peak <- ns.used;
            start_transfer p task now;
            loop ()
        | Some _ | None -> ()
      in
      loop ()
    in
    let try_serve ls now =
      if (not ls.serving) && not (Queue.is_empty ls.queue) then begin
        ls.serving <- true;
        let p, task = Queue.peek ls.queue in
        request_mem p task;
        drain_mem ls.lnode now
      end
    in
    let handle_request p now =
      let pr = procs.(p) in
      if pr.next < Array.length pr.order then begin
        let task = pr.order.(pr.next) in
        pr.next <- pr.next + 1;
        match mode with
        | Fcfs ->
            let ls = links.(pr.node).(pr.link) in
            Queue.push (p, task) ls.queue;
            try_serve ls now
        | Ps ->
            request_mem p task;
            drain_mem pr.node now
      end
    in
    let handle_transfer_end p now =
      let pr = procs.(p) in
      let ls = links.(pr.node).(pr.link) in
      let p', task = Queue.pop ls.queue in
      assert (p' = p);
      ls.serving <- false;
      data_arrived p task now;
      push now (Request p);
      try_serve ls now
    in
    let handle_flow_check n l gen now =
      let ls = links.(n).(l) in
      if gen = ls.gen then begin
        ps_accrue ls now;
        let completed, active = List.partition (fun f -> f.finish <= now) ls.flows in
        ls.flows <- active;
        List.iter
          (fun f ->
            data_arrived f.fp f.ftask f.finish;
            push now (Request f.fp))
          completed;
        ps_rearm ls now
      end
    in
    let handle_comp_end u now =
      let us = units.(u) in
      match us.running with
      | None -> assert false
      | Some (p, task) ->
          us.running <- None;
          let pr = procs.(p) in
          pr.finished_at <- Float.max pr.finished_at now;
          let ns = nodes.(pr.node) in
          ns.used <- ns.used -. task.Task.mem;
          drain_mem pr.node now;
          maybe_start_comp u
    in
    for p = 0 to n_proc - 1 do
      push 0.0 (Request p)
    done;
    let rec loop () =
      match Iheap.pop events with
      | None -> ()
      | Some { time; kind; _ } ->
          (match kind with
          | Request p -> handle_request p time
          | Transfer_end p -> handle_transfer_end p time
          | Flow_check (n, l, gen) -> handle_flow_check n l gen time
          | Comp_end u -> handle_comp_end u time);
          loop ()
    in
    loop ();
    Array.iteri
      (fun p pr ->
        if pr.next < Array.length pr.order then
          failwith (Printf.sprintf "Link_sim.run: process %d stalled at task %d" p pr.next))
      procs;
    let link_busy =
      Array.of_list
        (List.concat_map
           (fun n ->
             Array.to_list (Array.map (fun ls -> (ls.lnode, ls.llink, ls.busy)) links.(n)))
           (List.init n_nodes Fun.id))
    in
    {
      process_makespans = Array.map (fun pr -> pr.finished_at) procs;
      makespan = Array.fold_left (fun acc pr -> Float.max acc pr.finished_at) 0.0 procs;
      link_busy;
      unit_busy = Array.map (fun us -> us.ubusy) units;
      node_peak_mem = Array.map (fun ns -> ns.peak) nodes;
    }

  let utilisation r =
    Array.map
      (fun (n, l, busy) -> (n, l, if r.makespan > 0.0 then busy /. r.makespan else 0.0))
      r.link_busy
end
