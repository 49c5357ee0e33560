(* Offline scheduling: the fleet portfolio (dt_trace.Fleet over dt_core
   through the dt_par pool) and the contended cluster (dt_cluster). *)

open Perfbench
open Common
module H = Dt_core.Heuristic
module Schedule = Dt_core.Schedule
module Fleet = Dt_trace.Fleet
module Trace = Dt_trace.Trace
module Cluster = Dt_cluster.Cluster
module Link_sim = Dt_cluster.Link_sim
module Balancer = Dt_cluster.Balancer
module Topology = Dt_cluster.Topology

let core_span = function
  | H.Static _ -> "core.static"
  | H.Gg -> "core.gg"
  | H.Bp -> "core.bp"
  | H.Dynamic _ -> "core.dynamic"
  | H.Corrected _ -> "core.corrected"
  | H.Lp _ -> "core.lp"

type decision = { chosen : H.t; sched : Schedule.t; omim : float }

(* One process's decision under [Fleet.run (Portfolio Heuristic.all)],
   composed from the public calls it is made of (Trace.to_instance, each
   candidate's Heuristic.run, the first-strictly-better selection of
   Auto.select, Johnson's OMIM), so each call can be timed. *)
let decide hook trace =
  let instance =
    hook.around "trace.to_instance" (fun () -> Trace.to_instance trace ~capacity:(capacity trace))
  in
  let chosen, sched =
    hook.around "auto.select" (fun () ->
        List.fold_left
          (fun best h ->
            let s = hook.around (core_span h) (fun () -> H.run h instance) in
            match best with
            | Some (_, sb) when Float.compare (Schedule.makespan s) (Schedule.makespan sb) >= 0 -> best
            | _ -> Some (h, s))
          None H.all
        |> Option.get)
  in
  let omim = hook.around "core.omim" (fun () -> Dt_core.Johnson.omim trace.Trace.tasks) in
  { chosen; sched; omim }

(* Warm sequential reference pass: the decisions every pooled run must
   reproduce. Every chosen schedule is validated against the DT model. *)
let reference traces =
  let decisions = Array.map (decide no_hook) traces in
  Array.iteri
    (fun i d ->
      check
        (Schedule.size d.sched = Trace.size traces.(i))
        (fun () -> Printf.sprintf "process %d: schedule misses tasks" i);
      check
        (Schedule.check d.sched = Ok ())
        (fun () ->
          match Schedule.check d.sched with
          | Error v -> Printf.sprintf "process %d: invalid schedule: %s" i (Schedule.violation_to_string v)
          | Ok () -> ""))
    decisions;
  decisions

let candidates = Array.of_list H.all
let same_decision a b = a.chosen = b.chosen && same_float (Schedule.makespan a.sched) (Schedule.makespan b.sched)

(* The planning pass of [Fleet.run] on the pool, call by call, timing each
   process (a "session" offline) and each candidate heuristic run (a
   "round trip" offline) on whichever domain ran it, at reference speed
   (a calibration on that domain after each process) and with the pass's
   stolen time spread over it. Returns the per-process and the
   per-(process, candidate) times. *)
let timed_pass pool traces decisions =
  let nc = Array.length candidates in
  let steal0 = steal_seconds () and t0 = now () in
  let results =
    Dt_par.Pool.parallel_map pool
      (fun trace ->
        let times = Array.make nc 0.0 and k = ref 0 in
        let hook =
          {
            around =
              (fun name f ->
                if !k < nc && name = core_span candidates.(!k) then begin
                  let t0 = now () in
                  let v = f () in
                  times.(!k) <- now () -. t0;
                  incr k;
                  v
                end
                else f ());
          }
        in
        let t0 = now () in
        let d = decide hook trace in
        let t = now () -. t0 in
        let f = to_reference (calibrate ()) in
        (d, t *. f, Array.map (fun x -> x *. f) times))
      traces
  in
  let wall = now () -. t0 in
  (* stolen time is only known for the pass as a whole *)
  let f = unstolen wall ~steal0 /. wall in
  Array.iteri
    (fun i (d, _, _) ->
      check (same_decision d decisions.(i)) (fun () ->
          Printf.sprintf "process %d: pooled decision differs from the sequential one" i))
    results;
  ( Array.map (fun (_, t, _) -> t *. f) results,
    Array.map (fun x -> x *. f) (Array.concat (Array.to_list (Array.map (fun (_, _, times) -> times) results))) )

let check_fleet decisions (o : Fleet.outcome) =
  Array.iteri
    (fun i (p : Fleet.process_outcome) ->
      let d = decisions.(i) in
      check
        (p.Fleet.chosen = d.chosen
        && same_float p.Fleet.makespan (Schedule.makespan d.sched)
        && same_float p.Fleet.omim d.omim)
        (fun () ->
          Printf.sprintf "process %d: pooled Fleet.run chose %s (makespan %h), sequential %s (%h)" i
            (H.name p.Fleet.chosen) p.Fleet.makespan (H.name d.chosen) (Schedule.makespan d.sched)))
    o.Fleet.processes

(* The contended cluster of the paper's run: 10 nodes of 15 units behind
   one shared link each, node memory sized as in bench/cluster.ml (room
   for the largest process and an even share of the fleet, tight enough
   that co-resident processes contend). *)
let topology traces =
  let nodes = 10 in
  let mcs = Array.map Trace.min_capacity traces in
  let node_mem =
    Float.max
      (capacity_factor *. Array.fold_left Float.max 0.0 mcs)
      (capacity_factor *. Array.fold_left ( +. ) 0.0 mcs /. Float.of_int nodes)
  in
  Topology.shared ~nodes ~units_per_node:15 ~links_per_node:1 ~node_mem ()

let cluster_config = { Cluster.default_config with mode = Link_sim.Ps; strategy = Balancer.Greedy }

let check_cluster decisions ~first (o : Cluster.outcome) =
  Array.iteri
    (fun i h ->
      check (h = decisions.(i).chosen) (fun () ->
          Printf.sprintf "process %d: Cluster.run chose %s, sequential %s" i (H.name h)
            (H.name decisions.(i).chosen)))
    o.Cluster.chosen;
  check (o.Cluster.application_makespan <= o.Cluster.independent_makespan) (fun () ->
      Printf.sprintf "cooperative makespan %h above independent %h" o.Cluster.application_makespan
        o.Cluster.independent_makespan);
  match first with
  | None -> ()
  | Some (f : Cluster.outcome) ->
      check
        (same_float f.Cluster.application_makespan o.Cluster.application_makespan
        && f.Cluster.migrations = o.Cluster.migrations)
        (fun () -> "Cluster.run is not deterministic across runs")

let process_ratios ~omims makespans =
  Array.mapi (fun i m -> if omims.(i) > 0.0 then m /. omims.(i) else 1.0) makespans

let mean a = Array.fold_left ( +. ) 0.0 a /. Float.of_int (max 1 (Array.length a))

(* ---- traced decomposition ---------------------------------------- *)

(* The pooled planning pass with a span around every call: one
   "fleet.process" tree per trace (recorded on whichever domain ran it,
   then grafted under the "pool.parallel_map" span of the caller).
   Returns that root span and the decisions. *)
let traced_plan r pool traces =
  let root = Span.enter r ~id:(-1) "pool.parallel_map" in
  let results =
    Dt_par.Pool.parallel_map pool
      (fun (i, trace) ->
        let rr = Span.create () in
        let d = Span.span rr ~id:i "fleet.process" (fun () -> decide (span_hook rr ~id:i) trace) in
        (Span.spans rr, d))
      (Array.mapi (fun i t -> (i, t)) traces)
  in
  Span.leave r root;
  Array.iter (fun (spans, _) -> Span.append r ~parent:root spans) results;
  (root, Array.map snd results)

type cluster_result = { independent : Link_sim.result; cooperative : Link_sim.result; migrations : int }

(* What [Cluster.run] does after planning, call by call: derive each
   process's transfer order, summarise, cost and simulate the initial
   placement, balance, simulate the balanced one and keep the better. *)
let traced_balance r topo traces decisions =
  let sp name f = Span.span r ~id:(-1) name f in
  let orders =
    sp "cluster.orders" (fun () ->
        Array.map
          (fun d -> Array.of_list (List.map (fun e -> e.Schedule.task) (Schedule.entries d.sched)))
          decisions)
  in
  let cm = cluster_config.Cluster.cost_model and mode = cluster_config.Cluster.mode in
  let placement = Topology.block_placement topo (Array.length traces) in
  let summaries = sp "fleet.summarize" (fun () -> Fleet.summarize_set traces) in
  ignore (sp "cluster.cost" (fun () -> Balancer.cost topo cm summaries placement));
  let independent = sp "cluster.link_sim" (fun () -> Link_sim.run topo ~placement ~mode ~orders) in
  let balanced, migrations =
    sp "cluster.balance" (fun () ->
        Balancer.balance ~cost_model:cm topo summaries cluster_config.Cluster.strategy placement)
  in
  ignore (sp "cluster.cost" (fun () -> Balancer.cost topo cm summaries balanced));
  let cooperative, migrations =
    if migrations = 0 then (independent, 0)
    else
      let sim = sp "cluster.link_sim" (fun () -> Link_sim.run topo ~placement:balanced ~mode ~orders) in
      if sim.Link_sim.makespan <= independent.Link_sim.makespan then (sim, migrations)
      else (independent, 0)
  in
  { independent; cooperative; migrations }

(* Schedule quality of the chosen schedules, as shares of the summed
   makespans: link idle, unit idle, link/unit overlap. *)
let quality traces decisions =
  let mk = ref 0.0 and li = ref 0.0 and ci = ref 0.0 and ov = ref 0.0 in
  Array.iteri
    (fun i d ->
      let m =
        Dt_core.Metrics.evaluate (Trace.to_instance traces.(i) ~capacity:(capacity traces.(i))) d.sched
      in
      mk := !mk +. m.Dt_core.Metrics.makespan;
      li := !li +. m.Dt_core.Metrics.comm_idle;
      ci := !ci +. m.Dt_core.Metrics.comp_idle;
      ov := !ov +. m.Dt_core.Metrics.overlap)
    decisions;
  (!li /. !mk, !ci /. !mk, !ov /. !mk)
