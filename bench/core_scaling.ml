(* Core complexity sweep: the O(n log n) decision-loop rewrite against
   the frozen quadratic implementations (Dt_reference), on synthetic
   instances of growing size.

     offline sweep  all 6 policies (3 dynamic + 3 corrected) on one
                    instance per size;
     online drain   the arrival-aware engine (OOSCMR) fed n tasks at
                    load 2 (arrivals twice as fast as the link drains
                    them, so the arrived backlog grows and the old
                    per-step Johnson re-sort is maximally exposed).

   Emits BENCH_core.json: before/after wall-clock per size plus the
   fitted scaling exponent of the new code (log-log least squares); the
   exponent is the regression tripwire — a return to linear scans shows
   up as an exponent near 2.  "Before" runs are capped at 50k tasks
   (the quadratic online drain already takes minutes there); the new
   code runs the full grid.

   `core-smoke` is the CI guard: the 5k-task offline sweep plus online
   drain must finish under DTSCHED_SMOKE_BUDGET seconds (default 2.0) —
   a budget the quadratic code cannot meet. *)

open Dt_core
module Engine = Dt_runtime.Engine

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best-of-[reps] timing: small sizes run in microseconds, where a single
   sample is all GC noise. *)
let best_of reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let r, w = wall f in
    result := Some r;
    if w < !best then best := w
  done;
  (Option.get !result, !best)

let reps_for n = if n <= 1_000 then 7 else if n <= 5_000 then 5 else if n <= 20_000 then 3 else 1

(* Synthetic workload: deterministic, memory-tight enough (capacity ~ six
   mean task footprints) that tasks queue on memory and the release-wait
   paths fire constantly. *)
let make_tasks n =
  let rng = Dt_stats.Rng.create (20190805 + n) in
  List.init n (fun id ->
      let comm = Dt_stats.Rng.uniform rng 0.5 4.0 in
      let comp = Dt_stats.Rng.uniform rng 0.25 6.0 in
      let mem = comm *. Dt_stats.Rng.uniform rng 1.0 1.5 in
      Task.make ~id ~comm ~comp ~mem ())

let capacity_for tasks =
  let sum = List.fold_left (fun a (t : Task.t) -> a +. t.Task.mem) 0.0 tasks in
  6.0 *. sum /. float_of_int (List.length tasks)

let mean_comm tasks =
  List.fold_left (fun a (t : Task.t) -> a +. t.Task.comm) 0.0 tasks
  /. float_of_int (List.length tasks)

let offline_policies =
  List.map (fun c -> `Dynamic c) Dynamic_rules.all
  @ List.map (fun r -> `Corrected r) Corrected_rules.all

let offline_after instance =
  List.map
    (fun p ->
      Schedule.makespan
        (match p with
        | `Dynamic c -> Dynamic_rules.run c instance
        | `Corrected r -> Corrected_rules.run r instance))
    offline_policies

let offline_before instance =
  List.map
    (fun p ->
      Schedule.makespan
        (match p with
        | `Dynamic c -> Dt_reference.Dyn.run c instance
        | `Corrected r -> Dt_reference.Cor.run r instance))
    offline_policies

let online_policy = Engine.Corrected Corrected_rules.OOSCMR

let online_after ~capacity ~spacing tasks =
  (* the whole workload is submitted before draining, so the pending
     queue must hold it (the default limit is 64k) *)
  let eng =
    Engine.create ~policy:online_policy ~queue_limit:(List.length tasks + 1) ~capacity ()
  in
  List.iteri
    (fun i task ->
      match Engine.submit eng ~arrival:(float_of_int i *. spacing) task with
      | Engine.Accepted -> ()
      | _ -> failwith "core bench: submission rejected")
    tasks;
  Schedule.makespan (Engine.drain eng)

let online_before ~capacity ~spacing tasks =
  let eng = Dt_reference.Eng.create ~policy:online_policy ~capacity () in
  List.iteri
    (fun i task -> Dt_reference.Eng.submit eng ~arrival:(float_of_int i *. spacing) task)
    tasks;
  Schedule.makespan (Dt_reference.Eng.drain eng)

(* Least-squares slope of log t over log n: the empirical scaling
   exponent. *)
let fit_exponent points =
  let pts = List.filter (fun (_, t) -> t > 0.0) points in
  match pts with
  | [] | [ _ ] -> nan
  | _ ->
      let k = float_of_int (List.length pts) in
      let xs = List.map (fun (n, _) -> log (float_of_int n)) pts in
      let ys = List.map (fun (_, t) -> log t) pts in
      let sx = List.fold_left ( +. ) 0.0 xs and sy = List.fold_left ( +. ) 0.0 ys in
      let sxx = List.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
      let sxy = List.fold_left2 (fun a x y -> a +. (x *. y)) 0.0 xs ys in
      (sxy -. (sx *. sy /. k)) /. (sxx -. (sx *. sx /. k))

type point = {
  n : int;
  offline_before_s : float option;
  offline_after_s : float;
  online_before_s : float option;
  online_after_s : float;
}

let measure ~before_cap n =
  let tasks = make_tasks n in
  let capacity = capacity_for tasks in
  let instance = Instance.make ~capacity tasks in
  let spacing = mean_comm tasks /. 2.0 in
  let reps = reps_for n in
  let after_ms, offline_after_s = best_of reps (fun () -> offline_after instance) in
  let online_after_m, online_after_s =
    best_of reps (fun () -> online_after ~capacity ~spacing tasks)
  in
  let offline_before_s, online_before_s =
    if n > before_cap then (None, None)
    else begin
      (* the quadratic code takes minutes per run past 20k tasks *)
      let breps = if n <= 5_000 then 3 else 1 in
      let before_ms, ob = best_of breps (fun () -> offline_before instance) in
      let online_before_m, nb =
        best_of breps (fun () -> online_before ~capacity ~spacing tasks)
      in
      (* the rewrite must not just be faster — it must compute the same
         schedules (the test suite pins full bit-identity; this is the
         cheap in-bench guard) *)
      if not (List.for_all2 ( = ) after_ms before_ms) then
        failwith "core bench: offline makespans diverged from the frozen reference";
      if online_after_m <> online_before_m then
        failwith "core bench: online makespan diverged from the frozen reference";
      (Some ob, Some nb)
    end
  in
  Printf.printf "  n=%-6d offline %s -> %.3fs   online %s -> %.3fs\n%!" n
    (match offline_before_s with Some s -> Printf.sprintf "%.3fs" s | None -> "(skip)")
    offline_after_s
    (match online_before_s with Some s -> Printf.sprintf "%.3fs" s | None -> "(skip)")
    online_after_s;
  { n; offline_before_s; offline_after_s; online_before_s; online_after_s }

let speedup_at points get_before get_after =
  List.fold_left
    (fun acc p ->
      match get_before p with
      | Some b when get_after p > 0.0 -> Some (p.n, b /. get_after p)
      | _ -> acc)
    None points

let json_opt = function None -> "null" | Some s -> Printf.sprintf "%.6f" s

let run () =
  Printf.printf "\n== core: decision-loop complexity sweep (before vs after) ==\n\n";
  let sizes =
    if Data.fast then [ 1_000; 5_000 ] else [ 1_000; 5_000; 20_000; 50_000; 100_000 ]
  in
  let before_cap = if Data.fast then max_int else 50_000 in
  let points = List.map (measure ~before_cap) sizes in
  let exp_offline =
    fit_exponent (List.map (fun p -> (p.n, p.offline_after_s)) points)
  in
  let exp_online = fit_exponent (List.map (fun p -> (p.n, p.online_after_s)) points) in
  let sp_offline = speedup_at points (fun p -> p.offline_before_s) (fun p -> p.offline_after_s) in
  let sp_online = speedup_at points (fun p -> p.online_before_s) (fun p -> p.online_after_s) in
  let pp_speedup = function
    | Some (n, f) -> Printf.sprintf "%.1fx at n=%d" f n
    | None -> "-"
  in
  Printf.printf
    "\nfitted exponent (after): offline %.2f, online %.2f; speedup: offline %s, online %s\n"
    exp_offline exp_online (pp_speedup sp_offline) (pp_speedup sp_online);
  Provenance.write_artifact ~path:"BENCH_core.json" ~experiment:"core-scaling"
    (fun oc ->
      Reuse.fields oc;
      Printf.fprintf oc
        "  \"fast_mode\": %b,\n  \"offline_policies\": %d,\n\
        \  \"online_policy\": \"%s\",\n  \"arrival_load\": 2.0,\n  \"points\": [\n"
        Data.fast
        (List.length offline_policies)
        (Engine.policy_name online_policy);
      let last = List.length points - 1 in
      List.iteri
        (fun i p ->
          Printf.fprintf oc
            "    { \"n\": %d, \"offline_before_s\": %s, \"offline_after_s\": %.6f, \
             \"online_before_s\": %s, \"online_after_s\": %.6f }%s\n"
            p.n (json_opt p.offline_before_s) p.offline_after_s
            (json_opt p.online_before_s) p.online_after_s
            (if i = last then "" else ","))
        points;
      let pp_speedup_json oc = function
        | Some (n, f) -> Printf.fprintf oc "{ \"n\": %d, \"factor\": %.2f }" n f
        | None -> output_string oc "null"
      in
      Printf.fprintf oc
        "  ],\n  \"fitted_exponent_after\": { \"offline\": %.3f, \"online\": %.3f },\n"
        exp_offline exp_online;
      Printf.fprintf oc "  \"speedup\": { \"offline\": %a, \"online\": %a }\n"
        pp_speedup_json sp_offline pp_speedup_json sp_online)

(* CI tripwire: 5k tasks through the full offline sweep plus the online
   drain, under a wall-clock budget the quadratic code cannot meet. *)
let smoke () =
  let budget =
    match Sys.getenv_opt "DTSCHED_SMOKE_BUDGET" with
    | Some s -> (match float_of_string_opt s with Some v when v > 0.0 -> v | _ -> 2.0)
    | None -> 2.0
  in
  let n = 5_000 in
  let tasks = make_tasks n in
  let capacity = capacity_for tasks in
  let instance = Instance.make ~capacity tasks in
  let spacing = mean_comm tasks /. 2.0 in
  let (_ : float list * float), elapsed =
    wall (fun () ->
        (offline_after instance, online_after ~capacity ~spacing tasks))
  in
  Printf.printf
    "core-smoke: %d-task offline sweep + online drain in %.3fs (budget %.1fs): %s\n"
    n elapsed budget
    (if elapsed <= budget then "PASS" else "FAIL");
  if elapsed > budget then exit 1
