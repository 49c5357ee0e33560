(* dtsched benchmark. See README.md in this directory for the workloads,
   the load model and the layer -> metric -> workload map.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
   main.exe compare RESULT_A.json RESULT_B.json *)

open Perfbench
open Common
module Pool = Dt_par.Pool
module Fleet = Dt_trace.Fleet
module Cluster = Dt_cluster.Cluster
module H = Dt_core.Heuristic

type mode = Fleet_mode | Cluster_mode | Serve_mode

let workloads =
  [
    ("fleet-hf", (Fleet_mode, Hf));
    ("cluster-ccsd", (Cluster_mode, Ccsd));
    ("serve-hf", (Serve_mode, Hf));
    ("serve-ccsd-text", (Serve_mode, Ccsd));
  ]

let results_dir = ".bench_results"

(* Sessions replayed against each fresh server before it is measured. *)
let warmup_sessions = 15

type setup = {
  setup_times : float array;  (** generation + server start + warm-up, per repetition, at reference speed *)
  gen_times : float array;
  traces : Dt_trace.Trace.t array;
  plans : Serve.plan array;
  server : Serve.server option;
}

(* Set-up, three times over: generate the inputs from the seed (the three
   must agree) and, with [server], fork a server and warm it up. Every
   server but the last is shut down again, which exercises SHUTDOWN. *)
let setup ?(recorder = Span.create ()) ~server kind ~seed =
  let fr = Serve.framing kind in
  let setup_times = Array.make 3 0.0 and gen_times = Array.make 3 0.0 in
  let last = ref None in
  for k = 0 to 2 do
    let t, (traces, plans, srv) =
      scaled_time (fun () ->
          let t0 = now () in
          let traces = Span.span recorder ~id:k "chem.generate" (fun () -> generate kind ~seed) in
          gen_times.(k) <- now () -. t0;
          let plans = if server then Array.map (Serve.plan fr) traces else [||] in
          let srv =
            if server then begin
              let srv = Serve.start_server () in
              Serve.pass ~count:warmup_sessions fr srv (Serve.tally fr plans) plans ~expected:None;
              Some srv
            end
            else None
          in
          (traces, plans, srv))
    in
    setup_times.(k) <- t;
    (match !last with
    | Some (prev, _, prev_srv) ->
        check (prev = traces) (fun () -> "the same seed generated different inputs");
        Option.iter Serve.stop_server prev_srv
    | None -> ());
    last := Some (traces, plans, srv)
  done;
  let traces, plans, server = Option.get !last in
  (* the two discarded generations are garbage now: collect them before
     anything is timed, so no measurement pays for their major GC *)
  Gc.compact ();
  { setup_times; gen_times; traces; plans; server }

(* [unit_s] is the fastest time of one unit of work at reference speed:
   a whole library call offline, a pass of the sessions on serve
   workloads. *)
let emit_common_e2e s ~tasks_per_unit ~requests_per_unit ~unit_s ~units ~sessions ~rtts =
  emitf ~samples:3 "setup_s" "s" (Stats.median s.setup_times);
  emitf ~samples:units "tasks_per_s" "1/s" (Float.of_int tasks_per_unit /. unit_s);
  emitf ~samples:units "requests_per_s" "1/s" (Float.of_int requests_per_unit /. unit_s);
  emit_percentile "session_p50_ms" "ms" ~scale:1e3 sessions 0.5;
  emit_percentile "session_p90_ms" "ms" ~scale:1e3 sessions 0.9;
  emit_percentile "rtt_p50_us" "us" ~scale:1e6 rtts 0.5;
  emit_percentile "rtt_p99_us" "us" ~scale:1e6 rtts 0.99

let max_of a = Array.fold_left Float.max Float.neg_infinity a

(* ---- end-to-end runs (untraced) ---------------------------------- *)

(* Offline: the measured loop runs the library call (a unit of
   throughput) back to back, each one scaled to reference speed by the
   median of the calibrations just before and just after it, stolen time
   left out. The same planning, decomposed and timed per process and per
   candidate (the latency samples), runs once before and once after the
   loop. *)
let offline_e2e mode kind ~seed ~seconds =
  let s = setup ~server:false kind ~seed in
  let traces = s.traces in
  let n = Array.length traces in
  (* the reference pass runs before the pool exists: with a single
     domain, its minor collections need no cross-domain rendezvous *)
  let decisions = Offline.reference traces in
  let omims = Array.map (fun d -> d.Offline.omim) decisions in
  let process_runs = ref [] and candidate_runs = ref [] in
  let pool = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      let topo = Offline.topology traces in
      let last_fleet = ref None and first_cluster = ref None in
      let unit () =
        match mode with
        | Fleet_mode ->
            let o = Fleet.run ~pool portfolio traces in
            Offline.check_fleet decisions o;
            last_fleet := Some o
        | _ ->
            let o = Cluster.run ~pool ~config:Offline.cluster_config topo portfolio traces in
            Offline.check_cluster decisions ~first:!first_cluster o;
            if !first_cluster = None then first_cluster := Some o
      in
      let decomposed () =
        let processes, candidates = Offline.timed_pass pool traces decisions in
        process_runs := processes :: !process_runs;
        candidate_runs := candidates :: !candidate_runs
      in
      let burst () = Array.init 5 (fun _ -> calibrate ()) in
      decomposed ();
      let before = ref (burst ()) in
      let times =
        timed_loop ~seconds (fun () ->
            let steal0 = steal_seconds () and t0 = now () in
            unit ();
            let t = unstolen (now () -. t0) ~steal0 in
            let after = burst () in
            let c = Stats.median (Array.append !before after) in
            before := after;
            t *. to_reference c)
      in
      decomposed ();
      let ratio, app_ratio =
        match (!last_fleet, !first_cluster) with
        | Some o, _ -> (o.Fleet.mean_ratio, o.Fleet.application_makespan /. o.Fleet.application_lower_bound)
        | None, Some o ->
            ( Offline.mean
                (Offline.process_ratios ~omims o.Cluster.cooperative.Dt_cluster.Link_sim.process_makespans),
              o.Cluster.application_makespan /. max_of omims )
        | None, None -> assert false
      in
      emit_common_e2e s ~tasks_per_unit:(total_tasks traces) ~requests_per_unit:n
        ~unit_s:(Array.fold_left Float.min Float.infinity times) ~units:(Array.length times)
        ~sessions:(item_best !process_runs) ~rtts:(item_best !candidate_runs);
      emitf ~samples:n "makespan_ratio" "ratio" ratio;
      emitf ~samples:n "app_makespan_ratio" "ratio" app_ratio;
      emit "peak_rss_mb" "MiB" (peak_rss_mb "self"))

let serve_e2e kind ~seed ~seconds =
  Dt_runtime.Net.ignore_sigpipe ();
  Serve.pinned @@ fun () ->
  let fr = Serve.framing kind in
  let s = setup ~server:true kind ~seed in
  let srv = Option.get s.server and plans = s.plans in
  let expected = Array.map (Serve.engine_replay no_hook) plans in
  let omims = Array.map (fun t -> Dt_core.Johnson.omim t.Dt_trace.Trace.tasks) s.traces in
  let t = Serve.tally fr plans in
  let passes =
    timed_loop ~seconds (fun () ->
        Serve.pass ~scaled:true fr srv t plans ~expected:(Some expected);
        Array.fold_left ( +. ) 0.0 (List.hd t.Serve.passes).Serve.full)
  in
  let rss = peak_rss_mb (string_of_int srv.Serve.pid) in
  Serve.stop_server srv;
  emit_common_e2e s ~tasks_per_unit:(total_tasks s.traces)
    ~requests_per_unit:(Array.fold_left (fun acc p -> acc + Serve.requests_of p) 0 plans)
    ~unit_s:(Array.fold_left ( +. ) 0.0 (item_best (List.map (fun p -> p.Serve.full) t.Serve.passes)))
    ~units:(Array.length passes)
    ~sessions:(item_best (List.map (fun p -> p.Serve.session) t.Serve.passes))
    ~rtts:(item_best (List.map (fun p -> p.Serve.rtt) t.Serve.passes));
  emitf ~samples:(Array.length plans) "makespan_ratio" "ratio"
    (Offline.mean (Offline.process_ratios ~omims t.Serve.makespans));
  emitf ~samples:(Array.length plans) "app_makespan_ratio" "ratio" (max_of t.Serve.makespans /. max_of omims);
  emit "peak_rss_mb" "MiB" rss

(* ---- traced run: every layer on this workload's inputs ----------- *)

let sum_named spans name =
  Array.fold_left (fun acc sp -> if sp.Span.name = name then acc +. Span.duration sp else acc) 0.0 spans

let durations_named spans name =
  Array.of_list
    (Array.fold_right (fun sp acc -> if sp.Span.name = name then Span.duration sp :: acc else acc) spans [])

let layers =
  [ "chem"; "trace"; "auto"; "core"; "fleet"; "pool"; "cluster"; "engine"; "session"; "protocol"; "net"; "client" ]

let time f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* The workload's own path (its "main" roots) is timed untraced before
   and after its traced run, which gives the tracing overhead; the other
   layers run once, traced, on the same inputs so that every per-layer
   metric is measured on every workload. *)
let traced_run mode kind ~seed ~workload =
  Dt_runtime.Net.ignore_sigpipe ();
  let fr = Serve.framing kind in
  let r = Span.create () in
  let s = Serve.pinned (fun () -> setup ~recorder:r ~server:true kind ~seed) in
  let traces = s.traces and plans = s.plans and srv = Option.get s.server in
  let n_tasks = total_tasks traces in
  let n_requests = Array.fold_left (fun acc p -> acc + Serve.requests_of p) 0 plans in
  let pool = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* engine and session replays in-process; the engine gives the DRAIN
     makespans the TCP sessions must match *)
  let expected =
    Array.mapi
      (fun i p -> Span.span r ~id:i "engine.session" (fun () -> Serve.engine_replay (span_hook r ~id:i) p))
      plans
  in
  let w0 = Gc.minor_words () in
  Array.iteri
    (fun i p -> Span.span r ~id:i "session.replay" (fun () -> Serve.session_replay fr p ~expected:expected.(i)))
    plans;
  let session_words = Gc.minor_words () -. w0 in
  (* pool: a warm pooled Fleet.run against a warm sequential one *)
  ignore (Fleet.run ~pool portfolio traces);
  let st0 = Pool.stats pool and words0, minor0, major0 = gc_counts () in
  let pooled_s, pooled = time (fun () -> Fleet.run ~pool portfolio traces) in
  let st1 = Pool.stats pool and words1, minor1, major1 = gc_counts () in
  let seq_s, seq = time (fun () -> Fleet.run portfolio traces) in
  Array.iteri
    (fun i (p : Fleet.process_outcome) ->
      let q = seq.Fleet.processes.(i) in
      check
        (p.Fleet.chosen = q.Fleet.chosen && same_float p.Fleet.makespan q.Fleet.makespan)
        (fun () -> Printf.sprintf "process %d: pooled and sequential Fleet.run differ" i))
    pooled.Fleet.processes;
  (* offline layers; TCP sessions *)
  let topo = Offline.topology traces in
  let tcp_untraced () =
    let t = Serve.tally fr plans in
    let cpu0 = cpu_seconds srv.Serve.pid and self0 = self_cpu_seconds () in
    let wall, () = Serve.pinned (fun () -> time (fun () -> Serve.pass fr srv t plans ~expected:(Some expected))) in
    let cpu1 = cpu_seconds srv.Serve.pid and self1 = self_cpu_seconds () in
    let server_cpu = match (cpu0, cpu1) with Some a, Some b -> (b -. a) /. wall | _ -> Float.nan in
    (wall, server_cpu, (self1 -. self0) /. wall, t)
  in
  let tcp_traced () =
    let first = r.Span.len in
    let t = Serve.tally fr plans in
    let wall, () =
      Serve.pinned (fun () -> time (fun () -> Serve.pass ~recorder:r fr srv t plans ~expected:(Some expected)))
    in
    let spans = Span.spans r in
    let roots = ref [] in
    for i = first to Array.length spans - 1 do
      if spans.(i).Span.parent < 0 then roots := i :: !roots
    done;
    (wall, !roots, t)
  in
  let untraced_main () =
    match mode with
    | Fleet_mode -> (fst (time (fun () -> Fleet.run ~pool portfolio traces)), None)
    | Cluster_mode ->
        (fst (time (fun () -> Cluster.run ~pool ~config:Offline.cluster_config topo portfolio traces)), None)
    | Serve_mode ->
        let (wall, _, _, _) as pass = tcp_untraced () in
        (wall, Some pass)
  in
  let u1, _ = untraced_main () in
  let main_s, main_roots, decisions, cres, tcp =
    match mode with
    | Fleet_mode ->
        let wall, (root, d) = time (fun () -> Offline.traced_plan r pool traces) in
        (wall, [ root ], d, Offline.traced_balance r topo traces d, None)
    | Cluster_mode ->
        let root = Span.enter r ~id:(-1) "cluster.run" in
        let wall, (d, c) =
          time (fun () ->
              let _, d = Offline.traced_plan r pool traces in
              (d, Offline.traced_balance r topo traces d))
        in
        Span.leave r root;
        (wall, [ root ], d, c, None)
    | Serve_mode ->
        let wall, roots, t = tcp_traced () in
        let _, d = Offline.traced_plan r pool traces in
        (wall, roots, d, Offline.traced_balance r topo traces d, Some t)
  in
  let u2, plain = untraced_main () in
  Offline.check_fleet decisions pooled;
  if mode = Cluster_mode then begin
    let o = Cluster.run ~pool ~config:Offline.cluster_config topo portfolio traces in
    check
      (same_float o.Cluster.application_makespan cres.Offline.cooperative.Dt_cluster.Link_sim.makespan
      && same_float o.Cluster.independent_makespan cres.Offline.independent.Dt_cluster.Link_sim.makespan
      && o.Cluster.migrations = cres.Offline.migrations)
      (fun () -> "traced cluster decomposition differs from Cluster.run")
  end;
  let tcp_wall, server_cpu, client_cpu, t_plain =
    match plain with Some pass -> pass | None -> tcp_untraced ()
  in
  let t_traced = match tcp with Some t -> t | None -> let _, _, t = tcp_traced () in t in
  let server_words = Serve.server_minor_words_per_req srv in
  Serve.pinned (fun () -> Serve.stop_server srv);
  (* ---- per-layer report ---- *)
  let spans = Span.spans r in
  let self = Span.self_times spans and share = Span.attributed spans in
  let untraced_s = (u1 +. u2) /. 2.0 in
  let accounted =
    List.fold_left
      (fun acc root -> List.fold_left (fun acc i -> acc +. share.(i)) acc (Span.subtree spans root))
      0.0 main_roots
  in
  let per_task name count = sum_named spans name *. 1e9 /. Float.of_int (n_tasks * count) in
  let in_category c = List.length (List.filter (fun h -> Offline.core_span h = c) H.all) in
  let n = Array.length traces in
  emitf ~samples:3 "chem.generate_s" "s" (Stats.median s.gen_times);
  List.iter
    (fun c -> emitf ~samples:(n * in_category c) (c ^ "_ns_per_task") "ns" (per_task c (in_category c)))
    [ "core.static"; "core.gg"; "core.bp"; "core.dynamic"; "core.corrected" ];
  emitf ~samples:n "core.omim_ns_per_task" "ns" (per_task "core.omim" 1);
  let link_idle, cpu_idle, overlap = Offline.quality traces decisions in
  emitf ~samples:n "core.link_idle_share" "share" link_idle;
  emitf ~samples:n "core.cpu_idle_share" "share" cpu_idle;
  emitf ~samples:n "core.overlap_share" "share" overlap;
  let process_ms = durations_named spans "fleet.process" in
  emit_percentile "fleet.process_p50_ms" "ms" ~scale:1e3 process_ms 0.5;
  emit_percentile "fleet.process_p90_ms" "ms" ~scale:1e3 process_ms 0.9;
  emitf "pool.jobs" "count" (Float.of_int (st1.Pool.jobs - st0.Pool.jobs));
  emitf "pool.fallbacks" "count" (Float.of_int (st1.Pool.fallbacks - st0.Pool.fallbacks));
  emitf "pool.steals" "count" (Float.of_int (st1.Pool.steals - st0.Pool.steals));
  emitf "pool.speedup_vs_warm_seq" "ratio" (seq_s /. pooled_s);
  emitf "gc.minor_collections" "count" (Float.of_int (minor1 - minor0));
  emitf "gc.major_collections" "count" (Float.of_int (major1 - major0));
  emitf "gc.minor_words_per_task" "words" ((words1 -. words0) /. Float.of_int n_tasks);
  emitf "cluster.balance_s" "s" (sum_named spans "cluster.balance");
  emitf "cluster.link_sim_s" "s" (sum_named spans "cluster.link_sim");
  emitf "cluster.migrations" "count" (Float.of_int cres.Offline.migrations);
  emitf "cluster.link_util_mean" "share"
    (Offline.mean
       (Array.map (fun (_, _, u) -> u) (Dt_cluster.Link_sim.utilisation cres.Offline.cooperative)));
  emitf ~samples:n "engine.submit_ns" "ns" (sum_named spans "engine.submit" *. 1e9 /. Float.of_int n_tasks);
  emitf ~samples:n "engine.drain_ns_per_task" "ns" (sum_named spans "engine.drain" *. 1e9 /. Float.of_int n_tasks);
  let session_s = sum_named spans "session.replay" in
  emitf ~samples:n_requests "session.ns_per_req" "ns" (session_s *. 1e9 /. Float.of_int n_requests);
  emitf ~samples:n_requests "session.minor_words_per_req" "words" (session_words /. Float.of_int n_requests);
  emitf ~samples:n_requests "protocol.encode_ns_per_req" "ns"
    (sum_named spans "protocol.encode" *. 1e9 /. Float.of_int n_requests);
  emitf ~samples:n_requests "protocol.decode_ns_per_req" "ns"
    (sum_named spans "protocol.decode" *. 1e9 /. Float.of_int n_requests);
  emitf ~samples:n_requests "server.loop_us_per_req" "us" ((tcp_wall -. session_s) *. 1e6 /. Float.of_int n_requests);
  emitf "server.cpu_share" "share" server_cpu;
  emitf "client.cpu_share" "share" client_cpu;
  check (server_words <> None) (fun () -> "STATS carries no minor_words_per_req");
  emit "server.minor_words_per_req" "words" server_words;
  let by_code = Hashtbl.copy t_plain.Serve.errors in
  Hashtbl.iter
    (fun code c -> Hashtbl.replace by_code code (c + Option.value (Hashtbl.find_opt by_code code) ~default:0))
    t_traced.Serve.errors;
  note "server.errors by code: %s"
    (match Hashtbl.fold (fun code c acc -> Printf.sprintf "%s=%d" code c :: acc) by_code [] with
    | [] -> "none"
    | l -> String.concat " " (List.sort compare l));
  emitf "server.errors" "count" (Float.of_int (Hashtbl.fold (fun _ c acc -> acc + c) by_code 0));
  emitf "trace.overhead_share" "share" ((main_s -. untraced_s) /. untraced_s);
  emitf "trace.accounted_share" "share" (accounted /. untraced_s);
  let by_layer = Span.by_layer spans self in
  List.iter
    (fun l -> emitf (l ^ ".self_s") "s" (Option.value (List.assoc_opt l by_layer) ~default:0.0))
    layers;
  (try Unix.mkdir results_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat results_dir (Printf.sprintf "spans-%s-seed%d.tsv" workload seed) in
  let oc = open_out path in
  Span.write oc spans;
  close_out oc

(* ---- report ------------------------------------------------------ *)

let metric_json m = Json.Obj [ ("value", match m.value with Some v -> Json.Num v | None -> Json.Null); ("unit", Json.Str m.unit_) ]

let report ~fingerprint ~workload ~seed ~seconds ~trace =
  let ms = List.rev !metrics in
  let correct = ledger.failed = 0 && ledger.attempted > 0 in
  Printf.printf "# workload %s, seed %d, %g s, trace %d\n" workload seed seconds trace;
  Printf.printf "# fingerprint %s\n" (Json.to_string (Fingerprint.to_json fingerprint));
  List.iter (fun l -> Printf.printf "# %s\n" l) (List.rev !notes);
  if Stats.Samples.length calibrations > 0 then begin
    let c = Stats.sorted (Stats.Samples.to_array calibrations) in
    Printf.printf "# calibration loop: median %.3f ms, range %.3f-%.3f ms, n=%d (reference %.3f ms)\n"
      (1e3 *. Stats.median c) (1e3 *. c.(0)) (1e3 *. c.(Array.length c - 1)) (Array.length c)
      (1e3 *. calibration_reference)
  end;
  if !unit_times <> [||] then
    Printf.printf "# unit times at reference speed (s): %s\n"
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") !unit_times)));
  List.iter
    (fun m ->
      Printf.printf "# %-32s %s %s (n=%d)\n" m.name
        (match m.value with Some v -> Printf.sprintf "%.6g" v | None -> "null")
        m.unit_ m.samples)
    ms;
  let result =
    Json.Obj
      [
        ("fingerprint", Fingerprint.to_json fingerprint);
        ("workload", Json.Str workload);
        ("seed", Json.Num (Float.of_int seed));
        ("seconds", Json.Num seconds);
        ("trace", Json.Num (Float.of_int trace));
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (Float.of_int ledger.attempted));
        ("failed", Json.Num (Float.of_int ledger.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 match metric_json m with
                 | Json.Obj l -> (m.name, Json.Obj (l @ [ ("samples", Json.Num (Float.of_int m.samples)) ]))
                 | j -> (m.name, j))
               ms) );
      ]
  in
  (try Unix.mkdir results_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc =
    open_out (Filename.concat results_dir (Printf.sprintf "%s-seed%d-trace%d.json" workload seed trace))
  in
  output_string oc (Json.to_string result ^ "\n");
  close_out oc;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (Float.of_int ledger.attempted));
            ("failed", Json.Num (Float.of_int ledger.failed));
            ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_json m)) ms));
          ]));
  correct

(* Two result files, side by side, only when measured on the same host. *)
let compare_results a b =
  let load path =
    match Fingerprint.read_file path with
    | None -> failwith ("cannot read " ^ path)
    | Some s -> Json.parse s
  in
  let ja = load a and jb = load b in
  let fp j =
    match Json.member "fingerprint" j with
    | Some f -> Fingerprint.of_json f
    | None -> failwith "result has no fingerprint"
  in
  match Fingerprint.mismatches (fp ja) (fp jb) with
  | _ :: _ as diffs ->
      List.iter (fun (k, va, vb) -> Printf.eprintf "fingerprint differs: %s: %S vs %S\n" k va vb) diffs;
      prerr_endline "refusing to compare results from different hosts or settings";
      exit 2
  | [] ->
      let metrics j = match Json.member "metrics" j with Some (Json.Obj l) -> l | _ -> [] in
      let value m = match Json.member "value" m with Some (Json.Num v) -> Some v | _ -> None in
      let mb = metrics jb in
      List.iter
        (fun (name, ma) ->
          match (value ma, Option.bind (List.assoc_opt name mb) value) with
          | Some va, Some vb ->
              Printf.printf "%-32s %14.6g %14.6g %8.4f\n" name va vb (if va <> 0.0 then vb /. va else Float.nan)
          | _ -> Printf.printf "%-32s %14s %14s\n" name "-" "-")
        (metrics ja)

let () =
  match Array.to_list Sys.argv with
  | [ _; "compare"; a; b ] -> compare_results a b
  | _ ->
      let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
      Arg.parse
        [
          ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " (List.map fst workloads));
          ("--seed", Arg.Set_int seed, " input seed");
          ("--seconds", Arg.Set_float seconds, " measuring time");
          ("--trace", Arg.Set_int trace, " 1: per-layer traced run, 0: end-to-end run");
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "main.exe --workload NAME --seed N --seconds S --trace 0|1 | main.exe compare A.json B.json";
      let mode, kind =
        match List.assoc_opt !workload workloads with
        | Some w -> w
        | None ->
            prerr_endline ("unknown workload " ^ !workload);
            exit 2
      in
      if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
      if not (!seconds > 0.0) then (prerr_endline "--seconds must be positive"; exit 2);
      let fingerprint = Fingerprint.collect ~source_dirs:[ "lib"; "bin"; "perfbench" ] in
      (match (!trace, mode) with
      | 1, _ -> traced_run mode kind ~seed:!seed ~workload:!workload
      | _, Serve_mode -> serve_e2e kind ~seed:!seed ~seconds:!seconds
      | _, _ -> offline_e2e mode kind ~seed:!seed ~seconds:!seconds);
      if !trace = 0 then
        emitf ~samples:ledger.attempted "ok_share" "share"
          (1.0 -. (Float.of_int ledger.failed /. Float.of_int (max 1 ledger.attempted)));
      let correct = report ~fingerprint ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace in
      exit (if correct then 0 else 1)
