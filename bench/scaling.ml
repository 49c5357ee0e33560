(* Fleet scaling experiment: the whole-application portfolio run (one
   independent scheduler per process trace, every candidate heuristic
   tried on each — the paper's 150-process evaluation driven by the Auto
   runtime) executed sequentially and on domain pools of growing size.

   The baseline is warm: one untimed sequential pass runs first, then
   every configuration (sequential and each pool size) is timed as the
   median of [repeats] runs, so a speedup compares the pool against a
   warm sequential run, not against the cold first pass.

   Emits BENCH_fleet.json with machine-readable wall-clock numbers so the
   perf trajectory is tracked from PR to PR.  The JSON records the host's
   recommended domain count: on a single-core container every pool size
   necessarily measures ~1x, and the file says so rather than hiding it. *)

let repeats = 5

(* The result of the last run and the median wall clock of [repeats]. *)
let median_wall f =
  let result = ref None in
  let times =
    Array.init repeats (fun _ ->
        let t0 = Unix.gettimeofday () in
        result := Some (f ());
        Unix.gettimeofday () -. t0)
  in
  (Option.get !result, Dt_stats.Descriptive.median times)

let run () =
  Printf.printf "\n== scaling: fleet wall-clock vs domain count ==\n\n";
  let traces = Lazy.force Data.hf_traces in
  let policy = Dt_trace.Fleet.Portfolio Dt_core.Heuristic.all in
  ignore (Dt_trace.Fleet.run policy traces);
  let seq, seq_wall = median_wall (fun () -> Dt_trace.Fleet.run policy traces) in
  let recommended = Domain.recommended_domain_count () in
  let domain_counts =
    List.sort_uniq Int.compare [ 1; 2; 4; max 1 (recommended - 1) ]
  in
  let runs =
    List.map
      (fun domains ->
        let (outcome, wall_s), stats =
          Dt_par.Pool.with_pool ~num_domains:domains (fun pool ->
              let timed = median_wall (fun () -> Dt_trace.Fleet.run ~pool policy traces) in
              (timed, Dt_par.Pool.stats pool))
        in
        let identical =
          outcome.Dt_trace.Fleet.application_makespan
          = seq.Dt_trace.Fleet.application_makespan
          && outcome.Dt_trace.Fleet.mean_ratio = seq.Dt_trace.Fleet.mean_ratio
          && Array.for_all2
               (fun (a : Dt_trace.Fleet.process_outcome)
                    (b : Dt_trace.Fleet.process_outcome) ->
                 a.Dt_trace.Fleet.makespan = b.Dt_trace.Fleet.makespan
                 && Dt_core.Heuristic.name a.Dt_trace.Fleet.chosen
                    = Dt_core.Heuristic.name b.Dt_trace.Fleet.chosen)
               outcome.Dt_trace.Fleet.processes seq.Dt_trace.Fleet.processes
        in
        (domains, wall_s, seq_wall /. wall_s, identical, stats))
      domain_counts
  in
  Dt_report.Table.print
    ~header:
      [ "configuration"; "wall clock"; "speedup"; "identical results"; "pool jobs/fallbacks/steals" ]
    (( [ "sequential"; Printf.sprintf "%.3f s" seq_wall; "1.00x"; "-"; "-" ] )
    :: List.map
         (fun (d, w, s, id, (st : Dt_par.Pool.stats)) ->
           [
             Printf.sprintf "%d domain%s" d (if d = 1 then "" else "s");
             Printf.sprintf "%.3f s" w;
             Printf.sprintf "%.2fx" s;
             (if id then "yes" else "NO");
             Printf.sprintf "%d/%d/%d" st.Dt_par.Pool.jobs
               st.Dt_par.Pool.fallbacks st.Dt_par.Pool.steals;
           ])
         runs);
  Printf.printf
    "\n(%d traces, portfolio of %d heuristics per process; host recommends %d domains;\n\
    \ median of %d warm runs per configuration, pool counters summed over them)\n"
    (Array.length traces)
    (List.length Dt_core.Heuristic.all)
    recommended repeats;
  List.iter
    (fun (_, _, _, identical, _) ->
      if not identical then
        failwith "scaling: parallel fleet diverged from sequential results")
    runs;
  (* the speedup gate ci.sh enforces on multi-core hosts: the best
     multi-domain run must beat warm sequential, or the parallel path
     lost *)
  let best_multi =
    List.fold_left
      (fun acc (d, _, s, _, _) -> if d >= 2 then Float.max acc s else acc)
      0.0 runs
  in
  Printf.printf
    "GATE best_multi_domain_speedup=%.3f cores=%d gate_skipped_single_core=%b\n"
    best_multi recommended (recommended < 2);
  Provenance.write_artifact ~path:"BENCH_fleet.json" ~experiment:"fleet-scaling" (fun oc ->
      Printf.fprintf oc
        "  \"kernel\": \"%s\",\n\
        \  \"traces\": %d,\n\
        \  \"portfolio_size\": %d,\n\
        \  \"capacity_factor\": 1.5,\n\
        \  \"fast_mode\": %b,\n\
        \  \"recommended_domain_count\": %d,\n\
        \  \"gate_skipped_single_core\": %b,\n\
        \  \"best_multi_domain_speedup\": %.3f,\n\
        \  \"application_makespan\": %.17g,\n\
        \  \"application_lower_bound\": %.17g,\n\
        \  \"mean_ratio\": %.6f,\n\
        \  \"timed_repeats\": %d,\n\
        \  \"sequential_wall_s\": %.6f,\n\
        \  \"runs\": [\n"
        (Provenance.json_escape "hf")
        (Array.length traces)
        (List.length Dt_core.Heuristic.all)
        Data.fast recommended (recommended < 2) best_multi
        seq.Dt_trace.Fleet.application_makespan
        seq.Dt_trace.Fleet.application_lower_bound
        seq.Dt_trace.Fleet.mean_ratio repeats seq_wall;
      List.iteri
        (fun i (d, w, s, identical, (st : Dt_par.Pool.stats)) ->
          Printf.fprintf oc
            "    { \"domains\": %d, \"wall_s\": %.6f, \"speedup\": %.3f, \
             \"identical\": %b, \"pool_jobs\": %d, \"pool_fallbacks\": %d, \
             \"pool_steals\": %d }%s\n"
            d w s identical st.Dt_par.Pool.jobs st.Dt_par.Pool.fallbacks
            st.Dt_par.Pool.steals
            (if i = List.length runs - 1 then "" else ","))
        runs;
      output_string oc "  ]\n")
