(* Aggregated test runner for the whole repository. *)

let () =
  Alcotest.run "dtsched"
    [
      ("stats", Test_stats.suite);
      ("model", Test_model.suite);
      ("sim", Test_sim.suite);
      ("residency", Test_residency.suite);
      ("iheap", Test_iheap.suite);
      ("johnson", Test_johnson.suite);
      ("heuristics", Test_heuristics.suite);
      ("equiv", Test_equiv.suite);
      ("candidates", Test_candidates.suite);
      ("exact", Test_exact.suite);
      ("reduction", Test_reduction.suite);
      ("lp", Test_lp.suite);
      ("lp-schedule", Test_lp_schedule.suite);
      ("batched", Test_batched.suite);
      ("tensor", Test_tensor.suite);
      ("ga", Test_ga.suite);
      ("chem", Test_chem.suite);
      ("trace", Test_trace.suite);
      ("report", Test_report.suite);
      ("extensions", Test_extensions.suite);
      ("dag", Test_dag.suite);
      ("par", Test_par.suite);
      ("iobuf", Test_iobuf.suite);
      ("runtime", Test_runtime.suite);
      ("cluster", Test_cluster.suite);
    ]
