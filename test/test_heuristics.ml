(* Tests of the three heuristic families on the paper's worked examples
   (hand-simulated per the model semantics) plus structural properties
   shared by every heuristic. *)

open Dt_core

let check_float = Alcotest.(check (float 1e-9))

let labels sched =
  String.concat ""
    (List.map (fun e -> e.Schedule.task.Task.label) (Schedule.entries sched))

let static_orders_table3 () =
  let i = Paper_examples.table3 in
  let seq r = String.concat "" (List.map (fun (t : Task.t) -> t.Task.label)
                                  (Static_rules.order r (Instance.task_list i))) in
  Alcotest.(check string) "OOSIM" "BCAD" (seq Static_rules.OOSIM);
  Alcotest.(check string) "IOCMS" "BDAC" (seq Static_rules.IOCMS);
  Alcotest.(check string) "DOCPS" "CBAD" (seq Static_rules.DOCPS);
  Alcotest.(check string) "IOCCS" "DBAC" (seq Static_rules.IOCCS);
  Alcotest.(check string) "DOCCS" "CABD" (seq Static_rules.DOCCS);
  Alcotest.(check string) "OS" "ABCD" (seq Static_rules.OS)

let static_makespans_table3 () =
  let i = Paper_examples.table3 in
  let mk r = Schedule.makespan (Static_rules.run r i) in
  check_float "OOSIM" 12.0 (mk Static_rules.OOSIM);
  check_float "IOCMS" 14.0 (mk Static_rules.IOCMS);
  check_float "DOCPS" 14.0 (mk Static_rules.DOCPS);
  check_float "IOCCS" 14.0 (mk Static_rules.IOCCS);
  check_float "DOCCS" 14.0 (mk Static_rules.DOCCS)

(* Table 4 with capacity 6, hand-simulated: every dynamic strategy is
   forced to start with B (the only task inducing minimal processor idle
   time); they then diverge on the second pick. *)
let dynamic_table4 () =
  let i = Paper_examples.table4 in
  let run c = Dynamic_rules.run c i in
  let lcmr = run Dynamic_rules.LCMR
  and scmr = run Dynamic_rules.SCMR
  and mamr = run Dynamic_rules.MAMR in
  Alcotest.(check string) "LCMR order" "BDAC" (labels lcmr);
  Alcotest.(check string) "SCMR order" "BACD" (labels scmr);
  Alcotest.(check string) "MAMR order" "BCAD" (labels mamr);
  check_float "LCMR makespan" 23.0 (Schedule.makespan lcmr);
  check_float "SCMR makespan" 25.0 (Schedule.makespan scmr);
  check_float "MAMR makespan" 24.0 (Schedule.makespan mamr);
  List.iter
    (fun s -> Alcotest.(check bool) "valid" true (Schedule.check s = Ok ()))
    [ lcmr; scmr; mamr ]

let dynamic_select_min_idle_first () =
  (* The min-idle filter dominates the criterion: a task with a huge
     communication time that would stall the processor is not selected by
     LCMR when a small task keeps the pipeline busy. *)
  let small = Task.make ~id:0 ~comm:1.0 ~comp:5.0 ()
  and big = Task.make ~id:1 ~comm:9.0 ~comp:5.0 () in
  match
    Candidates.with_index [| small; big |] (fun idx ->
        Candidates.select idx Candidates.Lcmr ~used:0.0 ~kcap:infinity ~cpu_free:0.0 ~now:0.0)
  with
  | Some t -> Alcotest.(check int) "picks the min-idle task" 0 t.Task.id
  | None -> Alcotest.fail "no selection"

let corrected_table5 () =
  let i = Paper_examples.table5 in
  let run r = Corrected_rules.run r i in
  let lc = run Corrected_rules.OOLCMR
  and sc = run Corrected_rules.OOSCMR
  and ma = run Corrected_rules.OOMAMR in
  List.iter
    (fun s ->
      Alcotest.(check bool) "valid" true (Schedule.check s = Ok ());
      Alcotest.(check bool) "peak within capacity" true (Schedule.peak_memory s <= 9.0 +. 1e-9))
    [ lc; sc; ma ];
  (* All three follow B first, then diverge when C (mem 8) does not fit. *)
  Alcotest.(check string) "OOLCMR starts B then corrects" "B"
    (String.sub (labels lc) 0 1);
  let second s = String.sub (labels s) 1 1 in
  Alcotest.(check string) "OOLCMR corrects with largest comm (D)" "D" (second lc);
  Alcotest.(check string) "OOSCMR corrects with smallest comm (E)" "E" (second sc)

let corrected_follows_order_when_memory_allows () =
  (* With ample capacity the corrected heuristics reduce to OOSIM. *)
  let i = Instance.with_capacity Paper_examples.table5 100.0 in
  let reference = Static_rules.run Static_rules.OOSIM i in
  List.iter
    (fun r ->
      let s = Corrected_rules.run r i in
      check_float (Corrected_rules.name r) (Schedule.makespan reference) (Schedule.makespan s))
    Corrected_rules.all

let gg_bp_table3 () =
  let i = Paper_examples.table3 in
  let gg = Gilmore_gomory.run i and bp = Bin_packing.run i in
  Alcotest.(check bool) "GG valid" true (Schedule.check gg = Ok ());
  Alcotest.(check bool) "BP valid" true (Schedule.check bp = Ok ())

let heuristic_registry () =
  Alcotest.(check int) "14 heuristics in the figures" 14 (List.length Heuristic.all);
  List.iter
    (fun h ->
      match Heuristic.of_name (Heuristic.name h) with
      | Some h' -> Alcotest.(check string) "roundtrip" (Heuristic.name h) (Heuristic.name h')
      | None -> Alcotest.failf "of_name failed on %s" (Heuristic.name h))
    (Heuristic.all_with_lp ~k:[ 3; 4; 5; 6 ]);
  Alcotest.(check bool) "unknown name" true (Heuristic.of_name "nope" = None);
  Alcotest.(check bool) "lp.0 rejected" true (Heuristic.of_name "lp.0" = None)

let all_heuristics_cover_all_tasks () =
  let i = Paper_examples.table4 in
  List.iter
    (fun h ->
      let s = Heuristic.run h i in
      Alcotest.(check int) (Heuristic.name h) (Instance.size i) (Schedule.size s);
      Alcotest.(check bool) "valid" true (Schedule.check s = Ok ()))
    Heuristic.all

let prop_all_heuristics_valid =
  Generators.prop_test ~count:120 ~name:"every heuristic yields a valid schedule"
    (Generators.instance_gen ~max_size:9 ())
    (fun instance ->
      List.for_all
        (fun h ->
          let s = Heuristic.run h instance in
          Generators.check_feasible (Heuristic.name h) instance s
          && Schedule.size s = Instance.size instance
          && Schedule.same_order s)
        Heuristic.all)

let prop_ratio_at_least_one =
  Generators.prop_test ~count:120 ~name:"ratio to OMIM is >= 1"
    (Generators.instance_gen ~min_size:1 ~max_size:9 ())
    (fun instance ->
      List.for_all
        (fun h -> Metrics.ratio instance (Heuristic.run h instance) >= 1.0 -. 1e-9)
        Heuristic.all)

let prop_oosim_matches_omim_with_ample_memory =
  Generators.prop_test ~name:"OOSIM = OMIM when memory is ample"
    (Generators.instance_gen ~max_size:9 ())
    (fun instance ->
      let total =
        List.fold_left (fun acc (t : Task.t) -> acc +. t.Task.mem) 0.0
          (Instance.task_list instance)
      in
      let relaxed = Instance.with_capacity instance (total +. 1.0) in
      let omim = Johnson.omim (Instance.task_list instance) in
      Float.abs (Schedule.makespan (Static_rules.run Static_rules.OOSIM relaxed) -. omim)
      <= 1e-9)

let prop_dynamic_greedy_no_unforced_idle =
  Generators.prop_test ~name:"dynamic schedules leave no link idle at t=0"
    (Generators.instance_gen ~min_size:1 ~max_size:8 ())
    (fun instance ->
      List.for_all
        (fun c ->
          match Schedule.entries (Dynamic_rules.run c instance) with
          | [] -> true
          | first :: _ -> first.Schedule.s_comm <= 1e-9)
        Dynamic_rules.all)

let suite =
  [
    Alcotest.test_case "static orders (Table 3)" `Quick static_orders_table3;
    Alcotest.test_case "static makespans (Table 3)" `Quick static_makespans_table3;
    Alcotest.test_case "dynamic schedules (Table 4)" `Quick dynamic_table4;
    Alcotest.test_case "min-idle dominates criterion" `Quick dynamic_select_min_idle_first;
    Alcotest.test_case "corrected schedules (Table 5)" `Quick corrected_table5;
    Alcotest.test_case "corrected = OOSIM with ample memory" `Quick
      corrected_follows_order_when_memory_allows;
    Alcotest.test_case "GG and BP run (Table 3)" `Quick gg_bp_table3;
    Alcotest.test_case "registry" `Quick heuristic_registry;
    Alcotest.test_case "all heuristics cover all tasks" `Quick all_heuristics_cover_all_tasks;
    prop_all_heuristics_valid;
    prop_ratio_at_least_one;
    prop_oosim_matches_omim_with_ample_memory;
    prop_dynamic_greedy_no_unforced_idle;
  ]

let prop_heuristics_deterministic =
  Generators.prop_test ~count:60 ~name:"heuristics are deterministic"
    (Generators.instance_gen ~min_size:1 ~max_size:7 ())
    (fun instance ->
      List.for_all
        (fun h ->
          let a = Heuristic.run h instance and b = Heuristic.run h instance in
          List.for_all2
            (fun e1 e2 ->
              e1.Schedule.task.Task.id = e2.Schedule.task.Task.id
              && e1.Schedule.s_comm = e2.Schedule.s_comm
              && e1.Schedule.s_comp = e2.Schedule.s_comp)
            (Schedule.entries a) (Schedule.entries b))
        Heuristic.all)

let suite = suite @ [ prop_heuristics_deterministic ]

let first_fit_semantics () =
  (* capacity 10, mems 6,5,4,3,2: FF -> [6,4], [5,3,2] *)
  let tasks =
    List.mapi (fun i m -> Task.make ~id:i ~comm:(float_of_int m) ~comp:1.0 ()) [ 6; 5; 4; 3; 2 ]
  in
  let bins = Bin_packing.bins ~capacity:10.0 tasks in
  let mems = List.map (List.map (fun (t : Task.t) -> int_of_float t.Task.mem)) bins in
  Alcotest.(check (list (list int))) "first fit" [ [ 6; 4 ]; [ 5; 3; 2 ] ] mems;
  Alcotest.check_raises "oversized"
    (Invalid_argument "Bin_packing: task 0 needs 11 > capacity 10") (fun () ->
      ignore (Bin_packing.bins ~capacity:10.0 [ Task.make ~id:0 ~comm:11.0 ~comp:0.0 () ]))

let static_tie_break_by_id () =
  (* equal keys: submission order must be preserved *)
  let tasks = List.init 4 (fun i -> Task.make ~id:i ~comm:2.0 ~comp:2.0 ()) in
  let order = Static_rules.order Static_rules.IOCMS tasks in
  Alcotest.(check (list int)) "stable" [ 0; 1; 2; 3 ]
    (List.map (fun (t : Task.t) -> t.Task.id) order)

let of_name_case_insensitive () =
  Alcotest.(check bool) "lowercase" true (Heuristic.of_name "oolcmr" <> None);
  Alcotest.(check bool) "mixed" true (Heuristic.of_name "Gg" <> None);
  Alcotest.(check bool) "lp upper" true (Heuristic.of_name "LP.5" <> None)

let prop_metrics_identities =
  Generators.prop_test ~count:100 ~name:"metrics identities (idle accounting)"
    (Generators.instance_gen ~min_size:1 ~max_size:8 ())
    (fun instance ->
      let s = Heuristic.run (Heuristic.Dynamic Dynamic_rules.MAMR) instance in
      let m = Metrics.evaluate instance s in
      (* processor busy time + idle = makespan *)
      Float.abs (Instance.sum_comp instance +. m.Metrics.comp_idle -. m.Metrics.makespan)
      <= 1e-9
      (* overlap cannot exceed either resource's busy time *)
      && m.Metrics.overlap <= Instance.sum_comp instance +. 1e-9
      && m.Metrics.overlap <= Instance.sum_comm instance +. 1e-9
      && m.Metrics.peak_memory <= instance.Instance.capacity +. 1e-9)

let prop_no_wait_dominates_eager =
  Generators.prop_test ~count:150 ~name:"no-wait makespan >= eager makespan (same order)"
    (Generators.instance_gen ~min_size:1 ~max_size:8 ())
    (fun instance ->
      let tasks = Instance.task_list instance in
      let eager = Schedule.makespan (Sim.run_order_exn ~capacity:Float.infinity tasks) in
      Gilmore_gomory.no_wait_makespan tasks >= eager -. 1e-9)

let examples_match_paper_tables () =
  (* Table 2 *)
  let t2 = Instance.task_list Examples.table2 in
  Alcotest.(check int) "table2 size" 6 (List.length t2);
  let f = List.nth t2 5 in
  Alcotest.(check (float 0.0)) "F comm" 7.0 f.Task.comm;
  Alcotest.(check (float 0.0)) "F comp" 0.5 f.Task.comp;
  Alcotest.(check (float 0.0)) "capacity" 10.0 Examples.table2.Instance.capacity;
  (* Table 4 capacity 6, Table 5 capacity 9 *)
  Alcotest.(check (float 0.0)) "table4 capacity" 6.0 Examples.table4.Instance.capacity;
  Alcotest.(check (float 0.0)) "table5 capacity" 9.0 Examples.table5.Instance.capacity

let batched_with_lp () =
  let i = Instance.of_triples ~capacity:5.0 [ (3.0, 1.0); (2.0, 3.0); (1.0, 2.0); (4.0, 1.0) ] in
  let s = Batched.run ~lp_node_limit:200 ~batch:2 (Heuristic.Lp 2) i in
  Alcotest.(check bool) "valid" true (Schedule.check s = Ok ());
  Alcotest.(check int) "all tasks" 4 (Schedule.size s)

let suite =
  suite
  @ [
      Alcotest.test_case "first-fit semantics" `Quick first_fit_semantics;
      Alcotest.test_case "static tie-break by id" `Quick static_tie_break_by_id;
      Alcotest.test_case "of_name case-insensitive" `Quick of_name_case_insensitive;
      prop_metrics_identities;
      prop_no_wait_dominates_eager;
      Alcotest.test_case "Examples match the paper's tables" `Quick examples_match_paper_tables;
      Alcotest.test_case "batched lp.k" `Quick batched_with_lp;
    ]
