(* Johnson's algorithm: the paper's Algorithm 1 and its optimality
   (Theorem 1), checked against exhaustive search on small instances. *)

open Dt_core

let check_float = Alcotest.(check (float 1e-9))

let labels tasks = String.concat "" (List.map (fun (t : Task.t) -> t.Task.label) tasks)

let order_table3 () =
  (* compute-intensive: B(1,3), C(4,4) by increasing comm; then A(3,2),
     D(2,1) by decreasing comp *)
  Alcotest.(check string) "johnson order" "BCAD"
    (labels (Johnson.order (Instance.task_list Paper_examples.table3)))

let omim_table3 () =
  check_float "omim" 12.0 (Johnson.omim (Instance.task_list Paper_examples.table3))

let order_table5 () =
  (* The paper's Figure 6 caption says "BCDAE"; Algorithm 1 as printed
     sorts the communication-intensive group by nonincreasing computation
     time, which gives D(4), E(2), A(1) — i.e. BCDEA. We follow the
     algorithm; see EXPERIMENTS.md. *)
  Alcotest.(check string) "johnson order" "BCDEA"
    (labels (Johnson.order (Instance.task_list Paper_examples.table5)))

let empty_and_singleton () =
  Alcotest.(check int) "empty" 0 (List.length (Johnson.order []));
  let t = Task.make ~id:0 ~comm:2.0 ~comp:5.0 () in
  check_float "singleton omim" 7.0 (Johnson.omim [ t ])

let brute_force_omim tasks =
  let arr = Array.of_list tasks in
  let best = ref Float.infinity in
  Exact.iter_permutations arr (fun perm ->
      let s = Sim.run_order_exn ~capacity:Float.infinity (Array.to_list perm) in
      if Schedule.makespan s < !best then best := Schedule.makespan s);
  !best

let prop_johnson_optimal =
  Generators.prop_test ~count:200 ~name:"Johnson = exhaustive optimum (infinite memory)"
    (Generators.instance_gen ~max_size:6 ())
    (fun instance ->
      let tasks = Instance.task_list instance in
      Float.abs (Johnson.omim tasks -. brute_force_omim tasks) <= 1e-9)

let prop_omim_lower_bounds_heuristics =
  Generators.prop_test ~name:"OMIM lower-bounds every constrained schedule"
    (Generators.instance_gen ~max_size:8 ())
    (fun instance ->
      let tasks = Instance.task_list instance in
      let omim = Johnson.omim tasks in
      let s = Sim.run_order_exn ~capacity:instance.Instance.capacity tasks in
      Schedule.makespan s >= omim -. 1e-9)

let prop_omim_at_least_area_bound =
  Generators.prop_test ~name:"area bound <= OMIM <= serial makespan"
    (Generators.instance_gen ~max_size:10 ())
    (fun instance ->
      let omim = Johnson.omim (Instance.task_list instance) in
      Instance.area_bound instance <= omim +. 1e-9
      && omim <= Instance.serial_makespan instance +. 1e-9)

let suite =
  [
    Alcotest.test_case "order on Table 3" `Quick order_table3;
    Alcotest.test_case "OMIM on Table 3" `Quick omim_table3;
    Alcotest.test_case "order on Table 5" `Quick order_table5;
    Alcotest.test_case "empty and singleton" `Quick empty_and_singleton;
    prop_johnson_optimal;
    prop_omim_lower_bounds_heuristics;
    prop_omim_at_least_area_bound;
  ]

(* Lemma 1 of the paper: swapping two contiguous tasks A, B cannot improve
   the (infinite-memory) schedule when one of its three conditions holds.
   We check the closed-form completion times the proof manipulates. *)
let prop_lemma1 =
  let gen =
    QCheck2.Gen.(
      let dur = map (fun x -> float_of_int x /. 2.0) (int_range 0 20) in
      tup6 dur dur dur dur dur dur)
  in
  let print (cma, cpa, cmb, cpb, t1, t2) =
    Printf.sprintf "A=(%g,%g) B=(%g,%g) t1=%g t2=%g" cma cpa cmb cpb t1 t2
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"Lemma 1 swap conditions" ~print gen
       (fun (cma, cpa, cmb, cpb, t1, t2) ->
         let condition_i = cpa >= cma && cpb >= cmb && cma <= cmb in
         let condition_ii = cpa < cma && cpb < cmb && cpa >= cpb in
         let condition_iii = cpa >= cma && cpb < cmb in
         if not (condition_i || condition_ii || condition_iii) then true
         else begin
           (* completion of the pair when A precedes B, from the proof *)
           let finish cm1 cp1 cm2 cp2 =
             let s_comp1 = Float.max (t1 +. cm1) t2 in
             let s_comp2 = Float.max (s_comp1 +. cp1) (t1 +. cm1 +. cm2) in
             s_comp2 +. cp2
           in
           (* swapping cannot make the pair finish earlier *)
           finish cma cpa cmb cpb <= finish cmb cpb cma cpa +. 1e-9
         end))

let suite = suite @ [ prop_lemma1 ]

(* OMIM is computed without building its witness schedule; the two must
   agree bit for bit. Arbitrary (not dyadic) durations, zeros and the
   empty list included. *)
let prop_omim_is_witness_makespan =
  let dur = QCheck2.Gen.(frequency [ (1, return 0.0); (4, float_bound_inclusive 100.0) ]) in
  let gen =
    QCheck2.Gen.(
      frequency
        [
          (1, return []);
          ( 10,
            map
              (List.mapi (fun id (comm, comp) -> Task.make ~id ~comm ~comp ()))
              (list_size (int_range 1 40) (pair dur dur)) );
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"omim = makespan of omim_schedule, bit for bit"
       ~print:(fun ts ->
         String.concat "; "
           (List.map (fun (t : Task.t) -> Printf.sprintf "%h/%h" t.Task.comm t.Task.comp) ts))
       gen
       (fun tasks ->
         Int64.equal
           (Int64.bits_of_float (Johnson.omim tasks))
           (Int64.bits_of_float (Schedule.makespan (Johnson.omim_schedule tasks)))))

let suite = suite @ [ prop_omim_is_witness_makespan ]
