(* The flat candidate index against the list scan it replaces: random
   interleavings of add, remove and select, checked step by step against
   the frozen [Dt_reference.Dyn.select] on the present tasks that fit.
   Plus its error and lifetime contracts and the allocation budgets of
   the loops built on it. *)

open Dt_core

type op =
  | Add of int (* slot *)
  | Remove of int
  | Select of {
      crit : Dynamic_rules.criterion;
      filter : bool;
      used : float;
      kcap : float;
      cpu_free : float;
      now : float;
    }

(* Sizes 0, 1 and 2^k +- 1 around the segment trees' padding edges. *)
let size_gen =
  QCheck2.Gen.(
    frequency
      [
        (1, return 0);
        (1, return 1);
        (5, oneofl [ 2; 3; 4; 5; 7; 8; 9; 15; 16; 17; 31; 32; 33 ]);
        (2, int_range 0 40);
      ])

(* Few distinct values, so comm, mem and acceleration tie often; comm 0
   gives acceleration infinity, and 1 + 5e-13 sits inside the 1e-12 idle
   tolerance of 1. *)
let task_gen =
  QCheck2.Gen.(
    let* comm = oneofl [ 0.0; 0.5; 1.0; 1.0 +. 5e-13; 1.5; 2.0; 3.0 ] in
    let* comp = oneofl [ 0.0; 0.5; 1.0; 2.0; 3.0 ] in
    let* mem = oneofl [ 0.0; 0.5; 1.0; 1.5; 2.0; 3.0 ] in
    return (comm, comp, mem))

(* Dense ids in a shuffled slot order, or sparse distinct ids as
   [Instance.make_keep_ids] allows. *)
let ids_gen n =
  QCheck2.Gen.(
    let* sparse = bool in
    let* keys = list_repeat n (int_range 0 1_000_000) in
    let ids =
      if sparse then List.mapi (fun i k -> (k * 64) + i) keys
      else List.init n Fun.id
    in
    (* order the slots by the random keys *)
    return
      (List.map snd
         (List.sort compare (List.mapi (fun i id -> (List.nth keys i, id)) ids))))

(* The CPU frees up around [now] + the comm values, so the min-idle
   filter often binds; sometimes much later, so it does not. *)
let select_gen =
  QCheck2.Gen.(
    let* crit = oneofl Dynamic_rules.all in
    let* filter = frequency [ (4, return true); (1, return false) ] in
    let* used = map (fun x -> float_of_int x /. 2.0) (int_range 0 6) in
    let* kcap =
      frequency
        [ (6, map (fun x -> float_of_int x /. 2.0) (int_range 0 12)); (1, return infinity) ]
    in
    let* now = oneofl [ 0.0; 1.0; 2.5 ] in
    let* lag =
      frequency
        [ (5, map (fun x -> float_of_int x /. 2.0) (int_range (-2) 8)); (1, return 100.0) ]
    in
    return (Select { crit; filter; used; kcap; cpu_free = now +. lag; now }))

let case_gen =
  QCheck2.Gen.(
    let* n = size_gen in
    let* triples = list_repeat n task_gen in
    let* ids = ids_gen n in
    let tasks =
      Array.of_list
        (List.map2 (fun (comm, comp, mem) id -> Task.make ~id ~comm ~comp ~mem ()) triples ids)
    in
    (* the present prefix of the build: none, all or some slots *)
    let* present = frequency [ (2, return 0); (2, return n); (3, int_range 0 n) ] in
    let slot = if n = 0 then return 0 else int_range 0 (n - 1) in
    let* ops =
      list_size (int_range 0 80)
        (frequency
           [
             (2, map (fun s -> Add s) slot);
             (3, map (fun s -> Remove s) slot);
             (5, select_gen);
           ])
    in
    return (tasks, present, ops))

let print_case (tasks, present, ops) =
  let task (t : Task.t) = Printf.sprintf "%d:%g/%g/%g" t.Task.id t.Task.comm t.Task.comp t.Task.mem in
  let op = function
    | Add s -> Printf.sprintf "add %d" s
    | Remove s -> Printf.sprintf "remove %d" s
    | Select { crit; filter; used; kcap; cpu_free; now } ->
        Printf.sprintf "select %s filter=%b used=%g kcap=%g cpu_free=%g now=%g"
          (Dynamic_rules.name crit) filter used kcap cpu_free now
  in
  Printf.sprintf "tasks=[%s] present=%d\n%s"
    (String.concat " " (Array.to_list (Array.map task tasks)))
    present
    (String.concat "\n" (List.map op ops))

let id_of = Option.map (fun (t : Task.t) -> t.Task.id)

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let index_matches_scan (tasks, present, ops) =
  let live = Array.init (Array.length tasks) (fun s -> s < present) in
  Candidates.with_index ~present tasks (fun idx ->
      List.for_all
        (fun op ->
          match op with
          | Add _ | Remove _ when Array.length tasks = 0 -> true
          | Add s ->
              if live.(s) then raises_invalid (fun () -> Candidates.add idx tasks.(s))
              else begin
                Candidates.add idx tasks.(s);
                live.(s) <- true;
                true
              end
          | Remove s ->
              if not live.(s) then raises_invalid (fun () -> Candidates.remove idx tasks.(s))
              else begin
                Candidates.remove idx tasks.(s);
                live.(s) <- false;
                true
              end
          | Select { crit; filter; used; kcap; cpu_free; now } ->
              let fitting =
                List.filteri
                  (fun s (t : Task.t) -> live.(s) && used +. t.Task.mem <= kcap)
                  (Array.to_list tasks)
              in
              let expected =
                Dt_reference.Dyn.select ~min_idle_filter:filter crit ~cpu_free ~now fitting
              in
              let got =
                Candidates.select ~min_idle_filter:filter idx (Dynamic_rules.crit_of crit)
                  ~used ~kcap ~cpu_free ~now
              in
              id_of got = id_of expected
              && Candidates.size idx = Array.fold_left (fun a b -> if b then a + 1 else a) 0 live
              && Array.for_all2
                   (fun (t : Task.t) l -> Candidates.mem idx t.Task.id = l)
                   tasks live)
        ops)

let select_pin =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"Candidates.select = list scan over add/remove/select"
       ~print:print_case case_gen index_matches_scan)

let task ~id ~comm = Task.make ~id ~comm ~comp:1.0 ()

let duplicate_raises () =
  (* a repeat among ids 0..n-1, and among sparse ids *)
  List.iter
    (fun ids ->
      Alcotest.check_raises "duplicate id at build"
        (Invalid_argument "Candidates.add: duplicate task id 5") (fun () ->
          Candidates.with_index
            (Array.of_list (List.map (fun id -> task ~id ~comm:1.0) ids))
            (fun _ -> ())))
    [ [ 5; 0; 1; 2; 3; 4; 5 ]; [ 5; 900; 5 ] ];
  Candidates.with_index [| task ~id:7 ~comm:1.0; task ~id:9 ~comm:2.0 |] (fun idx ->
      Alcotest.check_raises "adding a present task"
        (Invalid_argument "Candidates.add: duplicate task id 9") (fun () ->
          Candidates.add idx (task ~id:9 ~comm:2.0));
      Candidates.remove idx (task ~id:7 ~comm:1.0);
      Alcotest.check_raises "removing an absent task"
        (Invalid_argument "Candidates.remove: unknown task id 7") (fun () ->
          Candidates.remove idx (task ~id:7 ~comm:1.0));
      Alcotest.check_raises "removing a task never indexed"
        (Invalid_argument "Candidates.remove: unknown task id 8") (fun () ->
          Candidates.remove idx (task ~id:8 ~comm:1.0));
      Alcotest.(check bool) "unindexed add raises" true
        (raises_invalid (fun () -> Candidates.add idx (task ~id:8 ~comm:1.0))))

let stale_index_raises () =
  let tasks = [| task ~id:0 ~comm:1.0; task ~id:1 ~comm:2.0 |] in
  let leaked = Candidates.with_index tasks Fun.id in
  (* a later index reuses the same arrays; the leaked one must not read
     them *)
  Candidates.with_index [| task ~id:0 ~comm:5.0 |] (fun _ -> ());
  let stale name f = Alcotest.(check bool) name true (raises_invalid f) in
  stale "size" (fun () -> Candidates.size leaked);
  stale "mem" (fun () -> Candidates.mem leaked 0);
  stale "remove" (fun () -> Candidates.remove leaked tasks.(0));
  stale "add" (fun () -> Candidates.add leaked tasks.(0));
  stale "select" (fun () ->
      Candidates.select leaked Candidates.Scmr ~used:0.0 ~kcap:10.0 ~cpu_free:0.0 ~now:0.0);
  (* so is an index released by an exception *)
  let escaped = ref None in
  (try
     Candidates.with_index tasks (fun idx ->
         escaped := Some idx;
         failwith "abort")
   with Failure _ -> ());
  match !escaped with
  | None -> Alcotest.fail "callback not run"
  | Some idx -> stale "after an exception" (fun () -> Candidates.size idx)

let nested_index_invalidates_outer () =
  let outer = [| task ~id:0 ~comm:1.0; task ~id:1 ~comm:2.0 |]
  and inner = [| task ~id:0 ~comm:3.0 |] in
  let pick idx =
    id_of (Candidates.select idx Candidates.Lcmr ~used:0.0 ~kcap:10.0 ~cpu_free:10.0 ~now:0.0)
  in
  Candidates.with_index outer (fun o ->
      Alcotest.(check (option int)) "outer" (Some 1) (pick o);
      Candidates.with_index inner (fun i ->
          Alcotest.(check (option int)) "inner" (Some 0) (pick i);
          Alcotest.(check bool) "outer while inner is live" true
            (raises_invalid (fun () -> pick o)));
      Alcotest.(check bool) "outer after inner" true (raises_invalid (fun () -> pick o)))

(* A fixed 2,000-task instance: comm-bound and compute-bound tasks mixed,
   memory proportional to comm, capacity 1.5 m_c. *)
let alloc_instance =
  let rng = Dt_stats.Rng.create 2024 in
  let tasks =
    List.init 2000 (fun id ->
        let comm = 0.1 +. Dt_stats.Rng.float rng 10.0 in
        let comp = 0.1 +. Dt_stats.Rng.float rng 10.0 in
        Task.make ~id ~comm ~comp ~mem:(comm *. (0.5 +. Dt_stats.Rng.float rng 1.0)) ())
  in
  let m_c = List.fold_left (fun a (t : Task.t) -> Float.max a t.Task.mem) 0.0 tasks in
  Instance.make ~capacity:(1.5 *. m_c) tasks

(* Minor words per task of one call, after a warm-up call that sizes the
   domain's index arrays. *)
let words_per_task f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.minor_words () -. w0) /. float_of_int (Instance.size alloc_instance)

let alloc_budget name budget f () =
  let w = words_per_task f in
  if w > budget then Alcotest.failf "%s: %.1f minor words per task > budget %.0f" name w budget

let alloc_tests =
  List.map
    (fun c ->
      let name = Dynamic_rules.name c in
      Alcotest.test_case (name ^ " <= 150 minor words per task") `Quick
        (alloc_budget name 150.0 (fun () -> Dynamic_rules.run c alloc_instance)))
    Dynamic_rules.all
  @ List.map
      (fun r ->
        let name = Corrected_rules.name r in
        Alcotest.test_case (name ^ " <= 150 minor words per task") `Quick
          (alloc_budget name 150.0 (fun () -> Corrected_rules.run r alloc_instance)))
      Corrected_rules.all
  @ [
      Alcotest.test_case "Auto.select portfolio <= 1200 minor words per task" `Quick
        (alloc_budget "Auto.select" 1200.0 (fun () ->
             Auto.select ~candidates:Heuristic.all alloc_instance));
    ]

(* The executor step allocates only the entry it returns (8 words: the
   record and its two boxed start times); the fleet's per-process call
   adds the trace-to-instance conversion to the portfolio (measured at
   about 910 words per task). *)
let alloc_tests_executor_fleet =
  let capacity = alloc_instance.Instance.capacity in
  let trace = Dt_trace.Trace.make ~name:"alloc" (Instance.task_list alloc_instance) in
  [
    Alcotest.test_case "Sim.schedule_task <= 16 minor words per task" `Quick
      (alloc_budget "Sim.schedule_task" 16.0 (fun () ->
           let st = Sim.initial_state () in
           Array.iter
             (fun t -> ignore (Sys.opaque_identity (Sim.schedule_task st ~capacity t)))
             alloc_instance.Instance.tasks));
    Alcotest.test_case "Fleet.schedule_process <= 1200 minor words per task" `Quick
      (alloc_budget "Fleet.schedule_process" 1200.0 (fun () ->
           Dt_trace.Fleet.schedule_process ~capacity_factor:1.5
             (Dt_trace.Fleet.Portfolio Heuristic.all) trace));
  ]

(* The selections of one add/remove/select script, on the present tasks
   of an index built over [tasks]. *)
let selections (tasks, present, ops) =
  let live = Array.init (Array.length tasks) (fun s -> s < present) in
  Candidates.with_index ~present tasks (fun idx ->
      List.filter_map
        (fun op ->
          match op with
          | Add _ | Remove _ when Array.length tasks = 0 -> None
          | Add s ->
              if not live.(s) then begin
                Candidates.add idx tasks.(s);
                live.(s) <- true
              end;
              None
          | Remove s ->
              if live.(s) then begin
                Candidates.remove idx tasks.(s);
                live.(s) <- false
              end;
              None
          | Select { crit; filter; used; kcap; cpu_free; now } ->
              Some
                (id_of
                   (Candidates.select ~min_idle_filter:filter idx (Dynamic_rules.crit_of crit)
                      ~used ~kcap ~cpu_free ~now)))
        ops)

(* The same script on a domain whose workspace has never held an index. *)
let fresh_selections case = Domain.join (Domain.spawn (fun () -> selections case))

(* A build over tasks with the same keys as the last one reuses its sort
   orders: both builds must still answer like the list scan and like a
   fresh domain. *)
let reuse_matches_fresh =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"a rebuild on equal content = a fresh domain's index"
       ~print:print_case case_gen (fun ((tasks, present, ops) as case) ->
         let again = (Array.map Fun.id tasks, present, ops) in
         index_matches_scan case && index_matches_scan again
         && selections again = fresh_selections case))

type field = Comm | Mem | Comp | Id

(* One task's comm, mem, comp (through its acceleration) or id changed
   after a build at equal length: the next build must not reuse the stale
   keys. *)
let changed_field_rebuilds =
  let gen =
    QCheck2.Gen.(
      let* ((tasks, _, _) as case) = case_gen in
      let* slot = int_range 0 (max 0 (Array.length tasks - 1)) in
      let* field = oneofl [ Comm; Mem; Comp; Id ] in
      return (case, slot, field))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"a rebuild after one changed field = a fresh index"
       ~print:(fun (case, slot, field) ->
         Printf.sprintf "slot %d, field %s\n%s" slot
           (match field with Comm -> "comm" | Mem -> "mem" | Comp -> "comp" | Id -> "id")
           (print_case case))
       gen
       (fun (((tasks, present, ops) as case), slot, field) ->
         Array.length tasks = 0
         ||
         let t = tasks.(slot) in
         let fresh_id = 1 + Array.fold_left (fun a (u : Task.t) -> max a u.Task.id) 0 tasks in
         let id, comm, comp, mem =
           match field with
           | Comm -> (t.Task.id, t.Task.comm +. 0.5, t.Task.comp, t.Task.mem)
           | Mem -> (t.Task.id, t.Task.comm, t.Task.comp, t.Task.mem +. 0.5)
           | Comp -> (t.Task.id, t.Task.comm, t.Task.comp +. 1.0, t.Task.mem)
           | Id -> (fresh_id, t.Task.comm, t.Task.comp, t.Task.mem)
         in
         let changed = Array.copy tasks in
         changed.(slot) <- Task.make ~id ~comm ~comp ~mem ();
         let case' = (changed, present, ops) in
         index_matches_scan case && index_matches_scan case'
         && selections case' = fresh_selections case'))

(* Every answer of an index along one script: after each operation the
   select's pick (for a select), the size, and the membership of every
   task id and of one id no task has. *)
let answers idx tasks live ops =
  let absent_id = 1 + Array.fold_left (fun a (u : Task.t) -> max a u.Task.id) 0 tasks in
  let state pick =
    ( pick,
      Candidates.size idx,
      Candidates.mem idx absent_id,
      Array.to_list (Array.map (fun (t : Task.t) -> Candidates.mem idx t.Task.id) tasks) )
  in
  state None
  :: List.map
       (fun op ->
         match op with
         | Add _ | Remove _ when Array.length tasks = 0 -> state None
         | Add s ->
             if not live.(s) then begin
               Candidates.add idx tasks.(s);
               live.(s) <- true
             end;
             state None
         | Remove s ->
             if live.(s) then begin
               Candidates.remove idx tasks.(s);
               live.(s) <- false
             end;
             state None
         | Select { crit; filter; used; kcap; cpu_free; now } ->
             state
               (id_of
                  (Candidates.select ~min_idle_filter:filter idx (Dynamic_rules.crit_of crit)
                     ~used ~kcap ~cpu_free ~now)))
       ops

let prefix_out_of_range () =
  let tasks = [| task ~id:0 ~comm:1.0; task ~id:1 ~comm:2.0 |] in
  List.iter
    (fun k ->
      Alcotest.check_raises "present prefix"
        (Invalid_argument "Candidates.with_index: present out of range")
        (fun () -> Candidates.with_index ~present:k tasks ignore))
    [ -1; 3 ]

let prefix_build_matches_adds =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"a present-prefix build = an all-absent build plus k adds"
       ~print:print_case case_gen
       (fun (tasks, present, ops) ->
         let live () = Array.init (Array.length tasks) (fun s -> s < present) in
         let built =
           Candidates.with_index ~present tasks (fun idx -> answers idx tasks (live ()) ops)
         in
         let added =
           Candidates.with_index ~present:0 tasks (fun idx ->
               for s = 0 to present - 1 do
                 Candidates.add idx tasks.(s)
               done;
               answers idx tasks (live ()) ops)
         in
         built = added))

let failed_build_leaves_nothing () =
  let good = [| task ~id:0 ~comm:1.0; task ~id:1 ~comm:2.0; task ~id:2 ~comm:3.0 |]
  and dup = [| task ~id:0 ~comm:1.0; task ~id:1 ~comm:2.0; task ~id:1 ~comm:3.0 |] in
  Candidates.with_index good ignore;
  let fails () =
    Alcotest.check_raises "duplicate id"
      (Invalid_argument "Candidates.add: duplicate task id 1") (fun () ->
        Candidates.with_index dup ignore)
  in
  (* the failed build loaded its keys before it raised; the second
     attempt must not take them for a reusable build *)
  fails ();
  fails ();
  Alcotest.(check bool) "a valid build afterwards" true
    (index_matches_scan
       ( good,
         Array.length good,
         [ Select { crit = Dynamic_rules.LCMR; filter = true; used = 0.0; kcap = 10.0; cpu_free = 5.0; now = 0.0 } ] ))

(* A custom static order indexes its own array rather than the
   instance's; it must still follow the frozen reference. *)
let corrected_custom_order =
  let gen =
    QCheck2.Gen.(
      let* i = Generators.instance_gen ~min_size:1 ~max_size:40 () in
      let* order = shuffle_l (Instance.task_list i) in
      let* rule = oneofl Corrected_rules.all in
      return (i, order, rule))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"Corrected ~order = reference, bit for bit"
       ~print:(fun (i, order, rule) ->
         Printf.sprintf "%s %s order=[%s]" (Corrected_rules.name rule) (Generators.instance_print i)
           (String.concat " " (List.map (fun (t : Task.t) -> string_of_int t.Task.id) order)))
       gen
       (fun (i, order, rule) ->
         Test_equiv.same_schedule
           (Corrected_rules.run ~order rule i)
           (Dt_reference.Cor.run ~order rule i)))

let suite =
  [
    select_pin;
    Alcotest.test_case "duplicate and unknown ids raise" `Quick duplicate_raises;
    Alcotest.test_case "an index used after its run raises" `Quick stale_index_raises;
    Alcotest.test_case "building an index invalidates the live one" `Quick
      nested_index_invalidates_outer;
  ]
  @ alloc_tests
  @ [
      reuse_matches_fresh;
      changed_field_rebuilds;
      Alcotest.test_case "a failed build leaves nothing reusable" `Quick
        failed_build_leaves_nothing;
      corrected_custom_order;
    ]
  @ alloc_tests_executor_fleet
  @ [
      prefix_build_matches_adds;
      Alcotest.test_case "a present prefix outside [0, n] raises" `Quick prefix_out_of_range;
    ]
