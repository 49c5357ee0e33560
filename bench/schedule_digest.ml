(* Bit-identity check on real inputs: an MD5 over every heuristic's
   schedule on the seed-1 HF and CCSD chemistry traces of the benchmark
   (150 processes each, capacity 1.5 m_c), plus each process's portfolio
   winner, its makespan and OMIM. Optimisations of the scheduling core
   must leave this digest unchanged.

     dune exec bench/schedule_digest.exe                # print the digest
     dune exec bench/schedule_digest.exe -- --expect D  # exit 1 unless D *)

open Dt_core

let traces kind =
  let cluster = Dt_ga.Cluster.cascade and seed = 1 in
  match kind with
  | `Hf ->
      Dt_trace.Trace.of_task_lists ~prefix:"hf"
        (Dt_chem.Workload.hf_trace_set ~seed ~cluster ~nbf:3000 ())
  | `Ccsd ->
      Dt_trace.Trace.of_task_lists ~prefix:"ccsd"
        (Dt_chem.Workload.ccsd_trace_set ~seed ~cluster ~n_occ:29 ~n_virt:420 ())

let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

(* The digest of one process: every entry of every candidate's schedule,
   in schedule order, then the winner, its makespan and OMIM. *)
let process_digest trace =
  let capacity = 1.5 *. Dt_trace.Trace.min_capacity trace in
  let instance = Dt_trace.Trace.to_instance trace ~capacity in
  let b = Buffer.create 65536 in
  List.iter
    (fun h ->
      Buffer.add_string b (Heuristic.name h);
      Array.iter
        (fun (e : Schedule.entry) ->
          let t = e.Schedule.task in
          Buffer.add_int64_le b (Int64.of_int t.Task.id);
          add_float b t.Task.comm;
          add_float b t.Task.comp;
          add_float b t.Task.mem;
          add_float b e.Schedule.s_comm;
          add_float b e.Schedule.s_comp)
        (Heuristic.run h instance).Schedule.entries)
    Heuristic.all;
  let winner, sched = Auto.select ~candidates:Heuristic.all instance in
  Buffer.add_string b (Heuristic.name winner);
  add_float b (Schedule.makespan sched);
  add_float b (Johnson.omim trace.Dt_trace.Trace.tasks);
  Digest.string (Buffer.contents b)

let () =
  let expect =
    match Array.to_list Sys.argv with
    | [ _ ] -> None
    | [ _; "--expect"; d ] -> Some d
    | _ ->
        prerr_endline "usage: schedule_digest [--expect HEX]";
        exit 2
  in
  let per_process =
    List.concat_map (fun k -> Array.to_list (Array.map process_digest (traces k))) [ `Hf; `Ccsd ]
  in
  let digest = Digest.to_hex (Digest.string (String.concat "" per_process)) in
  Printf.printf "schedule digest (HF + CCSD seed 1, %d processes): %s\n" (List.length per_process)
    digest;
  match expect with
  | Some d when d <> digest ->
      Printf.printf "FAIL: expected %s\n" d;
      exit 1
  | Some _ | None -> ()
