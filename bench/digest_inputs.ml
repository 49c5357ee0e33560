(* What the bit-identity digests (schedule_digest, sim_digest) share: the
   seed-1 chemistry traces of the benchmark, float hashing by bit
   pattern, and the [--expect HEX] check. *)

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

(* Parse the command line, compute [(label, digest)] and print both;
   exit 1 when [--expect] names another digest. *)
let run ~usage compute =
  let expect =
    match Array.to_list Sys.argv with
    | [ _ ] -> None
    | [ _; "--expect"; d ] -> Some d
    | _ ->
        prerr_endline ("usage: " ^ usage ^ " [--expect HEX]");
        exit 2
  in
  let label, digest = compute () in
  Printf.printf "%s: %s\n" label digest;
  match expect with
  | Some d when d <> digest ->
      Printf.printf "FAIL: expected %s\n" d;
      exit 1
  | Some _ | None -> ()
