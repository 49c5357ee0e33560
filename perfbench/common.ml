(* Inputs, correctness ledger, metric table and process probes shared by
   the offline and serve workloads. *)

open Perfbench

let now = Unix.gettimeofday

(* The paper's setting: 150 processes of a 10-node run (Cascade), each
   given 1.5 times its own m_c. *)
type kind = Hf | Ccsd

let capacity_factor = 1.5
let portfolio = Dt_trace.Fleet.Portfolio Dt_core.Heuristic.all

let generate kind ~seed =
  let cluster = Dt_ga.Cluster.cascade in
  match kind with
  | Hf ->
      Dt_trace.Trace.of_task_lists ~prefix:"hf"
        (Dt_chem.Workload.hf_trace_set ~seed ~cluster ~nbf:3000 ())
  | Ccsd ->
      Dt_trace.Trace.of_task_lists ~prefix:"ccsd"
        (Dt_chem.Workload.ccsd_trace_set ~seed ~cluster ~n_occ:29 ~n_virt:420 ())

(* A wrapper around each call into a layer, named "<layer>.<op>": a span
   in the traced run, a timer or nothing otherwise. *)
type hook = { around : 'a. string -> (unit -> 'a) -> 'a }

let no_hook = { around = (fun _ f -> f ()) }
let span_hook r ~id = { around = (fun name f -> Span.span r ~id name f) }

let total_tasks traces = Array.fold_left (fun acc t -> acc + Dt_trace.Trace.size t) 0 traces
let capacity trace = capacity_factor *. Dt_trace.Trace.min_capacity trace
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Correctness ledger: every checked operation counts as attempted; the
   run is correct only when none failed. *)
type ledger = { mutable attempted : int; mutable failed : int }

let ledger = { attempted = 0; failed = 0 }
let reported = ref 0

let check ok what =
  ledger.attempted <- ledger.attempted + 1;
  if not ok then begin
    ledger.failed <- ledger.failed + 1;
    incr reported;
    if !reported <= 20 then prerr_endline ("check failed: " ^ what ())
  end

(* Metric table, in report order. [samples] is the number of values the
   figure summarises (1 for a single measurement). *)
type metric = { name : string; value : float option; unit_ : string; samples : int }

let metrics : metric list ref = ref []
let emit ?(samples = 1) name unit_ value = metrics := { name; value; unit_; samples } :: !metrics
let emitf ?samples name unit_ v = emit ?samples name unit_ (Some v)

(* Percentile with the sample floor; a missing percentile fails the run,
   since the workloads are sized to always provide enough samples. *)
let emit_percentile name unit_ ~scale samples q =
  let sorted = Stats.sorted samples in
  let v = Stats.percentile sorted q in
  check (v <> None) (fun () ->
      Printf.sprintf "%s: %d samples leave fewer than %d beyond p%g" name (Array.length samples)
        Stats.default_floor (100.0 *. q));
  emit ~samples:(Array.length samples) name unit_ (Option.map (fun x -> x *. scale) v)

let proc_lines pid file = Fingerprint.read_lines (Printf.sprintf "/proc/%s/%s" pid file)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.map (fun k -> Float.of_int k /. 1024.0) (int_of_string_opt kb)
          | [] -> None)
      | _ -> None)
    (proc_lines pid "status")

(* User + system CPU seconds of another process (clock ticks at the
   Linux USER_HZ of 100). *)
let cpu_seconds pid =
  match proc_lines (string_of_int pid) "stat" with
  | line :: _ -> (
      match String.rindex_opt line ')' with
      | None -> None
      | Some i -> (
          let fields =
            String.split_on_char ' ' (String.sub line (i + 2) (String.length line - i - 2))
          in
          (* after the command: state is field 3, utime 14, stime 15 *)
          match (List.nth_opt fields 11, List.nth_opt fields 12) with
          | Some u, Some s -> (
              match (int_of_string_opt u, int_of_string_opt s) with
              | Some u, Some s -> Some (Float.of_int (u + s) /. 100.0)
              | _ -> None)
          | _ -> None))
  | [] -> None

let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.minor_collections, s.Gc.major_collections)

(* ---- stolen time -------------------------------------------------
   On that host the hypervisor also takes the virtual CPUs away for a
   while (up to a quarter of the time in some minutes); /proc/stat counts
   it as "steal". A timed unit is charged only the time the CPUs it ran
   on were not stolen: wall time minus their steal, averaged over them. *)

(* CPUs this process may run on, as text ("0-1") and as a list. *)
let allowed_cpus =
  lazy
    (List.find_map
       (fun l ->
         match String.split_on_char ':' l with
         | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
         | _ -> None)
       (proc_lines "self" "status"))

let cpu_list text =
  List.concat_map
    (fun part ->
      match String.split_on_char '-' part with
      | [ a ] -> Option.to_list (int_of_string_opt a)
      | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b when a <= b -> List.init (b - a + 1) (fun i -> a + i)
          | _ -> [])
      | _ -> [])
    (String.split_on_char ',' text)

(* The CPUs the measured work runs on: all allowed ones, or the one the
   serve workloads pin client and server to. *)
let active_cpus = ref (match Lazy.force allowed_cpus with Some t -> cpu_list t | None -> [])

(* Steal of the active CPUs, summed, in seconds (USER_HZ ticks of 10 ms). *)
let steal_seconds () =
  let cpus = !active_cpus in
  List.fold_left
    (fun acc l ->
      match String.split_on_char ' ' l with
      | name :: fields when String.length name > 3 && String.sub name 0 3 = "cpu" -> (
          match int_of_string_opt (String.sub name 3 (String.length name - 3)) with
          | Some cpu when List.mem cpu cpus -> (
              match List.nth_opt fields 7 with
              | Some v -> acc +. (Float.of_string v /. 100.0)
              | None -> acc)
          | _ -> acc)
      | _ -> acc)
    0.0 (Fingerprint.read_lines "/proc/stat")

(* [wall] minus the steal of the active CPUs since [steal0], per CPU. *)
let unstolen wall ~steal0 =
  let n = max 1 (List.length !active_cpus) in
  Float.max (0.1 *. wall) (wall -. ((steal_seconds () -. steal0) /. Float.of_int n))

(* ---- host speed calibration --------------------------------------
   The host this benchmark was tuned on changes speed by up to 2x within
   seconds (a CPU loop there took anywhere from 104 to 195 ms; other
   tenants contend for its caches and memory), so raw wall times of
   identical runs differ by 25-45%. Every timed interval is therefore
   scaled to a reference speed: multiplied by [calibration_reference / c],
   where [c] is the duration of a fixed loop run on the same domain next
   to it. The loop mixes integer work with random updates of a 256 KiB
   array; a register-only loop did not track the drift, this one did.
   No change to the code under test can change the loop, so a slower
   program still shows in full; a slower host mostly does not. *)

(* The loop's duration at the reference speed, in seconds: about its
   duration on that host when it runs fast. *)
let calibration_reference = 4e-4

let calibration_buffer = Domain.DLS.new_key (fun () -> Array.make 32768 0)

(* Every calibration duration measured in this run, for the report. *)
let calibrations = Stats.Samples.create ()
let calibrations_lock = Mutex.create ()

(* Read one byte per cache line of 8 MiB before each calibration, so the
   array is never still cached from the previous one, whatever the
   measured work left behind. *)
let eviction_buffer = Bytes.make (8 lsl 20) 'x'

let evict () =
  let sum = ref 0 in
  let i = ref 0 in
  while !i < Bytes.length eviction_buffer do
    sum := !sum + Char.code (Bytes.unsafe_get eviction_buffer !i);
    i := !i + 64
  done;
  ignore (Sys.opaque_identity !sum)

let calibrate () =
  let a = Domain.DLS.get calibration_buffer in
  evict ();
  let t0 = now () in
  let x = ref 12345 in
  for i = 0 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 32767 in
    a.(j) <- a.(j) + i
  done;
  let c = now () -. t0 in
  Mutex.protect calibrations_lock (fun () -> Stats.Samples.add calibrations c);
  c

(* Factor that brings a time measured just before calibration [c] to
   the reference speed. *)
let to_reference c = calibration_reference /. c

(* [f ()] timed at reference speed, stolen time left out. *)
let scaled_time f =
  let steal0 = steal_seconds () and t0 = now () in
  let v = f () in
  let t = unstolen (now () -. t0) ~steal0 in
  (t *. to_reference (calibrate ()), v)

(* Per-item fastest repetition: [runs] holds one array per repetition,
   NaN where the item did not run. Even at reference speed, one
   repetition disturbed by the host can shift a tail percentile; the
   fastest one is the least disturbed, and a slower program slows every
   repetition, so it still shows. *)
let item_best runs =
  match runs with
  | [] -> [||]
  | r :: _ ->
      Array.init (Array.length r) (fun j ->
          List.fold_left
            (fun acc a -> if Float.is_nan acc then a.(j) else if Float.is_nan a.(j) then acc else Float.min acc a.(j))
            Float.nan runs)

(* Extra report lines ("# ..."), printed before the metrics. *)
let notes : string list ref = ref []
let note fmt = Printf.ksprintf (fun s -> if not (List.mem s !notes) then notes := s :: !notes) fmt

(* Time of each measured unit at reference speed, for the report. *)
let unit_times : float array ref = ref [||]

(* Repeat [f], which returns the time of its own unit of work, until
   [seconds] have elapsed (at least once). *)
let timed_loop ~seconds f =
  let t_end = now () +. seconds in
  let times = Stats.Samples.create () in
  let rec go () =
    Stats.Samples.add times (f ());
    if now () < t_end then go ()
  in
  go ();
  unit_times := Stats.Samples.to_array times;
  !unit_times
