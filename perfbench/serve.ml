(* The TCP service (dt_runtime.Server in a forked process) driven by a
   closed-loop client, one connection at a time, plus in-process replays
   of the same sessions through Engine and Session. *)

open Perfbench
open Common
module P = Dt_runtime.Protocol
module Engine = Dt_runtime.Engine
module Iobuf = Dt_runtime.Iobuf
module Session = Dt_runtime.Session
module Task = Dt_core.Task

let policy = Engine.Corrected Dt_core.Corrected_rules.OOSCMR

(* The client and the server share one CPU. On a small VM the kernel
   otherwise places the two ends of the ping-pong on the same CPU in some
   runs and on different CPUs in others, and a cross-CPU wake-up doubles
   the round trip; pinning makes runs comparable. A round trip is then
   the sum of both sides' CPU work. Forked servers inherit the pin;
   domains spawned while unpinned (the pool) keep every CPU. Needs
   util-linux taskset; without it the run is unpinned and says so. *)
let set_affinity cpus =
  Sys.command (Printf.sprintf "taskset -pc %s %d >/dev/null 2>&1" cpus (Unix.getpid ())) = 0

let all_cpus = !active_cpus

let pin () =
  match all_cpus with
  | first :: _ when set_affinity (string_of_int first) -> active_cpus := [ first ]
  | _ -> note "taskset failed: client and server not pinned"

let unpin () =
  Option.iter (fun cpus -> ignore (set_affinity cpus)) (Lazy.force allowed_cpus);
  active_cpus := all_cpus

let pinned f =
  pin ();
  Fun.protect ~finally:unpin f

(* HF sessions pipeline binary frames of 16 SUBMITs, every task arriving
   at 0; CCSD sessions send one text request per round trip, task i
   arriving at i * mean_comm / 2 (load 2). *)
type framing = { binary : bool; window : int; load : float option }

let framing = function
  | Hf -> { binary = true; window = 16; load = None }
  | Ccsd -> { binary = false; window = 1; load = Some 2.0 }

(* One session's requests, built before any timing starts. [lines] are
   the text renderings the in-process replay feeds to handle_line_into
   (text framing only). *)
type plan = {
  init : P.request;
  submits : P.request array;
  lines : string array;
  tasks : Task.t array;  (** as the session numbers them: id = submission index *)
  arrivals : float array;
  cap : float;
}

let plan fr trace =
  let tasks = Array.of_list trace.Dt_trace.Trace.tasks in
  let n = Array.length tasks in
  let spacing =
    match fr.load with
    | None -> 0.0
    | Some load ->
        Array.fold_left (fun acc (t : Task.t) -> acc +. t.Task.comm) 0.0 tasks
        /. Float.of_int (max 1 n) /. load
  in
  let arrivals = Array.init n (fun i -> Float.of_int i *. spacing) in
  let cap = capacity trace in
  let submits =
    Array.mapi
      (fun i (t : Task.t) ->
        P.Submit
          { label = t.Task.label; comm = t.Task.comm; comp = t.Task.comp; mem = t.Task.mem; arrival = arrivals.(i) })
      tasks
  in
  {
    init = P.Init { capacity = cap; policy; queue_limit = None; binary = fr.binary };
    submits;
    lines = (if fr.binary then [||] else Array.map P.render_request submits);
    tasks =
      Array.mapi
        (fun i (t : Task.t) ->
          Task.make ~id:i ~label:t.Task.label ~comm:t.Task.comm ~comp:t.Task.comp ~mem:t.Task.mem ())
        tasks;
    arrivals;
    cap;
  }

let requests_of p = Array.length p.submits + 3 (* INIT, SUBMITs, DRAIN, QUIT *)

(* ---- server process ---------------------------------------------- *)

type server = { pid : int; port : int }

(* Servers started and not yet stopped; killed and reaped at exit, so a
   run that dies halfway leaves no process behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Fork the server with default settings (no pool, epoll when
   available). Must happen before this process spawns any domain. The
   child reports its port through a pipe once it is accepting. *)
let start_server () =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (* the benchmark's stdout carries only its own report *)
      Unix.dup2 Unix.stderr Unix.stdout;
      let code =
        try
          let srv = Dt_runtime.Server.create ~port:0 () in
          Dt_runtime.Server.run
            ~on_listen:(fun port ->
              let s = string_of_int port ^ "\n" in
              ignore (Unix.write_substring w s 0 (String.length s));
              Unix.close w)
            srv;
          0
        with e ->
          prerr_endline ("server: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      Unix.close w;
      let port =
        match Unix.select [ r ] [] [] 30.0 with
        | [ _ ], _, _ ->
            let ic = Unix.in_channel_of_descr r in
            let p = try int_of_string_opt (input_line ic) with End_of_file -> None in
            close_in ic;
            p
        | _ -> Unix.close r; None
      in
      (match port with
      | Some port ->
          live := pid :: !live;
          { pid; port }
      | None ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          check false (fun () -> "server did not start");
          failwith "server did not start")

(* ---- client ------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; rbuf : Iobuf.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* a wedged server becomes a failed session, not a hung benchmark *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  { fd; rbuf = Iobuf.create () }

let send c s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

let fill c = if Iobuf.fill_from c.rbuf c.fd = 0 then failwith "server closed the connection"

let rec read_line c =
  match Iobuf.index_char c.rbuf ~from:0 '\n' with
  | Some i ->
      let s = Iobuf.read_string c.rbuf i in
      Iobuf.advance c.rbuf 1;
      s
  | None ->
      fill c;
      read_line c

let rec read_frame c =
  match P.frame_of_buf c.rbuf with
  | P.Frame (payload, _) -> payload
  | P.Need_more ->
      fill c;
      read_frame c
  | P.Frame_error e -> failwith ("bad response frame: " ^ e)

let decode_frame payload =
  match P.decode_responses payload with Ok lines -> lines | Error e -> failwith ("bad response: " ^ e)

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Per-pass timings: one value per session (INIT sent to DRAIN answered;
   connect to close) and per SUBMIT window (binary) or request (text),
   NaN where the item did not run. *)
type pass_times = { session : float array; full : float array; rtt : float array }

(* What the passes over the sessions observed. *)
type tally = {
  window_base : int array;  (** first window index of each session, then the total *)
  mutable passes : pass_times list;  (** latest first *)
  errors : (string, int) Hashtbl.t;  (** ERR responses by code *)
  makespans : float array;  (** DRAIN makespan of each session, last pass *)
}

let tally fr plans =
  let n = Array.length plans in
  let window_base = Array.make (n + 1) 0 in
  Array.iteri
    (fun i p -> window_base.(i + 1) <- window_base.(i) + ((Array.length p.submits + fr.window - 1) / fr.window))
    plans;
  { window_base; passes = []; errors = Hashtbl.create 4; makespans = Array.make n Float.nan }

let note_errors t lines =
  List.iter
    (fun l ->
      if starts_with "ERR " l then
        let code = match String.split_on_char ' ' l with _ :: c :: _ -> c | _ -> "?" in
        Hashtbl.replace t.errors code (1 + Option.value (Hashtbl.find_opt t.errors code) ~default:0))
    lines

(* One closed-loop session on a fresh connection: INIT, the SUBMITs (a
   window at a time, each window's replies awaited before the next is
   sent), DRAIN, QUIT. Every SUBMIT must be answered "OK accepted id=<i>"
   and the DRAIN makespan must equal [expected] bit for bit. [hook]
   wraps each step (spans in the traced run). *)
let session hook fr port t cur i p ~expected =
  let sp name f = hook.around name f in
  let c = sp "net.connect" (fun () -> connect port) in
  Fun.protect
    ~finally:(fun () -> Unix.close c.fd)
    (fun () ->
      let roundtrip ~count payload =
        sp "net.rtt" (fun () ->
            send c payload;
            if fr.binary then List.init count (fun _ -> read_frame c) else [ read_line c ])
      in
      let decode raw =
        sp "protocol.decode" (fun () -> if fr.binary then List.concat_map decode_frame raw else raw)
      in
      let simple ?(text = false) req =
        (* INIT always travels as a text line; its reply is already framed
           when it negotiates binary *)
        let payload =
          sp "protocol.encode" (fun () ->
              if fr.binary && not text then P.encode_request_frame [ req ]
              else P.render_request req ^ "\n")
        in
        let lines = decode (roundtrip ~count:1 payload) in
        note_errors t lines;
        lines
      in
      let t0 = now () in
      let init = simple ~text:true p.init in
      check (match init with l :: _ -> starts_with "OK " l | [] -> false) (fun () ->
          Printf.sprintf "session %d: INIT answered %s" i (String.concat "|" init));
      let n = Array.length p.submits in
      let rec windows k =
        if k < n then begin
          let m = min fr.window (n - k) in
          let payload =
            sp "protocol.encode" (fun () ->
                if fr.binary then P.encode_request_frame (Array.to_list (Array.sub p.submits k m))
                else p.lines.(k) ^ "\n")
          in
          let w0 = now () in
          let raw = roundtrip ~count:m payload in
          cur.rtt.(t.window_base.(i) + (k / fr.window)) <- now () -. w0;
          let lines = decode raw in
          note_errors t lines;
          List.iteri
            (fun j l ->
              let want = Printf.sprintf "OK accepted id=%d" (k + j) in
              check (String.equal l want) (fun () ->
                  Printf.sprintf "session %d: SUBMIT %d answered %s" i (k + j) l))
            lines;
          check (List.length lines = m) (fun () -> Printf.sprintf "session %d: missing replies" i);
          windows (k + m)
        end
      in
      windows 0;
      let drain = simple P.Drain in
      cur.session.(i) <- now () -. t0;
      let makespan =
        match drain with l :: _ -> Dt_runtime.Client.response_field "makespan" l | [] -> None
      in
      t.makespans.(i) <- Option.value makespan ~default:Float.nan;
      (match expected with
      | None -> ()
      | Some e ->
          check
            (match makespan with Some m -> same_float m e | None -> false)
            (fun () ->
              Printf.sprintf "session %d: DRAIN makespan %s, in-process engine %h" i
                (String.concat "|" drain) e));
      let bye = simple P.Quit in
      check (bye = [ "OK bye" ]) (fun () -> Printf.sprintf "session %d: QUIT answered %s" i (String.concat "|" bye)))

(* Sessions [0, count) in order; a session that fails on the wire
   (refused, reset, timed out) is a failed check and the pass goes on.
   With [scaled], a calibration runs after each session and each
   session's times are brought to reference speed (see Common.calibrate),
   using the median of the ten calibrations around it so that one
   interrupted calibration does not skew a session; the pass's stolen
   time is spread over all its sessions. *)
let pass ?(count = max_int) ?(scaled = false) ?recorder fr srv t plans ~expected =
  let n = Array.length plans in
  let cur =
    {
      session = Array.make n Float.nan;
      full = Array.make n Float.nan;
      rtt = Array.make t.window_base.(n) Float.nan;
    }
  in
  t.passes <- cur :: t.passes;
  let ran = min n count in
  let calibration = Array.make ran Float.nan in
  let steal0 = steal_seconds () and t0 = now () in
  for i = 0 to ran - 1 do
    let hook = match recorder with None -> no_hook | Some r -> span_hook r ~id:i in
    let t0 = now () in
    (try
       hook.around "client.session" (fun () ->
           session hook fr srv.port t cur i plans.(i) ~expected:(Option.map (fun e -> e.(i)) expected));
       cur.full.(i) <- now () -. t0
     with e -> check false (fun () -> Printf.sprintf "session %d: %s" i (Printexc.to_string e)));
    if scaled then calibration.(i) <- calibrate ()
  done;
  let wall = now () -. t0 in
  (* stolen time is only known for the pass as a whole *)
  let unstolen_share = unstolen wall ~steal0 /. wall in
  if scaled then
    for i = 0 to ran - 1 do
      let lo = max 0 (i - 5) and hi = min (ran - 1) (i + 4) in
      let f = unstolen_share *. to_reference (Stats.median (Array.sub calibration lo (hi - lo + 1))) in
      cur.session.(i) <- cur.session.(i) *. f;
      cur.full.(i) <- cur.full.(i) *. f;
      for w = t.window_base.(i) to t.window_base.(i + 1) - 1 do
        cur.rtt.(w) <- cur.rtt.(w) *. f
      done
    done

(* SHUTDOWN, then a bounded wait: a server that does not exit, or exits
   other than cleanly, is a failure. *)
let stop_server srv =
  let acked =
    try
      let c = connect srv.port in
      Fun.protect
        ~finally:(fun () -> Unix.close c.fd)
        (fun () ->
          send c "SHUTDOWN\n";
          starts_with "OK" (read_line c))
    with _ -> false
  in
  check acked (fun () -> "SHUTDOWN was not acknowledged");
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ ->
        if now () < deadline then (
          Unix.sleepf 0.005;
          wait ())
        else begin
          (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] srv.pid);
          None
        end
    | _, status -> Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  live := List.filter (( <> ) srv.pid) !live;
  check (status = Some (Unix.WEXITED 0)) (fun () ->
      match status with
      | None -> "server still running 10 s after SHUTDOWN (killed)"
      | Some (Unix.WEXITED c) -> Printf.sprintf "server exited with code %d" c
      | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Printf.sprintf "server killed by signal %d" s)

(* STATS on a fresh connection: the server's allocation per request. *)
let server_minor_words_per_req srv =
  try
    let c = connect srv.port in
    Fun.protect
      ~finally:(fun () -> Unix.close c.fd)
      (fun () ->
        send c "STATS\n";
        Dt_runtime.Client.response_field "minor_words_per_req" (read_line c))
  with _ -> None

(* ---- in-process replays ------------------------------------------ *)

(* The engine a session drives, fed the same tasks and arrivals; its
   makespan is what every DRAIN must report. *)
let engine_replay hook p =
  let sp name f = hook.around name f in
  let e = Engine.create ~policy ~capacity:p.cap () in
  sp "engine.submit" (fun () ->
      Array.iteri
        (fun i task ->
          match Engine.submit e ~arrival:p.arrivals.(i) task with
          | Engine.Accepted -> ()
          | a -> check false (fun () -> "in-process engine refused a task: " ^ Engine.admission_to_string a))
        p.tasks);
  Dt_core.Schedule.makespan (sp "engine.drain" (fun () -> Engine.drain e))

(* The same session through Session.handle_*_into, with no socket: the
   server's per-request work minus its I/O loop. *)
let session_replay fr p ~expected =
  let s = Session.create () and buf = Iobuf.create () in
  let handle_line l = ignore (Session.handle_line_into s buf ~binary:false l) in
  handle_line (P.render_request p.init);
  Iobuf.clear buf;
  let n = Array.length p.submits in
  if fr.binary then
    Array.iteri
      (fun i r ->
        ignore (Session.handle_request_into s buf ~binary:true r);
        if (i + 1) mod fr.window = 0 || i = n - 1 then Iobuf.clear buf)
      p.submits
  else
    Array.iter
      (fun l ->
        handle_line l;
        Iobuf.clear buf)
      p.lines;
  let finish r =
    if fr.binary then ignore (Session.handle_request_into s buf ~binary:true r)
    else handle_line (P.render_request r);
    Iobuf.clear buf
  in
  finish P.Drain;
  (match Session.engine s with
  | Some e ->
      check (same_float (Engine.makespan e) expected) (fun () -> "in-process session makespan differs")
  | None -> check false (fun () -> "in-process session has no engine"));
  finish P.Quit
