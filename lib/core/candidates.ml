type crit = Lcmr | Scmr | Mamr

(* The arrays behind an index, reused by every index built on the same
   domain and grown to the largest task count seen. Slots are positions
   in the caller's task array; "mem order" and "comm order" are the slots
   sorted by (mem, id) and by (comm, id). Both trees are 1-based heaps
   over [size] leaves (the next power of two), leaf [size + p] standing
   for the slot at position [p] of its order; -1 marks "no task", and an
   absent task's leaves read -1 / infinity.

     mem tree:  lo    argmin (comm asc, id asc)           — SCMR winner
                hi    argmax comm, ties to the lower id   — LCMR winner
                bm    argmax (acceleration desc, id asc)  — MAMR winner
     comm tree: bc    argmax (acceleration desc, id asc)
                mm    smallest memory requirement         — prunes fits *)
type ws = {
  comm : float array; (* per slot *)
  mem : float array;
  acc : float array;
  id : int array;
  mpos : int array; (* slot -> position in mem order *)
  cpos : int array; (* slot -> position in comm order *)
  msorted : float array; (* mem by mem-order position *)
  csorted : float array; (* comm by comm-order position *)
  by_id : int array; (* slots sorted by id *)
  perm : int array; (* sort buffers *)
  tmp : int array;
  lo : int array; (* per tree node, twice the leaf count *)
  hi : int array;
  bm : int array;
  bc : int array;
  mm : float array;
}

(* Arrays for [cap] leaves, a power of two. *)
let make_ws cap =
  let f () = Array.make cap 0.0 and i () = Array.make cap 0 in
  let node () = Array.make (2 * cap) (-1) in
  {
    comm = f ();
    mem = f ();
    acc = f ();
    id = i ();
    mpos = i ();
    cpos = i ();
    msorted = f ();
    csorted = f ();
    by_id = i ();
    perm = i ();
    tmp = i ();
    lo = node ();
    hi = node ();
    bm = node ();
    bc = node ();
    mm = Array.make (2 * cap) Float.infinity;
  }

(* A domain's workspace. [gen] is bumped whenever an index is built on it
   or released, so at most one index is valid per domain. [keyed] is the
   task count of the last successful build, whose keys, sort orders and
   id lookup are still in [ws], or -1 when there is none. *)
type home = { mutable ws : ws; mutable gen : int; mutable keyed : int }

let key = Domain.DLS.new_key (fun () -> { ws = make_ws 1; gen = 0; keyed = -1 })

type t = {
  home : home;
  gen : int;
  ws : ws;
  tasks : Task.t array;
  n : int;
  size : int;
  mutable count : int;
}

(* Winner picks over slots, -1 losing to anything. Tasks are finite and
   non-NaN, so [<]/[>] agree with the Float.compare of the list scans. *)
let pick_lo (comm : float array) (id : int array) a b =
  if a < 0 then b
  else if b < 0 then a
  else
    let ca = comm.(a) and cb = comm.(b) in
    if ca < cb || (ca = cb && id.(a) <= id.(b)) then a else b

let pick_hi (comm : float array) (id : int array) a b =
  if a < 0 then b
  else if b < 0 then a
  else
    let ca = comm.(a) and cb = comm.(b) in
    if ca > cb || (ca = cb && id.(a) <= id.(b)) then a else b

(* The list scan's total preorder on the MAMR key. *)
let better (acc : float array) (id : int array) a b =
  let xa = acc.(a) and xb = acc.(b) in
  xa > xb || (xa = xb && id.(a) < id.(b))

let pick_best (acc : float array) (id : int array) a b =
  if a < 0 then b else if b < 0 then a else if better acc id b a then b else a

let fix_mem ws i =
  let l = 2 * i in
  ws.lo.(i) <- pick_lo ws.comm ws.id ws.lo.(l) ws.lo.(l + 1);
  ws.hi.(i) <- pick_hi ws.comm ws.id ws.hi.(l) ws.hi.(l + 1);
  ws.bm.(i) <- pick_best ws.acc ws.id ws.bm.(l) ws.bm.(l + 1)

let fix_comm ws i =
  let l = 2 * i in
  ws.bc.(i) <- pick_best ws.acc ws.id ws.bc.(l) ws.bc.(l + 1);
  let a = ws.mm.(l) and b = ws.mm.(l + 1) in
  ws.mm.(i) <- (if a <= b then a else b)

(* Set or clear a slot's two leaves, then refresh both root paths unless
   a whole build refreshes every node afterwards. *)
let set_leaves ?(paths = true) ws size s present =
  let v = if present then s else -1 in
  let m = size + ws.mpos.(s) and c = size + ws.cpos.(s) in
  ws.lo.(m) <- v;
  ws.hi.(m) <- v;
  ws.bm.(m) <- v;
  ws.bc.(c) <- v;
  ws.mm.(c) <- (if present then ws.mem.(s) else Float.infinity);
  if paths then begin
    let i = ref (m lsr 1) in
    while !i >= 1 do
      fix_mem ws !i;
      i := !i lsr 1
    done;
    let i = ref (c lsr 1) in
    while !i >= 1 do
      fix_comm ws !i;
      i := !i lsr 1
    done
  end

(* Bottom-up merge sort of a.(0..n-1) by the slots' (key, id), with
   scratch [b] and no closure call per comparison. Input already in
   order (ids numbered in slot order, the common case) costs one pass. *)
let sort_slots (key : float array) (id : int array) (a : int array) b n =
  let[@inline] lt x y = key.(x) < key.(y) || (key.(x) = key.(y) && id.(x) < id.(y)) in
  let sorted = ref 1 in
  while !sorted < n && not (lt a.(!sorted) a.(!sorted - 1)) do
    incr sorted
  done;
  let src = ref a and dst = ref b and w = ref (if !sorted >= n then n else 1) in
  while !w < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min (!lo + !w) n and hi = Int.min (!lo + (2 * !w)) n in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || not (lt s.(!j) s.(!i))) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    w := 2 * !w
  done;
  if !src != a then Array.blit !src 0 a 0 n

let duplicate id = invalid_arg (Printf.sprintf "Candidates.add: duplicate task id %d" id)

(* Sort the slots by (key, id) into ws.perm. *)
let sort_by ws (key : float array) n =
  for s = 0 to n - 1 do
    ws.perm.(s) <- s
  done;
  sort_slots key ws.id ws.perm ws.tmp n

(* Sort the slots by id into ws.by_id, for binary search: by (0., id),
   with [csorted], refilled after the comm sort, as the zero key. Raises
   on a duplicate id. *)
let index_ids ws n =
  let id = ws.id and by_id = ws.by_id in
  for s = 0 to n - 1 do
    by_id.(s) <- s
  done;
  Array.fill ws.csorted 0 n 0.0;
  sort_slots ws.csorted id by_id ws.tmp n;
  for k = 1 to n - 1 do
    if id.(by_id.(k)) = id.(by_id.(k - 1)) then duplicate id.(by_id.(k))
  done

(* Load the tasks' keys into the workspace and sort them: the per-slot
   keys, the id lookup and both orders. *)
let load_keys ws tasks n =
  Array.iteri
    (fun s (task : Task.t) ->
      ws.comm.(s) <- task.Task.comm;
      ws.mem.(s) <- task.Task.mem;
      ws.acc.(s) <- Task.acceleration task;
      ws.id.(s) <- task.Task.id)
    tasks;
  index_ids ws n;
  sort_by ws ws.mem n;
  for p = 0 to n - 1 do
    let s = ws.perm.(p) in
    ws.mpos.(s) <- p;
    ws.msorted.(p) <- ws.mem.(s)
  done;
  sort_by ws ws.comm n;
  for p = 0 to n - 1 do
    let s = ws.perm.(p) in
    ws.cpos.(s) <- p;
    ws.csorted.(p) <- ws.comm.(s)
  done

(* Do the tasks carry, slot by slot, the keys already loaded? Everything
   [load_keys] derives depends on these alone. A NaN never matches. *)
let same_keys ws tasks =
  let rec go s =
    s < 0
    ||
    let task = tasks.(s) in
    ws.id.(s) = task.Task.id
    && ws.comm.(s) = task.Task.comm
    && ws.mem.(s) = task.Task.mem
    && ws.acc.(s) = Task.acceleration task
    && go (s - 1)
  in
  go (Array.length tasks - 1)

let build (home : home) present tasks =
  let n = Array.length tasks in
  let size = ref 1 in
  while !size < n do
    size := 2 * !size
  done;
  let size = !size in
  home.gen <- home.gen + 1;
  if not (home.keyed = n && same_keys home.ws tasks) then begin
    home.keyed <- -1;
    if size > Array.length home.ws.comm then home.ws <- make_ws size;
    load_keys home.ws tasks n;
    home.keyed <- n
  end;
  let ws = home.ws in
  Array.fill ws.lo 1 (2 * size - 1) (-1);
  Array.fill ws.hi 1 (2 * size - 1) (-1);
  Array.fill ws.bm 1 (2 * size - 1) (-1);
  Array.fill ws.bc 1 (2 * size - 1) (-1);
  Array.fill ws.mm 1 (2 * size - 1) Float.infinity;
  (* the present prefix's leaves, then every node once, bottom-up *)
  for s = 0 to present - 1 do
    set_leaves ~paths:false ws size s true
  done;
  if present > 0 then
    for i = size - 1 downto 1 do
      fix_mem ws i;
      fix_comm ws i
    done;
  { home; gen = home.gen; ws; tasks; n; size; count = present }

let with_index ?present tasks f =
  let n = Array.length tasks in
  let present = Option.value present ~default:n in
  if present < 0 || present > n then invalid_arg "Candidates.with_index: present out of range";
  let home = Domain.DLS.get key in
  Fun.protect
    ~finally:(fun () -> home.gen <- home.gen + 1)
    (fun () -> f (build home present tasks))

let check t =
  if t.gen <> t.home.gen then
    invalid_arg "Candidates: index used after its run returned or another was built"

let size t =
  check t;
  t.count

(* The slot holding this id, or -1. *)
let slot_of_id t i =
  let ws = t.ws in
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let m = (!lo + !hi) lsr 1 in
    if ws.id.(ws.by_id.(m)) < i then lo := m + 1 else hi := m
  done;
  if !lo < t.n && ws.id.(ws.by_id.(!lo)) = i then ws.by_id.(!lo) else -1

let present t s = t.ws.bc.(t.size + t.ws.cpos.(s)) >= 0

let mem t i =
  check t;
  let s = slot_of_id t i in
  s >= 0 && present t s

let add t (task : Task.t) =
  check t;
  let s = slot_of_id t task.Task.id in
  if s < 0 then
    invalid_arg (Printf.sprintf "Candidates.add: task id %d is not indexed" task.Task.id);
  if present t s then duplicate task.Task.id;
  set_leaves t.ws t.size s true;
  t.count <- t.count + 1

let remove t (task : Task.t) =
  check t;
  let s = slot_of_id t task.Task.id in
  if s < 0 || not (present t s) then
    invalid_arg (Printf.sprintf "Candidates.remove: unknown task id %d" task.Task.id);
  set_leaves t.ws t.size s false;
  t.count <- t.count - 1

(* The comm-tree searches below run only when the minimum-idle filter
   binds. A node is worth entering only if it holds a present task
   ([bc >= 0]) and its smallest memory requirement fits; together these
   guarantee a fitting task inside, so a descent never backtracks more
   than once per level. Node [i] covers comm positions [nl, nr). *)
let live ws used kcap i = ws.bc.(i) >= 0 && used +. ws.mm.(i) <= kcap

(* Rightmost fitting task at a position below [e]. *)
let rec last_fit ws used kcap i nl nr e =
  if nl >= e || not (live ws used kcap i) then -1
  else if nr - nl = 1 then ws.bc.(i)
  else
    let mid = (nl + nr) lsr 1 in
    let x = last_fit ws used kcap ((2 * i) + 1) mid nr e in
    if x >= 0 then x else last_fit ws used kcap (2 * i) nl mid e

(* Leftmost fitting task at a position from [b] on. *)
let rec first_fit ws used kcap i nl nr b =
  if nr <= b || not (live ws used kcap i) then -1
  else if nr - nl = 1 then ws.bc.(i)
  else
    let mid = (nl + nr) lsr 1 in
    let x = first_fit ws used kcap (2 * i) nl mid b in
    if x >= 0 then x else first_fit ws used kcap ((2 * i) + 1) mid nr b

(* Best (acceleration desc, id asc) fitting task at a position below [e],
   skipping subtrees whose best cannot beat the incumbent [cur]. Visits
   the child with the better best first. Exhaustive over the eligible
   region in the worst case, which is only searched when the filter
   binds. *)
let rec best_fit ws used kcap i nl nr e cur =
  if nl >= e || not (live ws used kcap i) then cur
  else
    let b = ws.bc.(i) in
    if cur >= 0 && not (better ws.acc ws.id b cur) then cur
    else if nr - nl = 1 then b
    else
      let mid = (nl + nr) lsr 1 and l = 2 * i in
      if ws.bc.(l + 1) >= 0 && (ws.bc.(l) < 0 || better ws.acc ws.id ws.bc.(l + 1) ws.bc.(l))
      then best_fit ws used kcap l nl mid e (best_fit ws used kcap (l + 1) mid nr e cur)
      else best_fit ws used kcap (l + 1) mid nr e (best_fit ws used kcap l nl mid e cur)

let[@inline] idle ~now ~cpu_free c = Float.max 0.0 (now +. c -. cpu_free)

let select ?(min_idle_filter = true) t crit ~used ~kcap ~cpu_free ~now =
  check t;
  let ws = t.ws and n = t.n in
  (* the fits-now test [used +. mem <= kcap] is monotone in mem: the
     fitting tasks are the mem-order prefix [0, k) *)
  let k =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let m = (!lo + !hi) lsr 1 in
      if used +. ws.msorted.(m) <= kcap then lo := m + 1 else hi := m
    done;
    !lo
  in
  let lo = ref (-1) and hi = ref (-1) and best = ref (-1) in
  let l = ref t.size and r = ref (t.size + k) in
  while !l < !r do
    if !l land 1 = 1 then begin
      lo := pick_lo ws.comm ws.id !lo ws.lo.(!l);
      hi := pick_hi ws.comm ws.id !hi ws.hi.(!l);
      best := pick_best ws.acc ws.id !best ws.bm.(!l);
      incr l
    end;
    if !r land 1 = 1 then begin
      decr r;
      lo := pick_lo ws.comm ws.id !lo ws.lo.(!r);
      hi := pick_hi ws.comm ws.id !hi ws.hi.(!r);
      best := pick_best ws.acc ws.id !best ws.bm.(!r)
    end;
    l := !l lsr 1;
    r := !r lsr 1
  done;
  if !lo < 0 then None
  else
    let s =
      match crit with
      | Scmr ->
          (* minimum comm, then minimum id: attains the minimum idle
             time, hence always eligible *)
          !lo
      | Lcmr | Mamr ->
          (* the exact expressions of the list scan, so that the
             1e-12 idle tolerance resolves bit-identically; idle time is
             monotone in comm, so if the largest fitting comm is eligible
             every fitting task is, and otherwise the eligible tasks are
             the comm-order prefix [0, e) *)
          let bound = idle ~now ~cpu_free ws.comm.(!lo) +. 1e-12 in
          if (not min_idle_filter) || idle ~now ~cpu_free ws.comm.(!hi) <= bound then
            if crit = Lcmr then !hi else !best
          else begin
            let e =
              let a = ref 0 and b = ref n in
              while !a < !b do
                let m = (!a + !b) lsr 1 in
                if idle ~now ~cpu_free ws.csorted.(m) <= bound then a := m + 1 else b := m
              done;
              !a
            in
            if crit = Mamr then best_fit ws used kcap 1 0 t.size e (-1)
            else begin
              (* the largest eligible fitting comm, then the lowest id
                 among the fitting tasks of that comm *)
              let w = last_fit ws used kcap 1 0 t.size e in
              let c = ws.comm.(w) in
              let g =
                let a = ref 0 and b = ref n in
                while !a < !b do
                  let m = (!a + !b) lsr 1 in
                  if ws.csorted.(m) < c then a := m + 1 else b := m
                done;
                !a
              in
              first_fit ws used kcap 1 0 t.size g
            end
          end
    in
    Some t.tasks.(s)
