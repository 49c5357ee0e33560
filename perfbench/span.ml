(* In-memory spans recorded by the benchmark around its calls into each
   layer. A span's name is "<layer>.<operation>"; spans of one trace or
   session share [id]; [parent] indexes the enclosing span in the same
   array (-1 for a root). Spans are written out only when a run ends. *)

type t = {
  id : int;
  name : string;
  parent : int;
  start : float;
  mutable stop : float;
  domain : int;
}

type recorder = { mutable buf : t array; mutable len : int; mutable stack : int list }

let create () = { buf = [||]; len = 0; stack = [] }

let push r s =
  if r.len = Array.length r.buf then begin
    let bigger = Array.make (max 64 (2 * r.len)) s in
    Array.blit r.buf 0 bigger 0 r.len;
    r.buf <- bigger
  end;
  r.buf.(r.len) <- s;
  r.len <- r.len + 1;
  r.len - 1

let enter r ~id name =
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  let i =
    push r
      {
        id;
        name;
        parent;
        start = Unix.gettimeofday ();
        stop = Float.nan;
        domain = (Domain.self () :> int);
      }
  in
  r.stack <- i :: r.stack;
  i

let leave r i =
  r.buf.(i).stop <- Unix.gettimeofday ();
  match r.stack with
  | top :: rest when top = i -> r.stack <- rest
  | _ -> invalid_arg "Span.leave: not the innermost open span"

let span r ~id name f =
  let i = enter r ~id name in
  match f () with
  | v ->
      leave r i;
      v
  | exception e ->
      leave r i;
      raise e

let spans r = Array.sub r.buf 0 r.len

(* Graft spans recorded elsewhere (another domain's recorder) under the
   span [parent] of [r]; their own roots become its children. *)
let append r ~parent spans =
  let base = r.len in
  Array.iter
    (fun s ->
      ignore (push r { s with parent = (if s.parent < 0 then parent else base + s.parent) }))
    spans

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let duration s = s.stop -. s.start

let children spans =
  let kids = Array.make (Array.length spans) [] in
  Array.iteri (fun i s -> if s.parent >= 0 then kids.(s.parent) <- i :: kids.(s.parent)) spans;
  kids

(* Sub-intervals of [s] not covered by any of its children, in order. *)
let self_intervals spans kids i =
  let s = spans.(i) in
  let ivs =
    List.map (fun c -> (Float.max s.start spans.(c).start, Float.min s.stop spans.(c).stop)) kids.(i)
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let rec gaps cursor acc = function
    | [] -> List.rev (if s.stop > cursor then (cursor, s.stop) :: acc else acc)
    | (a, b) :: rest ->
        let acc = if a > cursor then (cursor, a) :: acc else acc in
        gaps (Float.max cursor b) acc rest
  in
  gaps s.start [] ivs

(* Self time: a span's duration minus the part of its interval that its
   children cover (children running concurrently on other domains are
   covered once, not once each). *)
let self_times spans =
  let kids = children spans in
  Array.mapi
    (fun i _ -> List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0.0 (self_intervals spans kids i))
    spans

(* Wall-clock attribution along the blocking steps: every instant is
   shared equally by the spans running their own (self) code at that
   instant, so spans on two domains at once each get half of it. The
   attributions of a tree sum to its root's duration. *)
let attributed spans =
  let kids = children spans in
  let events = ref [] in
  Array.iteri
    (fun i _ ->
      List.iter
        (fun (a, b) -> events := (a, 1, i) :: (b, -1, i) :: !events)
        (self_intervals spans kids i))
    spans;
  let events = List.sort (fun (t1, d1, _) (t2, d2, _) -> compare (t1, d1) (t2, d2)) !events in
  let share = Array.make (Array.length spans) 0.0 in
  let active = Hashtbl.create 8 in
  let last = ref Float.neg_infinity in
  List.iter
    (fun (t, d, i) ->
      let k = Hashtbl.length active in
      if k > 0 then begin
        let dt = (t -. !last) /. Float.of_int k in
        Hashtbl.iter (fun j () -> share.(j) <- share.(j) +. dt) active
      end;
      last := t;
      if d > 0 then Hashtbl.replace active i () else Hashtbl.remove active i)
    events;
  share

(* Per-layer sums of a per-span quantity, layers in first-seen order. *)
let by_layer spans values =
  let order = ref [] and tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let l = layer s.name in
      match Hashtbl.find_opt tbl l with
      | Some v -> Hashtbl.replace tbl l (v +. values.(i))
      | None ->
          order := l :: !order;
          Hashtbl.replace tbl l values.(i))
    spans;
  List.rev_map (fun l -> (l, Hashtbl.find tbl l)) !order

(* Indices of the spans in the subtree rooted at [root]. *)
let subtree spans root =
  let kids = children spans in
  let rec go acc i = List.fold_left go (i :: acc) kids.(i) in
  go [] root

(* Tab-separated dump, one span per line (parent = line index among the
   spans): id, parent, domain, name, start and stop in
   microseconds from the first span's start. *)
let write oc spans =
  let t0 = Array.fold_left (fun acc s -> Float.min acc s.start) Float.infinity spans in
  output_string oc "# id\tparent\tdomain\tname\tstart_us\tstop_us\n";
  Array.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\n" s.id s.parent s.domain s.name
        ((s.start -. t0) *. 1e6)
        ((s.stop -. t0) *. 1e6))
    spans
