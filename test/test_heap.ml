(* Unit and property tests of the plain binary min-heap behind the
   cluster simulator's event queue. *)

open Dt_core

let key_cmp (a, i) (b, j) = match Float.compare a b with 0 -> Int.compare i j | c -> c
let key_heap () = Heap.create ~cmp:key_cmp ()

let rec drain h acc = match Heap.pop h with None -> List.rev acc | Some x -> drain h (x :: acc)

let drain_order () =
  let h = Heap.create ~cmp:Int.compare () in
  Alcotest.(check (option int)) "empty peek" None (Heap.peek h);
  List.iter (Heap.add h) [ 5; 1; 4; 2; 8; 3; 7; 0; 6; 9; 4 ];
  Alcotest.(check int) "size" 11 (List.length (Heap.to_list h));
  Alcotest.(check (option int)) "peek" (Some 0) (Heap.peek h);
  Alcotest.(check (list int)) "sorted drain" [ 0; 1; 2; 3; 4; 4; 5; 6; 7; 8; 9 ] (drain h []);
  Alcotest.(check (list int)) "empty after drain" [] (Heap.to_list h);
  Alcotest.(check (option int)) "pop on empty" None (Heap.pop h)

(* Float keys drawn from a few values, infinities included, so equal
   floats are common and only the int decides. *)
let key_gen =
  QCheck2.Gen.(
    pair
      (oneofl [ 0.0; 0.5; 1.0; 2.5; 1e300; Float.infinity; Float.neg_infinity ])
      (int_bound 20))

let sorted_drain =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"drains in List.sort order"
       QCheck2.Gen.(list key_gen)
       (fun keys ->
         let h = key_heap () in
         List.iter (Heap.add h) keys;
         List.sort compare (Heap.to_list h) = List.sort compare keys
         && drain h [] = List.sort key_cmp keys))

type op = Add of (float * int) | Pop | Clear

let op_gen =
  QCheck2.Gen.(frequency [ (6, map (fun k -> Add k) key_gen); (3, pure Pop); (1, pure Clear) ])

(* The model is the sorted list of the live elements. *)
let interleaved =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"interleaved add, pop and clear match a sorted list"
       QCheck2.Gen.(list_size (int_bound 200) op_gen)
       (fun ops ->
         let h = key_heap () in
         let step model = function
           | Add k ->
               Heap.add h k;
               Some (List.merge key_cmp [ k ] model)
           | Pop -> (
               match (Heap.pop h, model) with
               | None, [] -> Some []
               | Some x, y :: rest when x = y -> Some rest
               | _ -> None)
           | Clear ->
               Heap.clear h;
               Some []
         in
         let rec run model = function
           | [] -> Some model
           | op :: ops -> (
               match step model op with
               | Some model
                 when List.length (Heap.to_list h) = List.length model
                      && Heap.peek h = (match model with [] -> None | x :: _ -> Some x) ->
                   run model ops
               | _ -> None)
         in
         match run [] ops with Some model -> drain h [] = model | None -> false))

let suite =
  [ Alcotest.test_case "drain order" `Quick drain_order; sorted_drain; interleaved ]
