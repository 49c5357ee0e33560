(* First-Fit over a max-tree of the bins' free space: leaf [size + b]
   holds bin b's free space ([neg_infinity] until b opens), every inner
   node the larger of its children's. The fit test
   [mem <= free +. slack] is monotone in [free], so a subtree holds a
   fitting bin iff its maximum fits, and the leftmost fitting bin is a
   root-to-leaf descent that goes left whenever the left child fits:
   O(log bins) per task where the list scan was O(bins). *)
let bins ~capacity tasks =
  let n = List.length tasks in
  let size = ref 1 in
  while !size < n do
    size := 2 * !size
  done;
  let size = !size in
  let free = Array.make (2 * size) Float.neg_infinity in
  let members = Array.make n [] and nbins = ref 0 in
  let slack = 1e-12 *. Float.max 1.0 capacity in
  List.iter
    (fun (t : Task.t) ->
      let m = t.Task.mem in
      if m > capacity *. (1.0 +. 1e-12) then
        invalid_arg
          (Printf.sprintf "Bin_packing: task %d needs %g > capacity %g" t.Task.id m capacity);
      let j =
        if m <= free.(1) +. slack then begin
          let j = ref 1 in
          while !j < size do
            let l = 2 * !j in
            j := if m <= free.(l) +. slack then l else l + 1
          done;
          free.(!j) <- free.(!j) -. m;
          !j
        end
        else begin
          let j = size + !nbins in
          incr nbins;
          free.(j) <- capacity -. m;
          j
        end
      in
      members.(j - size) <- t :: members.(j - size);
      let j = ref (j lsr 1) in
      while !j >= 1 do
        let a = free.(2 * !j) and b = free.((2 * !j) + 1) in
        free.(!j) <- (if a >= b then a else b);
        j := !j lsr 1
      done)
    tasks;
  List.init !nbins (fun b -> List.rev members.(b))

let order ~capacity tasks = List.concat (bins ~capacity tasks)

let run ?state instance =
  let capacity = instance.Instance.capacity in
  Sim.run_order_exn ?state ~capacity (order ~capacity (Instance.task_list instance))
