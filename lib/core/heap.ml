type 'a t = { cmp : 'a -> 'a -> int; mutable data : 'a array; mutable size : int }

let create ~cmp () = { cmp; data = [||]; size = 0 }

(* Both sifts carry the moving element [x] and write it once, into the
   hole where it stops, instead of swapping at every level. *)
let rec sift_up h i x =
  if i = 0 then h.data.(0) <- x
  else
    let parent = (i - 1) / 2 in
    let p = h.data.(parent) in
    if h.cmp x p < 0 then begin
      h.data.(i) <- p;
      sift_up h parent x
    end
    else h.data.(i) <- x

let rec sift_down h i x =
  let l = (2 * i) + 1 in
  if l >= h.size then h.data.(i) <- x
  else
    let r = l + 1 in
    let c = if r < h.size && h.cmp h.data.(r) h.data.(l) < 0 then r else l in
    let y = h.data.(c) in
    if h.cmp y x < 0 then begin
      h.data.(i) <- y;
      sift_down h c x
    end
    else h.data.(i) <- x

let add h x =
  if h.size = Array.length h.data then begin
    let data = Array.make (max 8 (2 * h.size)) x in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end;
  let i = h.size in
  h.size <- i + 1;
  sift_up h i x

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then sift_down h 0 h.data.(n);
    Some top
  end

let clear h =
  h.data <- [||];
  h.size <- 0

let to_list h = Array.to_list (Array.sub h.data 0 h.size)
