(* Sample statistics for the benchmark report. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* 1-based nearest rank of quantile [q] among [n] samples: ceil (q n),
   with a small slack so that 0.9 *. 150. landing a hair above 135 in
   floating point does not push the rank to 136. *)
let rank n q = max 1 (min n (int_of_float (Float.ceil ((q *. Float.of_int n) -. 1e-9))))

let default_floor = 10

(* Nearest-rank percentile of an ascending array, reported only when at
   least [floor] samples lie strictly above it: a tail percentile of a
   small sample is the sample maximum in disguise (p99.9 of 200 samples
   would just repeat p99), so it is [None] instead. *)
let percentile ?(floor = default_floor) sorted q =
  let n = Array.length sorted in
  if n = 0 || Float.is_nan q || q < 0.0 || q > 1.0 then None
  else
    let k = rank n q in
    if n - k < floor then None else Some sorted.(k - 1)

(* Growable float sample buffer: timing loops append without allocating
   a list cell per sample. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end
