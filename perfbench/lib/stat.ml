(* Order statistics over float samples. Percentiles interpolate
   linearly between closest ranks. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else if n = 1 then s.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    s.(lo) +. ((s.(hi) -. s.(lo)) *. frac)
  end

let percentile a p = percentile_sorted (sorted a) p

(* The tail reported for [n] samples: p90, or the highest percentile
   with at least ten samples beyond it, but never below the median. A
   run with a handful of long operations (an exhaustive sweep) reports
   its median here rather than its slowest sample. *)
let tail_percentile n =
  if n <= 0 then 50.0
  else Float.max 50.0 (Float.min 90.0 (100.0 *. (1.0 -. (10.0 /. float_of_int n))))

let median a = percentile a 50.0

(* A growable float buffer for per-operation samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let scale t k =
    for i = 0 to t.len - 1 do
      t.data.(i) <- k *. t.data.(i)
    done

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
  let total t =
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  let percentile t p = if t.len = 0 then 0.0 else percentile (to_array t) p
end
