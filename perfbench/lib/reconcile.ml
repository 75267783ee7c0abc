(* Stage reconciliation: the timed stages of a canonical path must add
   up to its end-to-end figure within a stated tolerance. The gap is
   the share of the total the stages do not explain; a negative gap
   means the stages (timed one by one, each with its own clock reads)
   over-explain it. *)

type t = {
  name : string;
  total : float;
  stages : (string * float) list;
  tolerance : float;
}

(* Stated tolerances, as a share of the end-to-end figure. The query
   path sums per-stage means against the mean round trip; the sweep
   path sums stage totals against the jobs=1 sweeps they replay. *)
let query_tolerance = 0.25
let sweep_tolerance = 0.25

let explained r = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 r.stages
let gap r = if r.total = 0.0 then 0.0 else (r.total -. explained r) /. r.total
let ok r = r.total > 0.0 && Float.abs (gap r) <= r.tolerance

let describe r =
  Printf.sprintf "reconcile %s: total %.3f = %s + unexplained %.1f%% -> %s (tolerance %.0f%%)"
    r.name r.total
    (String.concat " + "
       (List.map (fun (k, v) -> Printf.sprintf "%s %.3f" k v) r.stages))
    (100.0 *. gap r)
    (if ok r then "PASS" else "FAIL")
    (100.0 *. r.tolerance)
