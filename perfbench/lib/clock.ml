(* The monotonic nanosecond clock every stage is timed on. *)

let now_ns () = Monotonic_clock.now ()

let elapsed_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* [time f] runs [f ()] and returns its result with the nanoseconds
   it took. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, elapsed_ns t0)
