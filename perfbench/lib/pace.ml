(* How fast this host runs right now, read from a fixed computation
   timed between the measured operations.

   On a shared VM the same code runs up to twice as slow for minutes
   at a time while other guests load the physical cores, with no steal
   time reported: every timing of a run moves together, the daemon's
   as much as the client's. A reference computation that belongs to
   the benchmark and never changes slows by about the same factor.
   End-to-end times are scaled by [nominal_ns] over the reference's
   time next to them, so they read as times on a host that runs the
   reference in [nominal_ns]; a change to the program moves them as
   much as it moves the raw times. *)

(* The reference's time on an unloaded 2-vCPU Xeon KVM guest at
   2.1 GHz, the host the benchmark was built on. *)
let nominal_ns = 2.8e6

(* Breadth-first search from 128 sources over a fixed pseudo-random
   512-node graph of out-degree 6: about 0.4M edge visits, no
   allocation. *)
let graph =
  lazy
    (let st = Random.State.make [| 42 |] in
     Array.init 512 (fun _ -> Array.init 6 (fun _ -> Random.State.int st 512)))

let reference g =
  let n = Array.length g in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  let sum = ref 0 in
  for s = 0 to 127 do
    Array.fill dist 0 n (-1);
    dist.(s) <- 0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      Array.iter
        (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            queue.(!tail) <- v;
            incr tail;
            sum := !sum + dist.(v)
          end)
        g.(u)
    done
  done;
  !sum

(* A reading is the fastest of three runs: an interrupt or a page
   fault only ever adds time, and a single run's time scatters by
   about 9% between neighbouring readings. *)
let reference_ns () =
  let g = Lazy.force graph in
  let once () = snd (Clock.time (fun () -> Sys.opaque_identity (reference g))) in
  Float.min (once ()) (Float.min (once ()) (once ()))

type t = { mutable last_ns : float; readings : Stat.Samples.t }

let create () =
  let ns = reference_ns () in
  let readings = Stat.Samples.create () in
  Stat.Samples.add readings ns;
  { last_ns = ns; readings }

(* [mark t] reads the reference again and returns the factor that
   scales a time taken since the previous mark to the nominal pace:
   [nominal_ns] over the mean of the readings on either side of it. *)
let mark t =
  let ns = reference_ns () in
  Stat.Samples.add t.readings ns;
  let k = nominal_ns /. ((t.last_ns +. ns) /. 2.0) in
  t.last_ns <- ns;
  k

(* Median reading, ms. *)
let median_ms t = Stat.Samples.percentile t.readings 50.0 /. 1e6
