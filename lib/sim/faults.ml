open Ftr_graph
open Ftr_core

type action =
  [ `Crash of int
  | `Recover of int
  | `LinkDown of int * int
  | `LinkUp of int * int
  | `LinkDegrade of int * int * float
  | `LinkRestore of int * int ]

type event = { at : float; action : action }

let by_time = List.stable_sort (fun a b -> Float.compare a.at b.at)
let crash_set_at ~at nodes = List.map (fun v -> { at; action = `Crash v }) nodes

let link_set_at ~at links =
  List.map (fun (u, v) -> { at; action = `LinkDown (u, v) }) links

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let random_crashes ~rng ~n ~count ~window:(lo, hi) =
  if count > n then invalid_arg "Faults.random_crashes: count > n";
  let nodes = Array.init n Fun.id in
  shuffle rng nodes;
  List.init count (fun i ->
      { at = lo +. Random.State.float rng (hi -. lo); action = `Crash nodes.(i) })

let churn ~rng ~n ~count ~window:(lo, hi) ~dwell =
  if count > n then invalid_arg "Faults.churn: count > n";
  if dwell < 0.0 then invalid_arg "Faults.churn: negative dwell";
  let nodes = Array.init n Fun.id in
  shuffle rng nodes;
  let events =
    List.concat
      (List.init count (fun i ->
           let at = lo +. Random.State.float rng (hi -. lo) in
           [
             { at; action = `Crash nodes.(i) };
             { at = at +. dwell; action = `Recover nodes.(i) };
           ]))
  in
  by_time events

let random_link_flaps ~rng ~g ~count ~window:(lo, hi) ~dwell =
  let edges = Array.of_list (Graph.edges g) in
  if count > Array.length edges then
    invalid_arg "Faults.random_link_flaps: count > edge count";
  if dwell < 0.0 then invalid_arg "Faults.random_link_flaps: negative dwell";
  shuffle rng edges;
  let events =
    List.concat
      (List.init count (fun i ->
           let at = lo +. Random.State.float rng (hi -. lo) in
           let u, v = edges.(i) in
           [
             { at; action = `LinkDown (u, v) };
             { at = at +. dwell; action = `LinkUp (u, v) };
           ]))
  in
  by_time events

let gray_flaps ~rng ~g ~count ~window:(lo, hi) ~dwell ~factor =
  let edges = Array.of_list (Graph.edges g) in
  if count > Array.length edges then
    invalid_arg "Faults.gray_flaps: count > edge count";
  if dwell < 0.0 then invalid_arg "Faults.gray_flaps: negative dwell";
  if not (Float.is_finite factor) || factor < 1.0 then
    invalid_arg "Faults.gray_flaps: factor must be finite and >= 1";
  shuffle rng edges;
  let events =
    List.concat
      (List.init count (fun i ->
           let at = lo +. Random.State.float rng (hi -. lo) in
           let u, v = edges.(i) in
           [
             { at; action = `LinkDegrade (u, v, factor) };
             { at = at +. dwell; action = `LinkRestore (u, v) };
           ]))
  in
  by_time events

let region g ~center ~radius =
  if center < 0 || center >= Graph.n g then invalid_arg "Faults.region: bad center";
  if radius < 0 then invalid_arg "Faults.region: negative radius";
  let dist = Array.make (Graph.n g) (-1) in
  dist.(center) <- 0;
  let q = Queue.create () in
  Queue.add center q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    if dist.(u) < radius then
      Array.iter
        (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        (Graph.neighbors g u)
  done;
  List.filter (fun v -> dist.(v) >= 0) (List.init (Graph.n g) Fun.id)

let region_links g ~center ~radius =
  let ball = region g ~center ~radius in
  let in_ball = Array.make (Graph.n g) false in
  List.iter (fun v -> in_ball.(v) <- true) ball;
  List.sort
    (fun (u1, v1) (u2, v2) ->
      let c = Int.compare u1 u2 in
      if c <> 0 then c else Int.compare v1 v2)
    (List.filter (fun (u, v) -> in_ball.(u) && in_ball.(v)) (Graph.edges g))

let mixed_churn ~rng ~g ~nodes ~links ~window ~dwell =
  let node_events = churn ~rng ~n:(Graph.n g) ~count:nodes ~window ~dwell in
  let link_events = random_link_flaps ~rng ~g ~count:links ~window ~dwell in
  by_time (node_events @ link_events)

let witness_waves ~start ~dwell ~gap witnesses =
  if dwell < 0.0 then invalid_arg "Faults.witness_waves: negative dwell";
  if gap < 0.0 then invalid_arg "Faults.witness_waves: negative gap";
  let _, events =
    List.fold_left
      (fun (at, acc) witness ->
        let witness = List.sort_uniq compare witness in
        let crashes = List.map (fun v -> { at; action = `Crash v }) witness in
        let recoveries =
          List.map (fun v -> { at = at +. dwell; action = `Recover v }) witness
        in
        (at +. dwell +. gap, acc @ crashes @ recoveries))
      (start, []) witnesses
  in
  events

let link_waves ~start ~dwell ~gap waves =
  if dwell < 0.0 then invalid_arg "Faults.link_waves: negative dwell";
  if gap < 0.0 then invalid_arg "Faults.link_waves: negative gap";
  let _, events =
    List.fold_left
      (fun (at, acc) wave ->
        let wave =
          List.sort_uniq compare (List.map (fun (u, v) -> (min u v, max u v)) wave)
        in
        let downs = List.map (fun (u, v) -> { at; action = `LinkDown (u, v) }) wave in
        let ups =
          List.map (fun (u, v) -> { at = at +. dwell; action = `LinkUp (u, v) }) wave
        in
        (at +. dwell +. gap, acc @ downs @ ups))
      (start, []) waves
  in
  events

let regional_waves ~rng ~g ~waves ~radius ~start ~dwell ~gap =
  if waves < 0 then invalid_arg "Faults.regional_waves: negative wave count";
  let centers = List.init waves (fun _ -> Random.State.int rng (Graph.n g)) in
  link_waves ~start ~dwell ~gap
    (List.map (fun c -> region_links g ~center:c ~radius) centers)

(* A witness node becomes one incident link (to its smallest
   neighbour): at most |nodes| + |links| link faults, which the
   paper's reduction projects back to at most that many node faults,
   so a within-budget witness stays within budget as a link wave. *)
let witness_links g ~nodes ~links =
  let of_node v =
    let nb = Graph.neighbors g v in
    if Array.length nb = 0 then None else Some (min v nb.(0), max v nb.(0))
  in
  List.sort_uniq compare
    (List.map (fun (u, v) -> (min u v, max u v)) links
    @ List.filter_map of_node nodes)

let schedule_on sim net events =
  List.iter
    (fun { at; action } ->
      Sim.at sim ~time:at (fun () ->
          match action with
          | `Crash v -> Fault_model.fail_node net v
          | `Recover v -> Fault_model.recover_node net v
          | `LinkDown (u, v) -> Fault_model.fail_edge net u v
          | `LinkUp (u, v) -> Fault_model.recover_edge net u v
          | `LinkDegrade (u, v, f) -> Fault_model.degrade_edge net u v ~factor:f
          | `LinkRestore (u, v) -> Fault_model.restore_edge net u v))
    events
