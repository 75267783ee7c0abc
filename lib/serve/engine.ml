open Ftr_graph
open Ftr_core
open Ftr_obs

type t = {
  routing : Routing.t;
  graph : Graph.t;
  compiled : Surviving.compiled;
  ev : Surviving.evaluator;
  fm : Fault_model.t;
  mutable diameter : Metrics.distance option;
      (** memo of the evaluator's diameter; only crisp deltas clear it *)
}

let c_deltas = Obs.counter "serve.engine.deltas_applied"
let c_noops = Obs.counter "serve.engine.deltas_noop"
let c_detours = Obs.counter "serve.engine.detours"
let c_replayed = Obs.counter "serve.journal.replayed"

let create routing =
  let graph = Routing.graph routing in
  let compiled = Surviving.compile routing in
  {
    routing;
    graph;
    compiled;
    ev = Surviving.evaluator compiled;
    fm = Fault_model.create graph;
    diameter = None;
  }

let routing t = t.routing
let n t = Graph.n t.graph

let check_node t v =
  if v < 0 || v >= Graph.n t.graph then
    Error (Printf.sprintf "node %d out of range [0,%d)" v (Graph.n t.graph))
  else Ok ()

let check_link t u v =
  if u < 0 || u >= Graph.n t.graph || v < 0 || v >= Graph.n t.graph then
    Error (Printf.sprintf "link %d-%d out of range" u v)
  else
    match Surviving.edge_id t.compiled u v with
    | Some id -> Ok id
    | None -> Error (Printf.sprintf "no link %d-%d in the graph" u v)

let validate t = function
  | Wire.Fail_node v | Wire.Recover_node v -> check_node t v
  | Wire.Fail_link (u, v) | Wire.Recover_link (u, v) | Wire.Restore_link (u, v) ->
      Result.map (fun _ -> ()) (check_link t u v)
  | Wire.Degrade_link (u, v, f) ->
      if not (Float.is_finite f) || f < 1.0 then
        Error (Printf.sprintf "degrade %d-%d: factor must be finite and >= 1" u v)
      else Result.map (fun _ -> ()) (check_link t u v)

let apply t action =
  match action with
  | Wire.Fail_node v -> (
      match check_node t v with
      | Error _ as e -> e
      | Ok () ->
          if Surviving.is_faulty t.ev v then begin
            Obs.incr c_noops;
            Ok false
          end
          else begin
            Surviving.apply_fault t.ev v;
            t.diameter <- None;
            Fault_model.fail_node t.fm v;
            Obs.incr c_deltas;
            Ok true
          end)
  | Wire.Recover_node v -> (
      match check_node t v with
      | Error _ as e -> e
      | Ok () ->
          if not (Surviving.is_faulty t.ev v) then begin
            Obs.incr c_noops;
            Ok false
          end
          else begin
            Surviving.revert_fault t.ev v;
            t.diameter <- None;
            Fault_model.recover_node t.fm v;
            Obs.incr c_deltas;
            Ok true
          end)
  | Wire.Fail_link (u, v) -> (
      match check_link t u v with
      | Error msg -> Error msg
      | Ok id ->
          if Surviving.is_edge_faulty t.ev id then begin
            Obs.incr c_noops;
            Ok false
          end
          else begin
            Surviving.apply_edge_fault t.ev id;
            t.diameter <- None;
            Fault_model.fail_edge t.fm u v;
            Obs.incr c_deltas;
            Ok true
          end)
  | Wire.Recover_link (u, v) -> (
      match check_link t u v with
      | Error msg -> Error msg
      | Ok id ->
          if not (Surviving.is_edge_faulty t.ev id) then begin
            Obs.incr c_noops;
            Ok false
          end
          else begin
            Surviving.revert_edge_fault t.ev id;
            t.diameter <- None;
            Fault_model.recover_edge t.fm u v;
            Obs.incr c_deltas;
            Ok true
          end)
  (* Gray failures touch only the fault model's latency bookkeeping:
     the evaluator's bit matrix never changes, so routing verdicts
     (and the memoised diameter) are identical before and after by
     construction. *)
  | Wire.Degrade_link (u, v, f) -> (
      match validate t action with
      | Error msg -> Error msg
      | Ok () ->
          if Fault_model.edge_degradation t.fm u v = f then begin
            Obs.incr c_noops;
            Ok false
          end
          else begin
            Fault_model.degrade_edge t.fm u v ~factor:f;
            Obs.incr c_deltas;
            Ok true
          end)
  | Wire.Restore_link (u, v) -> (
      match check_link t u v with
      | Error msg -> Error msg
      | Ok _ ->
          if Fault_model.edge_degradation t.fm u v = 1.0 then begin
            Obs.incr c_noops;
            Ok false
          end
          else begin
            Fault_model.restore_edge t.fm u v;
            Obs.incr c_deltas;
            Ok true
          end)

let replay t events =
  List.fold_left
    (fun acc e ->
      match acc with
      | Error _ as err -> err
      | Ok applied -> (
          match apply t e with
          | Ok true ->
              Obs.incr c_replayed;
              Ok (applied + 1)
          | Ok false -> Ok applied
          | Error _ as err -> err))
    (Ok 0) events

let digest t = Fault_model.digest t.fm
let node_faults t = Surviving.faults t.ev
let link_faults t = Fault_model.edge_faults t.fm
let degraded_links t = Fault_model.degraded_edges t.fm

type reply =
  | Routed of { waypoints : int list; routes : int; hops : int; degraded : bool }
  | Detour of { path : int list; hops : int }
  | Unreachable

(* Best-effort source route on the underlying graph minus faults —
   the degraded mode: the fixed routing no longer connects the pair,
   but the network itself still might. *)
let detour t ~src ~dst =
  let n = Graph.n t.graph in
  let parent = Array.make n (-1) in
  parent.(src) <- src;
  let q = Queue.create () in
  Queue.add src q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun v ->
        if
          (not !found)
          && parent.(v) < 0
          && (not (Surviving.is_faulty t.ev v))
          && not (Fault_model.edge_failed t.fm u v)
        then begin
          parent.(v) <- u;
          if v = dst then found := true else Queue.add v q
        end)
      (Graph.neighbors t.graph u)
  done;
  if not !found then None
  else begin
    let rec walk v acc = if v = src then v :: acc else walk parent.(v) (v :: acc) in
    Some (walk dst [])
  end

let route ?bound t ~src ~dst =
  let n = Graph.n t.graph in
  if src < 0 || src >= n then Error (Printf.sprintf "src %d out of range" src)
  else if dst < 0 || dst >= n then
    Error (Printf.sprintf "dst %d out of range" dst)
  else if Surviving.is_faulty t.ev src then
    Error (Printf.sprintf "src %d is down" src)
  else if Surviving.is_faulty t.ev dst then
    Error (Printf.sprintf "dst %d is down" dst)
  else
    match Surviving.evaluator_route t.ev ~src ~dst with
    | Some (waypoints, hops) ->
        let routes = List.length waypoints - 1 in
        let degraded =
          match bound with Some b -> routes > b | None -> false
        in
        Ok (Routed { waypoints; routes; hops; degraded })
    | None -> (
        match detour t ~src ~dst with
        | Some path ->
            Obs.incr c_detours;
            Ok (Detour { path; hops = List.length path - 1 })
        | None -> Ok Unreachable)

let diameter t =
  match t.diameter with
  | Some d -> d
  | None ->
      let d = Surviving.evaluator_diameter t.ev in
      t.diameter <- Some d;
      d
