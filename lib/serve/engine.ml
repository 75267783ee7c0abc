open Ftr_graph
open Ftr_core
open Ftr_obs

type t = { graph : Graph.t; fm : Fault_model.t }

let c_deltas = Obs.counter "serve.engine.deltas_applied"
let c_noops = Obs.counter "serve.engine.deltas_noop"
let c_detours = Obs.counter "serve.engine.detours"
let c_replayed = Obs.counter "serve.journal.replayed"

let create routing = { graph = Routing.graph routing; fm = Fault_model.create routing }
let routing t = Fault_model.routing t.fm
let n t = Graph.n t.graph

let check_node t v =
  if v < 0 || v >= Graph.n t.graph then
    Error (Printf.sprintf "node %d out of range [0,%d)" v (Graph.n t.graph))
  else Ok ()

let check_link t u v =
  if u < 0 || u >= Graph.n t.graph || v < 0 || v >= Graph.n t.graph then
    Error (Printf.sprintf "link %d-%d out of range" u v)
  else if not (Graph.mem_edge t.graph u v) then
    Error (Printf.sprintf "no link %d-%d in the graph" u v)
  else Ok ()

let validate t = function
  | Wire.Fail_node v | Wire.Recover_node v -> check_node t v
  | Wire.Fail_link (u, v) | Wire.Recover_link (u, v) | Wire.Restore_link (u, v) ->
      check_link t u v
  | Wire.Degrade_link (u, v, f) ->
      if not (Float.is_finite f) || f < 1.0 then
        Error (Printf.sprintf "degrade %d-%d: factor must be finite and >= 1" u v)
      else check_link t u v

(* Would this valid delta change the fault state? The fault model is
   idempotent; this only decides what {!apply} counts and reports. *)
let changes fm = function
  | Wire.Fail_node v -> not (Fault_model.is_faulty fm v)
  | Wire.Recover_node v -> Fault_model.is_faulty fm v
  | Wire.Fail_link (u, v) -> not (Fault_model.edge_failed fm u v)
  | Wire.Recover_link (u, v) -> Fault_model.edge_failed fm u v
  | Wire.Degrade_link (u, v, f) -> Fault_model.edge_degradation fm u v <> f
  | Wire.Restore_link (u, v) -> Fault_model.edge_degradation fm u v <> 1.0

(* Gray failures touch only the latency bookkeeping: the evaluator
   never changes, so routing verdicts (and the memoised diameter) are
   identical before and after. *)
let perform fm = function
  | Wire.Fail_node v -> Fault_model.fail_node fm v
  | Wire.Recover_node v -> Fault_model.recover_node fm v
  | Wire.Fail_link (u, v) -> Fault_model.fail_edge fm u v
  | Wire.Recover_link (u, v) -> Fault_model.recover_edge fm u v
  | Wire.Degrade_link (u, v, f) -> Fault_model.degrade_edge fm u v ~factor:f
  | Wire.Restore_link (u, v) -> Fault_model.restore_edge fm u v

let apply t action =
  Result.map
    (fun () ->
      let changed = changes t.fm action in
      if changed then begin
        perform t.fm action;
        Obs.incr c_deltas
      end
      else Obs.incr c_noops;
      changed)
    (validate t action)

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
let node_faults t = Fault_model.node_faults t.fm
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
          && (not (Fault_model.is_faulty t.fm v))
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
  else if Fault_model.is_faulty t.fm src then
    Error (Printf.sprintf "src %d is down" src)
  else if Fault_model.is_faulty t.fm dst then
    Error (Printf.sprintf "dst %d is down" dst)
  else
    match Fault_model.route t.fm ~src ~dst with
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

let diameter t = Fault_model.diameter t.fm
