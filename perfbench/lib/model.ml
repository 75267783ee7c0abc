(* The client's own view of the daemon's fault state, kept
   independently of Engine: the generator consults it to avoid naming
   a faulty endpoint, and the checker consults it to prove that a
   returned path avoids every failed node and link. *)

open Ftr_graph
module Wire = Ftr_serve.Wire

type t = {
  graph : Graph.t;
  edges : (int * int) array;  (** [(min, max)], sorted *)
  node_down : bool array;
  link_down : bool array;  (** by edge index *)
  factor : float array;  (** gray-failure factor by edge index; 1.0 healthy *)
  mutable nodes_down : int;
  mutable links_down : int;
  mutable degraded : int;
}

let create graph =
  let edges =
    Array.of_list (List.map (fun (u, v) -> (min u v, max u v)) (Graph.edges graph))
  in
  Array.sort compare edges;
  let m = Array.length edges in
  {
    graph;
    edges;
    node_down = Array.make (Graph.n graph) false;
    link_down = Array.make m false;
    factor = Array.make m 1.0;
    nodes_down = 0;
    links_down = 0;
    degraded = 0;
  }

let n t = Graph.n t.graph
let edge_count t = Array.length t.edges
let edge t i = t.edges.(i)

let edge_index t u v =
  let key = (min u v, max u v) in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = compare t.edges.(mid) key in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t.edges)

let node_down t v = v >= 0 && v < n t && t.node_down.(v)

let link_down t u v =
  match edge_index t u v with Some i -> t.link_down.(i) | None -> false

let link_degraded t i = t.factor.(i) <> 1.0
let crisp t = t.nodes_down + t.links_down

let alive t =
  List.filter (fun v -> not t.node_down.(v)) (List.init (n t) Fun.id)

(* Apply one delta; [true] when the state changed. Out-of-range ids
   and missing links leave the state alone. *)
let apply t (action : Wire.fault_action) =
  let set_node v down =
    if v < 0 || v >= n t || t.node_down.(v) = down then false
    else begin
      t.node_down.(v) <- down;
      t.nodes_down <- (t.nodes_down + if down then 1 else -1);
      true
    end
  in
  let set_link u v down =
    match edge_index t u v with
    | Some i when t.link_down.(i) <> down ->
        t.link_down.(i) <- down;
        t.links_down <- (t.links_down + if down then 1 else -1);
        true
    | _ -> false
  in
  let set_factor u v f =
    match edge_index t u v with
    | Some i when t.factor.(i) <> f ->
        if t.factor.(i) = 1.0 then t.degraded <- t.degraded + 1
        else if f = 1.0 then t.degraded <- t.degraded - 1;
        t.factor.(i) <- f;
        true
    | _ -> false
  in
  match action with
  | Wire.Fail_node v -> set_node v true
  | Wire.Recover_node v -> set_node v false
  | Wire.Fail_link (u, v) -> set_link u v true
  | Wire.Recover_link (u, v) -> set_link u v false
  | Wire.Degrade_link (u, v, f) -> set_factor u v f
  | Wire.Restore_link (u, v) -> set_factor u v 1.0
