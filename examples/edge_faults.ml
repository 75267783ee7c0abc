(* The paper's edge-fault reduction, exercised.

   "We handle the case of faulty edges by assuming that one of the
   endpoints of the faulty edge is a faulty node, an assumption that
   can only weaken our results."

   This example fails edges (not nodes) of a torus, compares the
   surviving diameter against the endpoint-projected node-fault model,
   and shows the route table surviving a save/load roundtrip - the
   "compute the table once" deployment story of Section 1.

   Run with:  dune exec examples/edge_faults.exe *)

open Ftr_graph
open Ftr_core

let () =
  let g = Families.torus 5 5 in
  let t = 3 in
  let c = Kernel.make g ~t in
  let claim = List.hd c.Construction.claims in
  Printf.printf "torus 5x5, kernel routing, claim (%d, %d) under node faults\n"
    claim.Construction.diameter_bound claim.Construction.max_faults;

  (* Fail three edges around the concentrator. *)
  let m = c.Construction.concentrator in
  Printf.printf "concentrator M = {%s}\n"
    (String.concat "," (List.map string_of_int m));
  let fm = Fault_model.create c.Construction.routing in
  let chosen =
    match m with
    | a :: b :: _ ->
        let ea = (Graph.neighbors g a).(0) in
        let eb = (Graph.neighbors g b).(0) in
        [ (a, ea); (b, eb); (12, (Graph.neighbors g 12).(0)) ]
    | _ -> []
  in
  List.iter (fun (u, v) -> Fault_model.fail_edge fm u v) chosen;
  Printf.printf "failed edges: %s\n"
    (String.concat " "
       (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) chosen));

  let edge_diam = Fault_model.diameter fm in
  Format.printf "surviving diameter under edge faults:      %a@." Metrics.pp_distance
    edge_diam;

  (* The paper's reduction: project each failed edge onto an endpoint. *)
  let projected = Fault_model.endpoint_projection fm in
  let node_diam = Surviving.diameter c.Construction.routing ~faults:projected in
  Format.printf "under the endpoint projection (node model): %a@." Metrics.pp_distance
    node_diam;

  (* The reduction is per-pair: every route an edge fault kills is also
     killed by the projected endpoint, so for nodes alive in BOTH
     models the edge-fault distance never exceeds the node-fault one.
     (The edge-fault diameter can still be larger, because the
     projected endpoints stay alive and count as pairs.) *)
  let dg_edge =
    Surviving.graph ~links:chosen c.Construction.routing ~faults:(Bitset.create (Graph.n g))
  in
  let dg_node = Surviving.graph c.Construction.routing ~faults:projected in
  let alive v = not (Bitset.mem projected v) in
  let verified = ref 0 and violated = ref 0 in
  Graph.iter_vertices
    (fun x ->
      if alive x then begin
        let de = Digraph.bfs dg_edge x in
        let dn = Digraph.bfs dg_node ~allowed:alive x in
        Graph.iter_vertices
          (fun y ->
            if y <> x && alive y && dn.(y) >= 0 then begin
              incr verified;
              if de.(y) < 0 || de.(y) > dn.(y) then incr violated
            end)
          g
      end)
    g;
  Printf.printf
    "per-pair check: %d pairs alive in both models, %d where the edge-fault distance \
     exceeded the node-fault one (the theorems cover the node model).\n"
    !verified !violated;

  (* Persistence: the table is computed once and stored. *)
  let text = Routing_io.to_string c.Construction.routing in
  Printf.printf "\nroute table serialises to %d bytes (%d routes)\n"
    (String.length text)
    (Routing.route_count c.Construction.routing);
  match Routing_io.load g text with
  | Ok reloaded ->
      Format.printf "reloaded: %d routes, diameter under the same edge faults %a@."
        (Routing.route_count reloaded) Metrics.pp_distance
        (Surviving.diameter ~links:chosen reloaded ~faults:(Bitset.create (Graph.n g)))
  | Error e -> Printf.printf "reload failed: %s\n" e
