(* ftr info: structural properties relevant to the constructions. *)

open Cmdliner
open Ftr_graph
open Ftr_core

let run g =
  let kappa = Connectivity.vertex_connectivity g in
  Printf.printf "vertices            %d\n" (Graph.n g);
  Printf.printf "edges               %d\n" (Graph.m g);
  Printf.printf "degree (min/avg/max) %d / %.2f / %d\n" (Graph.min_degree g)
    (Metrics.average_degree g) (Graph.max_degree g);
  Printf.printf "vertex connectivity %d (t = %d)\n" kappa (kappa - 1);
  Printf.printf "edge connectivity   %d\n" (Connectivity.edge_connectivity g);
  (match Connectivity.articulation_points g with
  | [] -> ()
  | pts ->
      Printf.printf "articulation points %s\n"
        (String.concat "," (List.map string_of_int pts)));
  Printf.printf "diameter            %s\n" (Cli.dist_cell (Metrics.diameter g));
  Printf.printf "girth               %s\n"
    (match Metrics.girth g with Some gth -> string_of_int gth | None -> "acyclic");
  let m = Independent.greedy g in
  Printf.printf "neighborhood set    K=%d (Lemma 15 bound %d)\n" (List.length m)
    (Independent.greedy_bound g);
  (match Two_trees.find g with
  | Some (r1, r2) -> Printf.printf "two-trees roots     %d, %d\n" r1 r2
  | None -> Printf.printf "two-trees roots     none\n");
  if kappa >= 1 && Graph.n g >= 3 then begin
    let t = kappa - 1 in
    let strategies = Builder.applicable g ~t in
    Printf.printf "applicable routings %s\n"
      (String.concat ", " (List.map Builder.strategy_name strategies))
  end;
  0

let cmd =
  Cmd.v
    (Cmd.info "info" ~exits:Cli.exits ~doc:"structural properties relevant to the constructions")
    Term.(const run $ Cli.graph)
