(* ftr props: the construction's lemma-level properties under a fault
   set. *)

open Cmdliner
open Ftr_graph
open Ftr_core

(* The graph and the fault set, whose nodes must be vertices of it. *)
let graph_and_kill =
  let kill =
    Arg.(
      value
      & opt (list Cli.int) []
      & info [ "kill" ] ~docv:"V1,V2,..." ~doc:"Fault set to apply before checking.")
  in
  Cli.with_graph
    (fun g nodes ->
      let n = Graph.n g in
      List.find_opt (fun v -> v < 0 || v >= n) nodes
      |> Option.map (fun v -> Printf.sprintf "--kill node %d is out of range [0,%d)" v n))
    kill

let run (g, faults) strategy seed =
  match Cli.build g strategy seed with
  | Error code -> code
  | Ok c ->
      let reports = Properties.check c ~faults:(Bitset.of_list (Graph.n g) faults) in
      if reports = [] then begin
        Printf.printf "no lemma-level properties for %s\n" c.Construction.name;
        0
      end
      else begin
        List.iter (fun r -> Format.printf "%a@." Properties.pp_report r) reports;
        if Properties.all_hold reports then 0 else 1
      end

let cmd =
  Cmd.v
    (Cmd.info "props" ~exits:Cli.exits
       ~doc:"check the construction's lemma-level properties under a fault set")
    Term.(const run $ graph_and_kill $ Cli.strategy $ Cli.seed)
