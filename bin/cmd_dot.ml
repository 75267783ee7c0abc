(* ftr dot: Graphviz export. *)

open Cmdliner
open Ftr_graph

let run g out =
  let dot = Dot.of_graph g in
  match out with
  | Some _ -> if Cli.write_opt out (fun () -> dot) then 0 else Cli.write_failed
  | None ->
      print_string dot;
      0

let cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "dot" ~exits:(Cli.write_exit :: Cli.exits) ~doc:"Graphviz export")
    Term.(const run $ Cli.graph $ out)
