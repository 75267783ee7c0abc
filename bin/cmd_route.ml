(* ftr route: build a routing and report its statistics. *)

open Cmdliner
open Ftr_core

let save =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE" ~doc:"Write the route table (ftr-routing format).")

let run g strategy seed save =
  match Cli.build g strategy seed with
  | Error code -> code
  | Ok c ->
      Format.printf "%a@." Construction.pp c;
      Printf.printf "max route length    %d\n" (Routing.max_route_length c.routing);
      Printf.printf "total route edges   %d\n" (Routing.total_route_edges c.routing);
      Printf.printf "max stretch         %.2f\n" (Routing.stretch c.routing);
      let saved =
        Cli.write_opt ~announce:true save (fun () -> Routing_io.to_string c.routing)
      in
      let valid =
        match Routing.validate c.routing with
        | Ok () ->
            Printf.printf "validation          ok\n";
            true
        | Error e ->
            Printf.printf "validation          FAILED: %s\n" e;
            false
      in
      if not saved then Cli.write_failed else if valid then 0 else 1

let cmd =
  Cmd.v
    (Cmd.info "route" ~exits:(Cli.write_exit :: Cli.exits)
       ~doc:"build a routing and report its statistics")
    Term.(const run $ Cli.graph $ Cli.strategy $ Cli.seed $ save)
