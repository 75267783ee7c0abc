(* ftr simulate: message-level simulation with node crashes. *)

open Cmdliner
open Ftr_graph
module Sim = Ftr_sim

(* The graph and the crash count, at most its vertex count. *)
let graph_and_crashes =
  let crashes =
    Cli.flag ~range:Cli.non_negative Cli.int 1 ~names:[ "crashes" ] ~docv:"K"
      ~doc:"Nodes to crash."
  in
  Cli.with_graph
    (fun g k ->
      if k <= Graph.n g then None
      else Some (Printf.sprintf "--crashes must be at most %d, the vertex count (got %d)" (Graph.n g) k))
    crashes

let messages =
  Cli.flag ~range:Cli.non_negative Cli.int 200 ~names:[ "messages" ] ~docv:"M"
    ~doc:"Messages to send."

let run (g, crashes) strategy seed messages =
  match Cli.build g strategy seed with
  | Error code -> code
  | Ok c ->
      let rng = Random.State.make [| seed; 2 |] in
      let net = Ftr_core.Fault_model.create c.routing in
      let sim = Sim.Sim.create () in
      let n = Graph.n g in
      Sim.Faults.schedule_on sim net
        (Sim.Faults.random_crashes ~rng ~n ~count:crashes ~window:(50.0, 50.0));
      let entries = Sim.Workload.uniform ~rng ~n ~count:messages ~horizon:200.0 in
      let msgs = Sim.Protocol.deliver_all sim net Sim.Protocol.default_config entries in
      let delivered =
        List.filter (fun m -> m.Sim.Message.status = Sim.Message.Delivered) msgs
      in
      Printf.printf "delivered           %d/%d\n" (List.length delivered)
        (List.length msgs);
      (match
         Sim.Stats.of_ints (List.map (fun m -> m.Sim.Message.routes_traversed) delivered)
       with
      | Some s -> Format.printf "routes traversed    %a@." Sim.Stats.pp_summary s
      | None -> ());
      (match Sim.Stats.summarize (List.filter_map Sim.Message.latency delivered) with
      | Some s -> Format.printf "latency             %a@." Sim.Stats.pp_summary s
      | None -> ());
      Printf.printf "surviving diameter  %s\n"
        (Cli.dist_cell (Ftr_core.Fault_model.diameter net));
      Printf.printf "events executed     %d\n" (Sim.Sim.events_executed sim);
      0

let cmd =
  Cmd.v
    (Cmd.info "simulate" ~exits:Cli.exits ~doc:"message-level simulation with node crashes")
    Term.(const run $ graph_and_crashes $ Cli.strategy $ Cli.seed $ messages)
