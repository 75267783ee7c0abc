(* ftr: command-line front end for the fault-tolerant routing library.
   Each subcommand lives in its own cmd_<name>.ml; the flags, helpers
   and exit-code docs they share are in cli.ml.

     info            structural properties of a graph
     route           build a routing (auto or named strategy) and show stats
     tolerate        fault-injection check of a construction's claims
     props           lemma-level properties under a fault set
     check           fault-check a saved route table
     simulate        message-level simulation with crashes
     attack          adversarial fault search + witness corpus
     soak            corpus replay against the churn-hardened protocol
     serve           long-lived routing daemon (and its --slo soak gate)
     query           client for a running serve daemon (with transport retries)
     chaos           gray-failure / heavy-traffic scenario against the serve stack
     compact         label-computed route tables at 10^5-10^6 nodes, sampled certify
     dot             DOT export
     lint-artifacts  static certification of corpus and route-table files *)

open Cmdliner

let () =
  let doc = "fault-tolerant routings in general networks (Peleg & Simons 1986)" in
  Cli.main
    (Cmd.group (Cmd.info "ftr" ~exits:Cli.exits ~doc)
       [
         Cmd_info.cmd; Cmd_route.cmd; Cmd_tolerate.cmd; Cmd_props.cmd;
         Cmd_check.cmd; Cmd_simulate.cmd; Cmd_attack.cmd; Cmd_soak.cmd;
         Cmd_serve.cmd; Cmd_query.cmd; Cmd_chaos.cmd; Cmd_compact.cmd;
         Cmd_dot.cmd; Cmd_lint_artifacts.cmd;
       ])
