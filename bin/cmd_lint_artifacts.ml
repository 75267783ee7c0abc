(* ftr lint-artifacts: static certification of witness-corpus JSON and
   ftr-routing tables. *)

open Cmdliner
module Certify = Ftr_analysis.Certify

let run paths routing_file routing_graph =
  if paths = [] && routing_file = None then begin
    Printf.eprintf
      "nothing to certify: give corpus PATHs and/or --routing FILE [--graph GRAPH]\n";
    2
  end
  else begin
    let problems = ref 0 in
    let report ps =
      problems := !problems + List.length ps;
      List.iter (fun p -> Format.printf "%a@." Certify.pp_problem p) ps
    in
    if paths <> [] then begin
      let o = Certify.certify_corpus_paths paths in
      report o.Certify.problems;
      Printf.printf "certified %d corpus file(s): %d entr%s, %d construction(s)\n"
        o.Certify.files o.Certify.entries
        (if o.Certify.entries = 1 then "y" else "ies")
        o.Certify.constructions
    end;
    (match (routing_file, routing_graph) with
    | Some file, Some g ->
        let routes, ps = Certify.certify_routing_file ~graph:g file in
        report ps;
        Printf.printf "certified %s: %d route(s)\n" file routes
    | Some file, None -> (
        (* No graph to route over: certify what the header alone
           promises (all of it, for v2 compact tables). *)
        match Certify.certify_routing_header file with
        | Ok desc -> Printf.printf "certified %s: header ok (%s)\n" file desc
        | Error ps -> report ps)
    | None, _ -> ());
    if !problems = 0 then 0
    else begin
      Printf.printf "%d problem(s)\n" !problems;
      1
    end
  end

let cmd =
  let paths =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:"Witness-corpus JSON files or directories of them (e.g. corpus/).")
  in
  let routing_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "routing" ] ~docv:"FILE"
          ~doc:
            "Also certify an ftr-routing table. With $(b,--graph) every route is \
             validated against the graph; without it only the header line is \
             certified (version, vertex count, kind tag, and — for the \
             version-2 compact format — the spec parse and its n-consistency).")
  in
  let routing_graph =
    Arg.(
      value
      & opt (some Cli.graph_conv) None
      & info [ "graph" ] ~docv:"GRAPH"
          ~doc:"The graph the $(b,--routing) table routes over.")
  in
  Cmd.v
    (Cmd.info "lint-artifacts"
       ~doc:
         "statically certify routing artifacts: witness-corpus JSON (well-formed \
          entries, faults on real nodes and edges, rebuildable constructions with \
          valid tables and fault-free properties) and ftr-routing tables (simple \
          paths over existing edges)")
    Term.(const run $ paths $ routing_file $ routing_graph)
