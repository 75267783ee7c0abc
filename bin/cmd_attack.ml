(* ftr attack: search for diameter-maximizing fault sets, shrink the
   witness, and maintain (or replay) a regression corpus. *)

open Cmdliner
open Ftr_graph
open Ftr_core
module Sim = Ftr_sim

let replay_corpus dir =
  let files = Attack.Corpus.load_dir dir in
  if files = [] then begin
    Printf.printf "no corpus files under %s\n" dir;
    0
  end
  else begin
    let construction_for = Cli.construction_cache () in
    let checked = ref 0 and failures = ref 0 in
    List.iter
      (fun (path, parsed) ->
        match parsed with
        | Error e ->
            incr failures;
            Printf.printf "%s: PARSE ERROR: %s\n" path e
        | Ok entries ->
            List.iter
              (fun (e : Attack.Corpus.entry) ->
                incr checked;
                let faults = { Surviving.nodes = e.faults; links = e.edges } in
                let label =
                  Printf.sprintf "%s %s seed=%d %s" e.graph e.strategy e.seed
                    (Surviving.fault_set_to_string faults)
                in
                match construction_for (e.graph, e.strategy, e.seed) with
                | Error msg ->
                    incr failures;
                    Printf.printf "%-44s ERROR: %s\n" label msg
                | Ok (c, compiled) ->
                    let n = Graph.n (Routing.graph c.Construction.routing) in
                    if n <> e.n then begin
                      incr failures;
                      Printf.printf "%-44s STALE: n=%d, entry says %d\n" label n e.n
                    end
                    else
                      let stale_nodes = List.filter (fun v -> v < 0 || v >= n) e.faults in
                      let stale_edges =
                        List.filter
                          (fun (u, v) -> Surviving.edge_id compiled u v = None)
                          e.edges
                      in
                      if stale_nodes <> [] then begin
                        incr failures;
                        Printf.printf "%-44s STALE: %d witness node(s) out of range [0,%d)\n"
                          label (List.length stale_nodes) n
                      end
                      else if stale_edges <> [] then begin
                        incr failures;
                        Printf.printf "%-44s STALE: %d witness link(s) not in graph\n"
                          label (List.length stale_edges)
                      end
                      else
                      let d =
                        let ev = Surviving.evaluator compiled in
                        Surviving.set_fault_ids ev Surviving.Mixed
                          (Surviving.ids_of_fault_set compiled Surviving.Mixed faults);
                        Surviving.evaluator_diameter ev
                      in
                      if not (Metrics.distance_le d e.diameter) then begin
                        incr failures;
                        Printf.printf "%-44s REGRESSION: now %s, stored %s\n" label
                          (Cli.dist_cell d) (Cli.dist_cell e.diameter)
                      end
                      else if d <> e.diameter then
                        Printf.printf "%-44s improved: now %s, stored %s\n" label
                          (Cli.dist_cell d) (Cli.dist_cell e.diameter)
                      else Printf.printf "%-44s ok (%s)\n" label (Cli.dist_cell d))
              entries)
      files;
    Printf.printf "replayed %d witness(es), %d failure(s)\n" !checked !failures;
    if !failures = 0 then 0 else 1
  end

(* Adds [entry] to the corpus file for its construction under [dir];
   [false] when the file could not be read or written. *)
let save_witness dir ~spec ~sname (entry : Attack.Corpus.entry) =
  let fname = Filename.concat dir (Cli.Output.safe_name (spec ^ "__" ^ sname) ^ ".json") in
  let not_saved why =
    Printf.eprintf "corpus              NOT saved (%s)\n" why;
    false
  in
  let in_file msg = fname ^ ": " ^ msg in
  (* [Sys_error] from [mkdir] already names the directory. *)
  let existing =
    match if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with
    | () ->
        if Sys.file_exists fname then
          Result.map_error in_file (Attack.Corpus.load_file fname)
        else Ok []
    | exception Sys_error msg -> Error msg
  in
  match existing with
  | Error why -> not_saved why
  | Ok entries -> (
      let entries, added = Attack.Corpus.add entries entry in
      if not added then begin
        Printf.printf "corpus              duplicate in %s\n" fname;
        true
      end
      else
        match Attack.Corpus.save_file fname entries with
        | Ok () ->
            Printf.printf "corpus              + %s\n" fname;
            true
        | Error msg -> not_saved (in_file msg))

(* The discovered witnesses crash in waves and recover under a
   message-level simulation. *)
let churn (c : Construction.t) (o : Attack.outcome) ~rng ~n =
  let w_nodes = o.witness.nodes and w_edges = o.witness.links in
  let waves =
    List.sort_uniq compare [ w_nodes; o.raw_witness.nodes ]
    |> List.filter (fun w -> w <> [])
  in
  let net = Fault_model.create c.routing in
  let sim = Sim.Sim.create () in
  Sim.Faults.schedule_on sim net
    (Sim.Faults.witness_waves ~start:40.0 ~dwell:60.0 ~gap:20.0 waves);
  if w_edges <> [] then
    Sim.Faults.schedule_on sim net
      (Sim.Faults.link_waves ~start:40.0 ~dwell:60.0 ~gap:20.0 [ w_edges ]);
  let entries = Sim.Workload.uniform ~rng ~n ~count:300 ~horizon:240.0 in
  let msgs = Sim.Protocol.deliver_all sim net Sim.Protocol.default_config entries in
  let delivered =
    List.filter (fun m -> m.Sim.Message.status = Sim.Message.Delivered) msgs
  in
  Printf.printf "churn delivered     %d/%d over %d wave(s)\n" (List.length delivered)
    (List.length msgs)
    (max (List.length waves) (if w_edges <> [] then 1 else 0))

let search spec g strategy seed faults budget restarts corpus_dir churn_on universe jobs =
  match Cli.build g strategy seed with
  | Error code -> code
  | Ok c ->
      let rng = Random.State.make [| seed; 3 |] in
      let n = Graph.n g in
      let f = Option.value faults ~default:(max 1 (Construction.fault_budget c)) in
      let config = { Attack.default_config with Attack.budget; restarts } in
      let o =
        Attack.search ~config ?jobs ~rng ~pools:c.Construction.pools ~universe
          c.Construction.routing ~f
      in
      let worst = o.Attack.worst in
      let w_nodes = o.Attack.witness.nodes in
      let w_edges = o.Attack.witness.links in
      let sname = Builder.request_name strategy in
      Printf.printf "attack              %s %s seed=%d f=%d\n" spec sname seed f;
      Printf.printf "worst found         %s\n" (Cli.dist_cell worst);
      Printf.printf "witness             %s\n"
        (Surviving.fault_set_to_string o.Attack.witness);
      Printf.printf "shrunk              %d -> %d fault(s)\n"
        (List.length o.Attack.raw_witness.nodes + List.length o.Attack.raw_witness.links)
        (List.length w_nodes + List.length w_edges);
      Printf.printf "evals used          %d (budget %d)\n" o.Attack.evals budget;
      Printf.printf "restarts            %d\n" o.Attack.restarts_used;
      let bound = Construction.bound_for c ~f in
      (match bound with
      | Some b ->
          Printf.printf "claim bound         %d -> %s\n" b
            (if Metrics.distance_le worst (Metrics.Finite b) then "respected"
             else "VIOLATED")
      | None -> ());
      let saved =
        match corpus_dir with
        | None -> true
        | Some dir when w_nodes = [] && w_edges = [] ->
            Printf.printf "corpus              nothing to save in %s\n" dir;
            true
        | Some dir ->
            save_witness dir ~spec ~sname
              {
                Attack.Corpus.graph = spec;
                strategy = sname;
                seed;
                n;
                f;
                faults = w_nodes;
                edges = w_edges;
                diameter = worst;
                bound;
                found_by = Printf.sprintf "attack(seed=%d)" seed;
              }
      in
      if churn_on then churn c o ~rng ~n;
      if saved then 0 else 1

let run spec strategy seed faults budget restarts corpus_dir replay churn_on universe jobs
    metrics trace =
  Cli.with_obs metrics trace @@ fun () ->
  match (replay, spec) with
  | Some dir, _ -> replay_corpus dir
  | None, None ->
      Printf.eprintf "a GRAPH spec is required unless --replay is given\n";
      1
  | None, Some spec -> (
      match Ftr_analysis.Graph_spec.parse spec with
      | Error e ->
          Printf.eprintf "bad graph spec: %s\n" e;
          1
      | Ok g ->
          search spec g strategy seed faults budget restarts corpus_dir churn_on universe
            jobs)

let cmd =
  let spec =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"GRAPH"
          ~doc:"Graph spec (as for the other subcommands); omit with $(b,--replay).")
  in
  let budget =
    Cli.flag ~range:Cli.non_negative Cli.int Attack.default_config.Attack.budget
      ~names:[ "budget" ] ~docv:"N" ~doc:"Max diameter evaluations for the search."
  in
  let restarts =
    Cli.flag ~range:Cli.non_negative Cli.int Attack.default_config.Attack.restarts
      ~names:[ "restarts" ] ~docv:"N"
      ~doc:"Max restarts (pool-seeded first, then random)."
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Append the shrunk witness to $(docv) (one JSON file per attacked \
             construction; duplicates are skipped).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Replay every stored witness under $(docv) instead of searching; \
             exits non-zero if any witness now yields a larger surviving \
             diameter than recorded.")
  in
  let churn =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:
            "After the search, run a message-level simulation where the \
             discovered witnesses crash in waves and recover.")
  in
  let universe =
    Arg.(
      value
      & opt
          (enum
             [
               ("nodes", Surviving.Nodes);
               ("links", Surviving.Links);
               ("mixed", Surviving.Mixed);
             ])
          Surviving.Nodes
      & info [ "universe" ] ~docv:"U"
          ~doc:
            "Fault universe to search: $(b,nodes) (default), $(b,links) (link \
             faults only), or $(b,mixed) (node and link faults drawn from one \
             budget).")
  in
  Cmd.v
    (Cmd.info "attack" ~exits:Cli.exits
       ~doc:
         "search for diameter-maximizing fault sets, shrink the witness, and \
          maintain a regression corpus")
    Term.(
      const run $ spec $ Cli.strategy $ Cli.seed $ Cli.faults $ budget $ restarts
      $ corpus $ replay $ churn $ universe $ Cli.jobs $ Cli.metrics $ Cli.trace)
