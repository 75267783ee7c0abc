(* ftr: command-line front end for the fault-tolerant routing library.

   Subcommands:
     info      structural properties of a graph
     route     build a routing (auto or named strategy) and show stats
     tolerate  fault-injection check of a construction's claims
     simulate  message-level simulation with crashes
     attack    adversarial fault search + witness corpus
     soak      corpus replay against the churn-hardened protocol
     serve     long-lived routing daemon (and its --slo soak gate)
     query     client for a running serve daemon (with transport retries)
     chaos     gray-failure / heavy-traffic scenario against the serve stack
     compact   label-computed route tables at 10^5-10^6 nodes, sampled certify
     dot       DOT export                                           *)

open Cmdliner
open Ftr_graph
open Ftr_core

let graph_arg =
  let graph_conv = Arg.conv' Ftr_analysis.Graph_spec.conv in
  Arg.(
    required
    & pos 0 (some graph_conv) None
    & info [] ~docv:"GRAPH"
        ~doc:
          "Graph spec, e.g. torus:5x5, hypercube:4, ccc:3, cycle:12, petersen, \
           gnp:64:0.1:7, regular:24:4:7.")

let seed_arg = Arg.(value & opt int 0xBEEF & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let dist_cell = Format.asprintf "%a" Metrics.pp_distance
let ms_cell = function Some ms -> Printf.sprintf "%.3fms" ms | None -> "-"

(* ---------------- output files ---------------- *)

module Output = Ftr_obs.Output

(* A failed [Output.write_file] has printed [cannot write PATH: ...];
   the command then exits [write_failed], the infra code 3. *)
let write_failed = Ftr_serve.Exit_code.(to_int Infra)
let write_exit = Cmd.Exit.info write_failed ~doc:"an output file could not be written"

(* ---------------- observability ---------------- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write engine/attack/sim metrics (counters, gauges, span timings) as \
           JSON to $(docv) on exit. Counter values are a function of the \
           requested work alone: identical for every $(b,--jobs) value. If \
           $(docv) cannot be written, the command exits 3.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Print a timing line to stderr as each instrumented span completes.")

(* Transport-level retries performed by `ftr query` (connect refused,
   connection lost, read timeout) — one tick per re-attempt. *)
let c_query_retries = Ftr_obs.Obs.counter "query.retries"

(* Instrumentation is off unless asked for; the metrics file is
   written even when the run fails, so a crashing invocation still
   leaves its partial counters behind for diagnosis. A metrics file
   that cannot be written turns the exit code into [write_failed]. *)
let with_obs metrics trace f =
  let module Obs = Ftr_obs.Obs in
  if metrics <> None || trace then begin
    Obs.set_enabled true;
    Obs.set_trace trace
  end;
  let finish () =
    match metrics with
    | None -> true
    | Some path -> Output.write_file path (Obs.to_json ())
  in
  match f () with
  | code -> if finish () then code else write_failed
  | exception e ->
      ignore (finish ());
      raise e

(* ---------------- info ---------------- *)

let info_cmd =
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
    Printf.printf "diameter            %s\n" (dist_cell (Metrics.diameter g));
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
  in
  Cmd.v
    (Cmd.info "info" ~doc:"structural properties relevant to the constructions")
    Term.(const run $ graph_arg)

(* ---------------- route ---------------- *)

let strategies =
  [
    ("auto", `Auto); ("kernel", `Kernel); ("circular", `Circular);
    ("tri-circular", `Tri_full); ("tri-circular-small", `Tri_small);
    ("bipolar-uni", `Bipolar_uni); ("bipolar-bi", `Bipolar_bi);
  ]

let strategy_name strategy = fst (List.find (fun (_, v) -> v = strategy) strategies)

let strategy_arg =
  Arg.(
    value
    & opt (enum strategies) `Auto
    & info [ "strategy"; "s" ] ~docv:"STRATEGY"
        ~doc:"One of auto, kernel, circular, tri-circular, tri-circular-small, \
              bipolar-uni, bipolar-bi.")

let build_construction g strategy seed =
  let rng = Random.State.make [| seed |] in
  (* [Builder.auto] computes its own [t]; the named strategies need it. *)
  let t () = Connectivity.vertex_connectivity g - 1 in
  let m () = Independent.best_of ~rng ~tries:30 g in
  match strategy with
  | `Auto -> (Builder.auto ~rng g).Builder.construction
  | `Kernel -> Kernel.make g ~t:(t ())
  | `Circular -> Circular.make ~m:(m ()) g ~t:(t ())
  | `Tri_full ->
      Tri_circular.make ~m:(m ()) g ~t:(t ()) ~variant:Tri_circular.Full
  | `Tri_small ->
      Tri_circular.make ~m:(m ()) g ~t:(t ()) ~variant:Tri_circular.Small
  | `Bipolar_uni -> Bipolar.make_unidirectional g ~t:(t ())
  | `Bipolar_bi -> Bipolar.make_bidirectional g ~t:(t ())

let route_cmd =
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the route table (ftr-routing format).")
  in
  let run g strategy seed save =
    match build_construction g strategy seed with
    | exception Invalid_argument msg ->
        Printf.eprintf "cannot build: %s\n" msg;
        1
    | c ->
        Format.printf "%a@." Construction.pp c;
        Printf.printf "max route length    %d\n" (Routing.max_route_length c.routing);
        Printf.printf "total route edges   %d\n" (Routing.total_route_edges c.routing);
        Printf.printf "max stretch         %.2f\n" (Routing.stretch c.routing);
        let saved =
          match save with
          | None -> true
          | Some path ->
              let ok = Output.write_file path (Routing_io.to_string c.routing) in
              if ok then Printf.printf "saved               %s\n" path;
              ok
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
        if not saved then write_failed else if valid then 0 else 1
  in
  Cmd.v
    (Cmd.info "route" ~exits:(write_exit :: Cmd.Exit.defaults)
       ~doc:"build a routing and report its statistics")
    Term.(const run $ graph_arg $ strategy_arg $ seed_arg $ save_arg)

(* ---------------- tolerate ---------------- *)

let faults_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "faults"; "f" ] ~docv:"F" ~doc:"Fault budget (default: each claim's f).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the evaluation engine (default: the number of \
           recommended domains). Verdicts are identical for every value; only \
           the wall-clock changes.")

let engine_arg =
  let engine_conv =
    Arg.enum [ ("sliced", Tolerance.Sliced); ("scalar", Tolerance.Scalar) ]
  in
  Arg.(
    value
    & opt (some engine_conv) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Evaluation engine for exact-diameter sweeps: $(b,sliced) (default; \
           packs up to 63 fault sets as bit lanes of one word-parallel BFS, \
           for graphs of any size) or $(b,scalar) (one BFS per fault set — the \
           reference path the property tests compare against). Verdicts are \
           identical either way.")

let tolerate_cmd =
  let run g strategy seed faults jobs engine metrics trace =
    with_obs metrics trace @@ fun () ->
    match build_construction g strategy seed with
    | exception Invalid_argument msg ->
        Printf.eprintf "cannot build: %s\n" msg;
        1
    | c ->
        let rng = Random.State.make [| seed; 1 |] in
        let failures = ref 0 in
        List.iter
          (fun (claim : Construction.claim) ->
            let f = Option.value faults ~default:claim.max_faults in
            let v = Tolerance.evaluate ~rng ?jobs ?engine c ~f in
            let ok = Tolerance.respects v ~bound:claim.diameter_bound in
            if not ok then incr failures;
            Printf.printf "%-28s f=%d bound=%d worst=%s sets=%d%s -> %s\n" claim.source f
              claim.diameter_bound (dist_cell v.Tolerance.worst) v.Tolerance.sets_checked
              (if v.Tolerance.definitive then " (exhaustive)" else "")
              (if ok then "ok" else "VIOLATION");
            if not ok then
              Printf.printf "  witness fault set: %s\n"
                (Surviving.fault_set_to_string v.Tolerance.witness))
          c.claims;
        if !failures = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "tolerate" ~doc:"fault-injection check of a construction's claims")
    Term.(
      const run $ graph_arg $ strategy_arg $ seed_arg $ faults_arg $ jobs_arg
      $ engine_arg $ metrics_arg $ trace_arg)

(* ---------------- props ---------------- *)

let props_cmd =
  let faults_list =
    Arg.(
      value
      & opt (list int) []
      & info [ "kill" ] ~docv:"V1,V2,..." ~doc:"Fault set to apply before checking.")
  in
  let run g strategy seed faults =
    match build_construction g strategy seed with
    | exception Invalid_argument msg ->
        Printf.eprintf "cannot build: %s\n" msg;
        1
    | c ->
        let fault_set = Bitset.of_list (Graph.n g) faults in
        let reports = Properties.check c ~faults:fault_set in
        if reports = [] then begin
          Printf.printf "no lemma-level properties for %s\n" c.Construction.name;
          0
        end
        else begin
          List.iter (fun r -> Format.printf "%a@." Properties.pp_report r) reports;
          if Properties.all_hold reports then 0 else 1
        end
  in
  Cmd.v
    (Cmd.info "props"
       ~doc:"check the construction's lemma-level properties under a fault set")
    Term.(const run $ graph_arg $ strategy_arg $ seed_arg $ faults_list)

(* ---------------- simulate ---------------- *)

let simulate_cmd =
  let crashes = Arg.(value & opt int 1 & info [ "crashes" ] ~docv:"K" ~doc:"Nodes to crash.") in
  let messages =
    Arg.(value & opt int 200 & info [ "messages" ] ~docv:"M" ~doc:"Messages to send.")
  in
  let run g strategy seed crashes messages =
    match build_construction g strategy seed with
    | exception Invalid_argument msg ->
        Printf.eprintf "cannot build: %s\n" msg;
        1
    | c ->
        let rng = Random.State.make [| seed; 2 |] in
        let net = Ftr_sim.Network.create c.routing in
        let sim = Ftr_sim.Sim.create () in
        let n = Graph.n g in
        Ftr_sim.Faults.schedule_on sim net
          (Ftr_sim.Faults.random_crashes ~rng ~n ~count:crashes ~window:(50.0, 50.0));
        let entries =
          Ftr_sim.Workload.uniform ~rng ~n ~count:messages ~horizon:200.0
        in
        let msgs =
          Ftr_sim.Protocol.deliver_all sim net Ftr_sim.Protocol.default_config entries
        in
        let delivered =
          List.filter (fun m -> m.Ftr_sim.Message.status = Ftr_sim.Message.Delivered) msgs
        in
        Printf.printf "delivered           %d/%d\n" (List.length delivered)
          (List.length msgs);
        (match
           Ftr_sim.Stats.of_ints
             (List.map (fun m -> m.Ftr_sim.Message.routes_traversed) delivered)
         with
        | Some s -> Format.printf "routes traversed    %a@." Ftr_sim.Stats.pp_summary s
        | None -> ());
        (match
           Ftr_sim.Stats.summarize (List.filter_map Ftr_sim.Message.latency delivered)
         with
        | Some s -> Format.printf "latency             %a@." Ftr_sim.Stats.pp_summary s
        | None -> ());
        Printf.printf "surviving diameter  %s\n"
          (dist_cell (Ftr_sim.Network.surviving_diameter net));
        Printf.printf "events executed     %d\n" (Ftr_sim.Sim.events_executed sim);
        0
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"message-level simulation with node crashes")
    Term.(const run $ graph_arg $ strategy_arg $ seed_arg $ crashes $ messages)

(* ---------------- check ---------------- *)

let check_cmd =
  let file_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Route table file (ftr-routing format).")
  in
  let bound_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "bound" ] ~docv:"D"
          ~doc:
            "Certify \"(D, F)-tolerant\" instead of computing the exact worst \
             diameter: each BFS stops as soon as $(docv) is provably exceeded. \
             A violation reports the first violating fault set in the \
             canonical enumeration order.")
  in
  let run g file faults bound jobs engine metrics trace =
    with_obs metrics trace @@ fun () ->
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error e ->
        Printf.eprintf "cannot read %s\n" e;
        1
    | text -> (
    match Routing_io.load g text with
    | Error e ->
        Printf.eprintf "cannot load %s: %s\n" file e;
        1
    | Ok routing -> (
    match Routing.validate routing with
    | Error e ->
        Printf.eprintf "invalid route table %s: %s\n" file e;
        1
    | Ok () -> (
        Printf.printf "loaded %d routes (max length %d, stretch %.2f)\n"
          (Routing.route_count routing)
          (Routing.max_route_length routing)
          (Routing.stretch routing);
        let f = Option.value faults ~default:1 in
        (* [Surviving.compile] rejects a table whose routes step off
           the graph's edge set; report it as a diagnostic, not a
           backtrace. *)
        try
          match bound with
          | Some b ->
              let cert = Tolerance.certify ?jobs routing ~f ~bound:b in
              Printf.printf "certificate over %d fault sets (<=%d faults): "
                cert.Tolerance.cert_sets_checked f;
              if cert.Tolerance.holds then begin
                Printf.printf "(%d, %d)-tolerant\n" b f;
                0
              end
              else begin
                (match cert.Tolerance.counterexample with
                | Some w ->
                    Printf.printf "VIOLATED by %s\n" (Surviving.fault_set_to_string w)
                | None -> Printf.printf "VIOLATED\n");
                1
              end
          | None -> (
              match Tolerance.exhaustive ?jobs ?engine routing ~f with
              | v ->
                  Printf.printf
                    "worst surviving diameter over %d fault sets (<=%d faults): %s\n"
                    v.Tolerance.sets_checked f
                    (dist_cell v.Tolerance.worst);
                  0)
        with Invalid_argument msg ->
          Printf.eprintf "cannot check %s: %s\n" file msg;
          1)))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"load a saved route table and fault-check it against its graph")
    Term.(
      const run $ graph_arg $ file_arg $ faults_arg $ bound_arg $ jobs_arg
      $ engine_arg $ metrics_arg $ trace_arg)

(* ---------------- attack ---------------- *)

(* The corpus carries CLI provenance (graph spec, strategy name,
   seed); this maps it back through the same strategy table as
   `ftr route`. *)
let build_provenance ~graph ~strategy ~seed =
  match Ftr_analysis.Graph_spec.parse graph with
  | Error e -> Error ("bad graph spec: " ^ e)
  | Ok g -> (
      match List.assoc_opt strategy strategies with
      | None -> Error ("unknown strategy " ^ strategy)
      | Some s -> (
          match build_construction g s seed with
          | exception Invalid_argument msg -> Error msg
          | c -> Ok c))

(* One construction (and one compiled table) per distinct provenance
   triple, shared across its witnesses. *)
let construction_cache () =
  let cache = Hashtbl.create 8 in
  fun ((graph, strategy, seed) as key) ->
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
        let r =
          Result.map
            (fun c -> (c, Surviving.compile c.Construction.routing))
            (build_provenance ~graph ~strategy ~seed)
        in
        Hashtbl.add cache key r;
        r

(* The entries of every corpus file under [dir], for the commands that
   treat a broken corpus as a broken input: [Error 0] (nothing to do)
   when there is no corpus file, [Error 3] after printing each parse
   error. `attack --replay` counts a parse error as a failed witness
   instead. *)
let load_corpus dir =
  let files = Attack.Corpus.load_dir dir in
  let parse_errors =
    List.filter_map
      (fun (path, r) -> match r with Error e -> Some (path, e) | Ok _ -> None)
      files
  in
  if files = [] then begin
    Printf.printf "no corpus files under %s\n" dir;
    Error 0
  end
  else if parse_errors <> [] then begin
    List.iter
      (fun (path, e) -> Printf.eprintf "%s: PARSE ERROR: %s\n" path e)
      parse_errors;
    Error 3
  end
  else Ok (List.concat_map (fun (_, r) -> Result.get_ok r) files)

let replay_corpus dir =
  let files = Attack.Corpus.load_dir dir in
  if files = [] then begin
    Printf.printf "no corpus files under %s\n" dir;
    0
  end
  else begin
    let construction_for = construction_cache () in
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
                          (dist_cell d) (dist_cell e.diameter)
                      end
                      else if d <> e.diameter then
                        Printf.printf "%-44s improved: now %s, stored %s\n" label
                          (dist_cell d) (dist_cell e.diameter)
                      else Printf.printf "%-44s ok (%s)\n" label (dist_cell d))
              entries)
      files;
    Printf.printf "replayed %d witness(es), %d failure(s)\n" !checked !failures;
    if !failures = 0 then 0 else 1
  end

let attack_cmd =
  let spec_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"GRAPH"
          ~doc:"Graph spec (as for the other subcommands); omit with $(b,--replay).")
  in
  let budget_arg =
    Arg.(
      value
      & opt int Attack.default_config.Attack.budget
      & info [ "budget" ] ~docv:"N" ~doc:"Max diameter evaluations for the search.")
  in
  let restarts_arg =
    Arg.(
      value
      & opt int Attack.default_config.Attack.restarts
      & info [ "restarts" ] ~docv:"N" ~doc:"Max restarts (pool-seeded first, then random).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Append the shrunk witness to $(docv) (one JSON file per attacked \
                construction; duplicates are skipped).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:"Replay every stored witness under $(docv) instead of searching; \
                exits non-zero if any witness now yields a larger surviving \
                diameter than recorded.")
  in
  let churn_arg =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:"After the search, run a message-level simulation where the \
                discovered witnesses crash in waves and recover.")
  in
  let universe_arg =
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
            "Fault universe to search: $(b,nodes) (default), $(b,links) \
             (link faults only), or $(b,mixed) (node and link faults drawn \
             from one budget).")
  in
  let run spec strategy seed faults budget restarts corpus_dir replay churn universe
      jobs metrics trace =
    with_obs metrics trace @@ fun () ->
    match replay with
    | Some dir -> replay_corpus dir
    | None -> (
        match spec with
        | None ->
            Printf.eprintf "a GRAPH spec is required unless --replay is given\n";
            1
        | Some spec -> (
            match Ftr_analysis.Graph_spec.parse spec with
            | Error e ->
                Printf.eprintf "bad graph spec: %s\n" e;
                1
            | Ok g -> (
                match build_construction g strategy seed with
                | exception Invalid_argument msg ->
                    Printf.eprintf "cannot build: %s\n" msg;
                    1
                | c ->
                    let rng = Random.State.make [| seed; 3 |] in
                    let n = Graph.n g in
                    let default_f =
                      List.fold_left
                        (fun acc (cl : Construction.claim) -> max acc cl.max_faults)
                        1 c.claims
                    in
                    let f = Option.value faults ~default:default_f in
                    let config =
                      { Attack.default_config with Attack.budget; restarts }
                    in
                    let o =
                      Attack.search ~config ?jobs ~rng ~pools:c.Construction.pools
                        ~universe c.Construction.routing ~f
                    in
                    let worst = o.Attack.worst in
                    let w_nodes = o.Attack.witness.nodes in
                    let w_edges = o.Attack.witness.links in
                    let sname = strategy_name strategy in
                    Printf.printf "attack              %s %s seed=%d f=%d\n" spec sname
                      seed f;
                    Printf.printf "worst found         %s\n" (dist_cell worst);
                    Printf.printf "witness             %s\n"
                      (Surviving.fault_set_to_string o.Attack.witness);
                    Printf.printf "shrunk              %d -> %d fault(s)\n"
                      (List.length o.Attack.raw_witness.nodes
                      + List.length o.Attack.raw_witness.links)
                      (List.length w_nodes + List.length w_edges);
                    Printf.printf "evals used          %d (budget %d)\n" o.Attack.evals
                      budget;
                    Printf.printf "restarts            %d\n" o.Attack.restarts_used;
                    let bound = Construction.bound_for c ~f in
                    (match bound with
                    | Some b ->
                        Printf.printf "claim bound         %d -> %s\n" b
                          (if Metrics.distance_le worst (Metrics.Finite b) then
                             "respected"
                           else "VIOLATED")
                    | None -> ());
                    let corpus_error = ref false in
                    (match corpus_dir with
                    | None -> ()
                    | Some dir when w_nodes = [] && w_edges = [] ->
                        Printf.printf "corpus              nothing to save in %s\n" dir
                    | Some dir -> (
                        let fname =
                          Filename.concat dir
                            (Output.safe_name (spec ^ "__" ^ sname) ^ ".json")
                        in
                        let not_saved why =
                          corpus_error := true;
                          Printf.eprintf "corpus              NOT saved (%s)\n" why
                        in
                        let in_file msg = fname ^ ": " ^ msg in
                        (* [Sys_error] from [mkdir] already names the
                           directory. *)
                        let existing =
                          match
                            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
                          with
                          | () ->
                              if Sys.file_exists fname then
                                Result.map_error in_file (Attack.Corpus.load_file fname)
                              else Ok []
                          | exception Sys_error msg -> Error msg
                        in
                        match existing with
                        | Error why -> not_saved why
                        | Ok entries ->
                            let entry =
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
                            let entries, added = Attack.Corpus.add entries entry in
                            if added then
                              match Attack.Corpus.save_file fname entries with
                              | Ok () -> Printf.printf "corpus              + %s\n" fname
                              | Error msg -> not_saved (in_file msg)
                            else
                              Printf.printf "corpus              duplicate in %s\n"
                                fname));
                    if churn then begin
                      let waves =
                        List.sort_uniq compare [ w_nodes; o.Attack.raw_witness.nodes ]
                        |> List.filter (fun w -> w <> [])
                      in
                      let net = Ftr_sim.Network.create c.Construction.routing in
                      let sim = Ftr_sim.Sim.create () in
                      Ftr_sim.Faults.schedule_on sim net
                        (Ftr_sim.Faults.witness_waves ~start:40.0 ~dwell:60.0
                           ~gap:20.0 waves);
                      if w_edges <> [] then
                        Ftr_sim.Faults.schedule_on sim net
                          (Ftr_sim.Faults.link_waves ~start:40.0 ~dwell:60.0
                             ~gap:20.0 [ w_edges ]);
                      let entries =
                        Ftr_sim.Workload.uniform ~rng ~n ~count:300 ~horizon:240.0
                      in
                      let msgs =
                        Ftr_sim.Protocol.deliver_all sim net
                          Ftr_sim.Protocol.default_config entries
                      in
                      let delivered =
                        List.filter
                          (fun m ->
                            m.Ftr_sim.Message.status = Ftr_sim.Message.Delivered)
                          msgs
                      in
                      Printf.printf "churn delivered     %d/%d over %d wave(s)\n"
                        (List.length delivered) (List.length msgs)
                        (max (List.length waves) (if w_edges <> [] then 1 else 0))
                    end;
                    if !corpus_error then 1 else 0)))
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:
         "search for diameter-maximizing fault sets, shrink the witness, and \
          maintain a regression corpus")
    Term.(
      const run $ spec_arg $ strategy_arg $ seed_arg $ faults_arg $ budget_arg
      $ restarts_arg $ corpus_arg $ replay_arg $ churn_arg $ universe_arg
      $ jobs_arg $ metrics_arg $ trace_arg)

(* ---------------- soak ---------------- *)

(* The soak-style gates (ftr soak, ftr serve --slo) share a documented
   exit-code contract so CI can tell a broken promise from a broken
   invocation from a broken environment. *)
let soak_exits =
  [
    Cmd.Exit.info 0 ~doc:"every check passed";
    Cmd.Exit.info 1
      ~doc:
        "a promise was breached: dead letters or dropped/degraded queries \
         within a proven (d, f) budget, a latency SLO miss, or a journal \
         replay divergence";
    Cmd.Exit.info 2 ~doc:"invalid flag values (usage error)";
    Cmd.Exit.info 3
      ~doc:
        "environment or input failure: unreadable or unparseable corpus, a \
         construction that no longer builds, socket setup failure, an output \
         file that cannot be written";
  ]

let soak_cmd =
  let corpus_arg =
    Arg.(
      value & opt string "corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Witness corpus to replay as link-flap waves.")
  in
  let messages_arg =
    Arg.(
      value & opt int 300
      & info [ "messages" ] ~docv:"M" ~doc:"Messages per construction.")
  in
  let dwell_arg =
    Arg.(
      value & opt float 60.0
      & info [ "dwell" ] ~docv:"T" ~doc:"How long each wave of links stays down.")
  in
  let gap_arg =
    Arg.(
      value & opt float 20.0
      & info [ "gap" ] ~docv:"T" ~doc:"Healthy time between waves.")
  in
  (* Witness waves replay as link flaps via Faults.witness_links: a
     witness node becomes one incident link, so a within-budget
     witness stays within budget under the paper's endpoint
     reduction, and a within-budget wave must produce zero dead
     letters. *)
  let wave_of_entry g (e : Attack.Corpus.entry) =
    Ftr_sim.Faults.witness_links g ~nodes:e.faults ~links:e.edges
  in
  let run corpus_dir seed messages dwell gap metrics trace =
    with_obs metrics trace @@ fun () ->
    if messages <= 0 then begin
      Printf.eprintf "soak: --messages must be positive (got %d)\n" messages;
      2
    end
    else if dwell < 0.0 || gap < 0.0 then begin
      Printf.eprintf "soak: --dwell and --gap must be non-negative\n";
      2
    end
    else
    match load_corpus corpus_dir with
    | Error code -> code
    | Ok entries ->
        (* One simulation per construction; each of its witnesses is
           one wave of link flaps. *)
        let groups = Hashtbl.create 8 in
        let order = ref [] in
        List.iter
          (fun (e : Attack.Corpus.entry) ->
            let key = (e.graph, e.strategy, e.seed) in
            if not (Hashtbl.mem groups key) then order := key :: !order;
            Hashtbl.replace groups key
              (e :: (Option.value (Hashtbl.find_opt groups key) ~default:[])))
          entries;
        let construction_for = construction_cache () in
        let breaches = ref 0 and infra = ref 0 in
        let all_msgs = ref [] in
        List.iter
          (fun ((spec, strat, cseed) as key) ->
            let group =
              List.rev (Option.value (Hashtbl.find_opt groups key) ~default:[])
            in
            match construction_for key with
            | Error msg ->
                incr infra;
                Printf.printf "%s %s seed=%d: ERROR: %s\n" spec strat cseed msg
            | Ok (c, _) ->
                let g = Routing.graph c.Construction.routing in
                let n = Graph.n g in
                let waves_all = List.map (wave_of_entry g) group in
                let waves = List.filter (fun w -> w <> []) waves_all in
                let nwaves = List.length waves in
                let start = 40.0 in
                let horizon =
                  start +. (float_of_int nwaves *. (dwell +. gap))
                in
                let net = Ftr_sim.Network.create c.Construction.routing in
                let sim = Ftr_sim.Sim.create () in
                Ftr_sim.Faults.schedule_on sim net
                  (Ftr_sim.Faults.link_waves ~start ~dwell ~gap waves);
                let rng = Random.State.make [| seed; 5 |] in
                let workload =
                  Ftr_sim.Workload.uniform ~rng ~n ~count:messages ~horizon
                in
                let msgs =
                  Ftr_sim.Protocol.deliver_all sim net
                    Ftr_sim.Protocol.hardened_config workload
                in
                all_msgs := msgs :: !all_msgs;
                let d = Ftr_sim.Stats.delivery_report msgs in
                let within_budget =
                  List.for_all2
                    (fun (e : Attack.Corpus.entry) w ->
                      List.length w <= e.f
                      && Construction.bound_for c ~f:(List.length w) <> None)
                    group waves_all
                in
                if within_budget && d.Ftr_sim.Stats.dead_letters > 0 then begin
                  incr breaches;
                  Printf.printf
                    "%s %s seed=%d: %d dead letter(s) within the claim budget\n"
                    spec strat cseed d.Ftr_sim.Stats.dead_letters
                end;
                Format.printf "%-32s %d wave(s)  %a@."
                  (Printf.sprintf "%s/%s seed=%d" spec strat cseed)
                  nwaves Ftr_sim.Stats.pp_delivery d)
          (List.rev !order);
        let total = Ftr_sim.Stats.delivery_report (List.concat !all_msgs) in
        Format.printf "%-32s          %a@." "TOTAL" Ftr_sim.Stats.pp_delivery total;
        (match total.Ftr_sim.Stats.replans_per_message with
        | Some s -> Format.printf "replans/message: %a@." Ftr_sim.Stats.pp_summary s
        | None -> ());
        if !infra > 0 then 3 else if !breaches > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "soak" ~exits:soak_exits
       ~doc:
         "replay attack witnesses as link-flap waves against the \
          churn-hardened protocol and report delivery, latency, re-plans and \
          dead letters")
    Term.(
      const run $ corpus_arg $ seed_arg $ messages_arg $ dwell_arg $ gap_arg
      $ metrics_arg $ trace_arg)

(* ---------------- serve ---------------- *)

module Serve = Ftr_serve

let serve_cmd =
  let spec_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"GRAPH"
          ~doc:"Graph spec to serve (required unless $(b,--slo)).")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Unix domain socket to listen on (required unless $(b,--slo)). \
             Requests are newline-delimited JSON; see `ftr query` for a \
             client.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead fault journal: every accepted fault delta is fsynced \
             to $(docv) before it is applied, and an existing journal is \
             replayed at startup so a restarted daemon resumes in the exact \
             fault state it died in.")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission budget: requests arriving while $(docv) are already \
             queued are shed with an explicit response rather than queued \
             without bound.")
  in
  let deadline_arg =
    Arg.(
      value & opt float 0.0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request wait deadline: a request that waits longer than \
             $(docv) in the admission queue is expired (answered with a shed \
             response), not served late. 0 disables.")
  in
  let bound_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "bound" ] ~docv:"D"
          ~doc:
            "Proven diameter bound in force: surviving routes longer than \
             $(docv) are answered but flagged degraded. Default: the \
             tightest claim covering the construction's full fault budget.")
  in
  let slo_arg =
    Arg.(
      value & flag
      & info [ "slo" ]
          ~doc:
            "SLO soak mode: instead of listening on a socket, replay the \
             witness corpus as live churn through the same serve stack \
             (admission, journal, degraded mode) and exit non-zero on any \
             dropped in-budget query, over-bound route, journal divergence \
             or p99 latency breach.")
  in
  let corpus_arg =
    Arg.(
      value & opt string "corpus"
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Witness corpus for $(b,--slo).")
  in
  let queries_arg =
    Arg.(
      value & opt int 40
      & info [ "queries" ] ~docv:"Q"
          ~doc:"Route queries per soak phase (baseline, per-wave, recovery).")
  in
  let slo_p99_arg =
    Arg.(
      value & opt float 25.0
      & info [ "slo-p99-ms" ] ~docv:"MS"
          ~doc:"p99 service-latency threshold for $(b,--slo).")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Before soaking each construction, exhaustively re-certify the \
             in-budget (d, f) claim its witnesses run under \
             ($(b,--jobs) parallelises this).")
  in
  let slo_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo-out" ] ~docv:"FILE"
          ~doc:"Write the slo.json artifact (per-construction reports, \
                percentiles, verdict).")
  in
  let gray_factor_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "gray-factor" ] ~docv:"F"
          ~doc:
            "With $(b,--slo): insert a gray-failure wave after each \
             construction's baseline — two links degrade to $(docv) times \
             healthy latency (never dropped), the full in-budget contract \
             must hold unchanged, and restoring must return the fault digest \
             byte-identical. $(docv) must be at least 1.")
  in
  let journal_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the soak's per-construction fault journals \
             (default: the system temp directory).")
  in
  let run spec strategy seed socket journal max_queue deadline_ms bound slo
      corpus queries slo_p99 certify slo_out journal_dir gray_factor jobs
      metrics trace =
    with_obs metrics trace @@ fun () ->
    if slo then begin
      let run_slo () =
        match load_corpus corpus with
        | Error code -> code
        | Ok entries ->
            let cfg =
              {
                Serve.Scenario.queries;
                slo_p99_ms = slo_p99;
                seed;
                jobs;
                certify;
                journal_dir =
                  Option.value journal_dir ~default:(Filename.get_temp_dir_name ());
              }
            in
            let outcome =
              Serve.Scenario.slo ?gray_factor ~build:build_provenance ~entries cfg
            in
            List.iter
              (fun { Serve.Scenario.run = r; in_budget_waves } ->
                match r.Serve.Scenario.infra with
                | Some msg -> Printf.printf "%-32s INFRA: %s\n" r.label msg
                | None ->
                    Printf.printf
                      "%-32s %d wave(s) (%d in-budget)  %d queries  %d \
                       degraded  %d shed  p99=%s%s%s\n"
                      r.label (List.length r.phases) in_budget_waves
                      r.total.requests r.total.degraded r.total.shed (ms_cell r.p99_ms)
                      (match r.certified with
                      | Some (b, k) -> Printf.sprintf "  certified(%d,%d)" b k
                      | None -> "")
                      (if r.journal_digest_ok then ""
                       else "  JOURNAL-DIVERGED");
                    List.iter
                      (fun v -> Printf.printf "    violation: %s\n" v)
                      r.violations)
              outcome.reports;
            Printf.printf "total: %d queries, dropped-in-budget=%d, p99=%s -> %s\n"
              outcome.total_queries outcome.dropped_in_budget (ms_cell outcome.p99_ms)
              (Serve.Exit_code.describe outcome.exit);
            let written =
              match slo_out with
              | None -> true
              | Some path ->
                  Output.write_file path
                    (Serve.Sjson.to_string
                       (Serve.Scenario.slo_json ?gray_factor cfg outcome)
                    ^ "\n")
            in
            Serve.Exit_code.(
              to_int (worst outcome.exit (if written then Clean else Infra)))
      in
      if queries <= 0 then begin
        Printf.eprintf "serve --slo: --queries must be positive (got %d)\n"
          queries;
        2
      end
      else if slo_p99 <= 0.0 then begin
        Printf.eprintf "serve --slo: --slo-p99-ms must be positive (got %g)\n"
          slo_p99;
        2
      end
      else begin
        match gray_factor with
        | Some f when (not (Float.is_finite f)) || f < 1.0 ->
            Printf.eprintf
              "serve --slo: --gray-factor must be finite and >= 1 (got %g)\n" f;
            2
        | _ -> run_slo ()
      end
    end
    else begin
      match (spec, socket) with
      | None, _ ->
          Printf.eprintf "a GRAPH spec is required unless --slo is given\n";
          2
      | _, None ->
          Printf.eprintf "--socket PATH is required unless --slo is given\n";
          2
      | Some spec, Some socket ->
          if max_queue <= 0 then begin
            Printf.eprintf "serve: --max-queue must be positive (got %d)\n"
              max_queue;
            2
          end
          else if deadline_ms < 0.0 then begin
            Printf.eprintf "serve: --deadline-ms must be non-negative\n";
            2
          end
          else begin
            match Ftr_analysis.Graph_spec.parse spec with
            | Error e ->
                Printf.eprintf "bad graph spec: %s\n" e;
                3
            | Ok g -> (
                match build_construction g strategy seed with
                | exception Invalid_argument msg ->
                    Printf.eprintf "cannot build: %s\n" msg;
                    3
                | c -> (
                    let engine = Serve.Engine.create c.Construction.routing in
                    let fmax =
                      List.fold_left
                        (fun acc (cl : Construction.claim) ->
                          max acc cl.max_faults)
                        0 c.Construction.claims
                    in
                    let bound =
                      match bound with
                      | Some _ as b -> b
                      | None -> Construction.bound_for c ~f:fmax
                    in
                    let journal_setup =
                      match journal with
                      | None -> Ok None
                      | Some path -> (
                          match Serve.Journal.load path with
                          | Error msg -> Error msg
                          | Ok events -> (
                              match Serve.Engine.replay engine events with
                              | Error msg -> Error ("journal replay: " ^ msg)
                              | Ok _ -> (
                                  if events <> [] then
                                    Printf.printf
                                      "journal             replayed %d \
                                       event(s) -> %s\n"
                                      (List.length events)
                                      (Serve.Engine.digest engine);
                                  match Serve.Journal.create path with
                                  | Error msg -> Error msg
                                  | Ok j -> Ok (Some j))))
                    in
                    match journal_setup with
                    | Error msg ->
                        Printf.eprintf "serve: %s\n" msg;
                        3
                    | Ok journal -> (
                        let srv =
                          Serve.Server.create ?journal
                            { Serve.Server.max_queue; deadline = deadline_ms /. 1000.0; bound }
                            engine
                        in
                        Printf.printf "serving %s/%s seed=%d on %s (bound=%s)\n"
                          spec (strategy_name strategy) seed socket
                          (match bound with
                          | Some b -> string_of_int b
                          | None -> "none");
                        flush stdout;
                        match Serve.Server.run srv ~socket with
                        | Ok () -> 0
                        | Error msg ->
                            Printf.eprintf "serve: %s\n" msg;
                            3)))
          end
    end
  in
  Cmd.v
    (Cmd.info "serve" ~exits:soak_exits
       ~doc:
         "long-lived routing daemon: compile once, answer surviving-route \
          and diameter queries over a Unix socket while faults arrive as \
          incremental deltas; with $(b,--slo), soak the same stack against \
          the witness corpus and gate on latency and degradation SLOs")
    Term.(
      const run $ spec_arg $ strategy_arg $ seed_arg $ socket_arg $ journal_arg
      $ max_queue_arg $ deadline_arg $ bound_arg $ slo_arg $ corpus_arg
      $ queries_arg $ slo_p99_arg $ certify_arg $ slo_out_arg $ journal_dir_arg
      $ gray_factor_arg $ jobs_arg $ metrics_arg $ trace_arg)

(* ---------------- query ---------------- *)

let query_cmd =
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's socket.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 10.0
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:"Give up on a response after $(docv) seconds.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry the whole request batch up to $(docv) times when the \
             daemon cannot be reached or the connection dies mid-stream \
             (capped exponential backoff between attempts). Application \
             errors — a response with ok=false — are never retried.")
  in
  let retry_deadline_arg =
    Arg.(
      value & opt float 30.0
      & info [ "retry-deadline" ] ~docv:"SEC"
          ~doc:
            "Total wall-clock budget across all attempts; once spent, no \
             further retry is scheduled even if $(b,--retries) remain.")
  in
  let reqs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Requests, sent in order: raw JSON (anything starting with '{') \
             or shorthand $(b,health), $(b,ready), $(b,stats), $(b,drain), \
             $(b,diameter), $(b,route:SRC:DST), $(b,fail:V), \
             $(b,recover:V), $(b,fail-link:U:V), $(b,recover-link:U:V), \
             $(b,degrade-link:U:V:FACTOR), $(b,restore-link:U:V).")
  in
  let parse_request s =
    if String.length s > 0 && s.[0] = '{' then Ok s
    else
      let line r = Ok (Serve.Wire.request_to_line r) in
      let int = Decimal.parse ~signed:true in
      let node mk v =
        match int v with
        | Some v -> line (Serve.Wire.Fault (mk v))
        | None -> Error (Printf.sprintf "bad node in %S" s)
      in
      let link mk u v =
        match (int u, int v) with
        | Some u, Some v -> line (Serve.Wire.Fault (mk u v))
        | _ -> Error (Printf.sprintf "bad link in %S" s)
      in
      match String.split_on_char ':' s with
      | [ "health" ] -> line Serve.Wire.Health
      | [ "ready" ] -> line Serve.Wire.Ready
      | [ "stats" ] -> line Serve.Wire.Stats
      | [ "drain" ] -> line Serve.Wire.Drain
      | [ "diameter" ] -> line Serve.Wire.Diameter
      | [ "route"; a; b ] -> (
          match (int a, int b) with
          | Some src, Some dst -> line (Serve.Wire.Route { src; dst })
          | _ -> Error (Printf.sprintf "bad route endpoints in %S" s))
      | [ "fail"; v ] -> node (fun v -> Serve.Wire.Fail_node v) v
      | [ "recover"; v ] -> node (fun v -> Serve.Wire.Recover_node v) v
      | [ "fail-link"; u; v ] ->
          link (fun u v -> Serve.Wire.Fail_link (u, v)) u v
      | [ "recover-link"; u; v ] ->
          link (fun u v -> Serve.Wire.Recover_link (u, v)) u v
      | [ "degrade-link"; u; v; f ] -> (
          match float_of_string_opt f with
          | Some f when Float.is_finite f && f >= 1.0 ->
              link (fun u v -> Serve.Wire.Degrade_link (u, v, f)) u v
          | _ -> Error (Printf.sprintf "bad degrade factor in %S" s))
      | [ "restore-link"; u; v ] ->
          link (fun u v -> Serve.Wire.Restore_link (u, v)) u v
      | _ -> Error (Printf.sprintf "cannot parse request %S" s)
  in
  (* One full attempt: connect, send every request, read every
     response. [Error msg] means the daemon was unreachable or the
     connection died mid-stream — the transport failures a retry can
     fix. An ok=false response is an application answer, never
     retried. *)
  let attempt socket timeout lines =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot connect to %s: %s" socket
             (Unix.error_message e))
    | () ->
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
         with Unix.Unix_error _ -> ());
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let all_ok = ref true in
        let result =
          try
            List.iter
              (fun l ->
                output_string oc (l ^ "\n");
                flush oc;
                let resp = input_line ic in
                print_endline resp;
                match Serve.Sjson.parse resp with
                | Ok json
                  when Option.value ~default:false
                         (Option.bind
                            (Serve.Sjson.member "ok" json)
                            Serve.Sjson.to_bool) ->
                    ()
                | _ -> all_ok := false)
              lines;
            Ok (if !all_ok then 0 else 1)
          with
          | End_of_file | Sys_error _ -> Error "connection lost"
          | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        result
  in
  let run socket timeout retries retry_deadline reqs metrics trace =
    with_obs metrics trace @@ fun () ->
    if reqs = [] then begin
      Printf.eprintf "query: no requests given\n";
      2
    end
    else if retries < 0 then begin
      Printf.eprintf "query: --retries must be non-negative (got %d)\n" retries;
      2
    end
    else if not (Float.is_finite retry_deadline && retry_deadline > 0.0) then begin
      Printf.eprintf "query: --retry-deadline must be positive\n";
      2
    end
    else begin
      let parsed = List.map parse_request reqs in
      let errors =
        List.filter_map (function Error e -> Some e | Ok _ -> None) parsed
      in
      if errors <> [] then begin
        List.iter (fun e -> Printf.eprintf "query: %s\n" e) errors;
        2
      end
      else begin
        let lines =
          List.filter_map (function Ok l -> Some l | Error _ -> None) parsed
        in
        (* Capped exponential backoff: 0.1s, 0.2s, 0.4s, ... topping
           out at 2s, all under one total wall-clock budget. *)
        let start = Unix.gettimeofday () in
        let backoff k = Float.min 2.0 (0.1 *. (2.0 ** float_of_int k)) in
        let rec go k =
          match attempt socket timeout lines with
          | Ok rc -> rc
          | Error msg ->
              let elapsed = Unix.gettimeofday () -. start in
              if k >= retries then begin
                Printf.eprintf "query: %s\n" msg;
                3
              end
              else if elapsed +. backoff k > retry_deadline then begin
                Printf.eprintf
                  "query: %s (retry deadline %.1fs spent after %d attempt(s))\n"
                  msg retry_deadline (k + 1);
                3
              end
              else begin
                Printf.eprintf "query: %s, retrying in %.1fs (%d/%d)\n" msg
                  (backoff k) (k + 1) retries;
                Unix.sleepf (backoff k);
                Ftr_obs.Obs.incr c_query_retries;
                go (k + 1)
              end
        in
        go 0
      end
    end
  in
  Cmd.v
    (Cmd.info "query" ~exits:soak_exits
       ~doc:
         "send requests to a running `ftr serve` daemon and print each \
          response; exits non-zero if any response is not ok; transport \
          failures retry under a capped exponential backoff when \
          $(b,--retries) is given")
    Term.(
      const run $ socket_arg $ timeout_arg $ retries_arg $ retry_deadline_arg
      $ reqs_arg $ metrics_arg $ trace_arg)

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let queries_arg =
    Arg.(
      value & opt int 60
      & info [ "queries" ] ~docv:"Q"
          ~doc:"Route queries per query phase (baseline, gray, regional).")
  in
  let burst_arg =
    Arg.(
      value & opt int 96
      & info [ "burst" ] ~docv:"N"
          ~doc:
            "Flash-crowd size: $(docv) hub-bound queries submitted faster \
             than the pump drains. Exceed $(b,--max-queue) to force \
             admission shedding.")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 32
      & info [ "max-queue" ] ~docv:"N" ~doc:"Admission queue budget.")
  in
  let deadline_ticks_arg =
    Arg.(
      value & opt float 64.0
      & info [ "deadline-ticks" ] ~docv:"T"
          ~doc:
            "Admission deadline in virtual clock ticks (one tick per \
             submission); requests queued longer are shed. 0 disables.")
  in
  let gray_factor_arg =
    Arg.(
      value & opt float 8.0
      & info [ "gray-factor" ] ~docv:"F"
          ~doc:
            "Latency factor for the gray wave: every link of the chosen \
             BFS ball slows to $(docv) times healthy latency without \
             dropping. Must be finite and at least 1.")
  in
  let radius_arg =
    Arg.(
      value & opt int 1
      & info [ "radius" ] ~docv:"R"
          ~doc:"BFS-ball radius for the gray and regional waves.")
  in
  let zipf_arg =
    Arg.(
      value & opt float 1.1
      & info [ "zipf-s" ] ~docv:"S"
          ~doc:
            "Zipf exponent for pair popularity in the query phases; 0 \
             makes the workload uniform.")
  in
  let slo_p99_arg =
    Arg.(
      value & opt float 50.0
      & info [ "slo-p99-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock p99 service-latency gate. The verdict (a boolean) \
             is in the artifact; the raw percentiles are stdout-only.")
  in
  let min_delivery_arg =
    Arg.(
      value & opt float 0.5
      & info [ "min-delivery" ] ~docv:"RATE"
          ~doc:
            "Delivery-rate floor for the correlated regional-outage phase, \
             in [0, 1].")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Exhaustively re-certify the construction's (bound, 1) claim \
             before the scenario runs ($(b,--jobs) parallelises this; the \
             artifact is byte-identical either way).")
  in
  let journal_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the scenario's fault journal (default: the \
             system temp directory).")
  in
  let chaos_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos-out" ] ~docv:"FILE"
          ~doc:
            "Write the ftr-chaos/1 artifact: config echo, per-phase \
             counts, digests and the exit verdict. Deterministic — \
             byte-identical across $(b,--jobs) values.")
  in
  let run g strategy seed queries burst max_queue deadline_ticks gray_factor
      radius zipf_s slo_p99 min_delivery certify journal_dir chaos_out jobs
      metrics trace =
    with_obs metrics trace @@ fun () ->
    if queries <= 0 then begin
      Printf.eprintf "chaos: --queries must be positive (got %d)\n" queries;
      2
    end
    else if burst <= 0 then begin
      Printf.eprintf "chaos: --burst must be positive (got %d)\n" burst;
      2
    end
    else if max_queue <= 0 then begin
      Printf.eprintf "chaos: --max-queue must be positive (got %d)\n" max_queue;
      2
    end
    else if not (Float.is_finite gray_factor && gray_factor >= 1.0) then begin
      Printf.eprintf "chaos: --gray-factor must be finite and >= 1 (got %g)\n"
        gray_factor;
      2
    end
    else if radius < 1 then begin
      Printf.eprintf "chaos: --radius must be at least 1 (got %d)\n" radius;
      2
    end
    else if not (Float.is_finite zipf_s && zipf_s >= 0.0) then begin
      Printf.eprintf "chaos: --zipf-s must be finite and >= 0 (got %g)\n" zipf_s;
      2
    end
    else if slo_p99 <= 0.0 then begin
      Printf.eprintf "chaos: --slo-p99-ms must be positive (got %g)\n" slo_p99;
      2
    end
    else if not (min_delivery >= 0.0 && min_delivery <= 1.0) then begin
      Printf.eprintf "chaos: --min-delivery must be in [0, 1] (got %g)\n"
        min_delivery;
      2
    end
    else begin
      match build_construction g strategy seed with
      | exception Invalid_argument msg ->
          Printf.eprintf "chaos: cannot build: %s\n" msg;
          3
      | c ->
          let cfg =
            {
              Serve.Scenario.queries;
              slo_p99_ms = slo_p99;
              seed;
              jobs;
              certify;
              journal_dir =
                Option.value journal_dir ~default:(Filename.get_temp_dir_name ());
            }
          in
          let x =
            {
              Serve.Scenario.burst;
              max_queue;
              deadline_ticks;
              gray_factor;
              radius;
              zipf_s;
              min_delivery;
            }
          in
          let outcome = Serve.Scenario.chaos c cfg x in
          let r = outcome.run in
          let ok b = if b then "ok" else "DIVERGED" in
          (match r.infra with
          | Some msg -> Printf.printf "INFRA: %s\n" msg
          | None ->
              List.iter
                (fun { Serve.Scenario.name; counts = k; _ } ->
                  Printf.printf
                    "%-12s %4d requests  %4d delivered  %3d degraded  %3d \
                     unreachable  %3d shed\n"
                    name k.requests k.delivered k.degraded k.unreachable k.shed)
                r.phases;
              Printf.printf
                "total: %d requests, %d delivered (%.1f%%), %d shed, %d \
                 virtual tick(s)\n"
                r.total.requests r.total.delivered
                (100.0 *. Serve.Scenario.delivery_rate r)
                r.total.shed r.virtual_ticks;
              Option.iter (fun (b, k) -> Printf.printf "certified: (%d,%d)\n" b k) r.certified;
              Printf.printf "journal digest: %s, convergence: %s\n"
                (ok r.journal_digest_ok) (ok r.digest_converged);
              Printf.printf "latency: p50=%s p99=%s (gate %.3fms) -> %s\n"
                (ms_cell r.p50_ms) (ms_cell r.p99_ms) slo_p99
                (if outcome.slo_breached then "BREACH" else "ok");
              List.iter (fun v -> Printf.printf "violation: %s\n" v) r.violations);
          Printf.printf "%s\n" (Serve.Exit_code.describe outcome.exit);
          let written =
            match chaos_out with
            | None -> true
            | Some path ->
                Output.write_file path
                  (Serve.Sjson.to_string (Serve.Scenario.chaos_json cfg x outcome) ^ "\n")
          in
          Serve.Exit_code.(
            to_int (worst outcome.exit (if written then Clean else Infra)))
    end
  in
  Cmd.v
    (Cmd.info "chaos" ~exits:soak_exits
       ~doc:
         "gray-failure and heavy-traffic chaos scenario against the live \
          serve stack: Zipf baseline, latency-only gray wave, correlated \
          regional outage with a journal crash/rebuild, flash-crowd \
          admission shedding, convergence — exits non-zero on any broken \
          gate and emits a deterministic ftr-chaos/1 artifact")
    Term.(
      const run $ graph_arg $ strategy_arg $ seed_arg $ queries_arg $ burst_arg
      $ max_queue_arg $ deadline_ticks_arg $ gray_factor_arg $ radius_arg
      $ zipf_arg $ slo_p99_arg $ min_delivery_arg $ certify_arg
      $ journal_dir_arg $ chaos_out_arg $ jobs_arg $ metrics_arg $ trace_arg)

(* ---------------- compact ---------------- *)

let compact_exits =
  [
    Cmd.Exit.info 0 ~doc:"built, spot-validated and certified within budget";
    Cmd.Exit.info 1
      ~doc:
        "a breach: a sampled pair pushed past the bound, a spot-validation \
         failure, or the live heap exceeded $(b,--budget-mb)";
    Cmd.Exit.info 2 ~doc:"invalid family spec or flag values (usage error)";
    write_exit;
  ]

let compact_cmd =
  let family_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FAMILY"
          ~doc:
            "Compact family spec: hypercube:D, hypercube:D:bi, debruijn:D or \
             ccc:D (label-computed route tables; no O(n^2) materialisation).")
  in
  let bound_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "bound"; "d" ] ~docv:"D"
          ~doc:
            "Surviving-route-graph diameter bound to certify (default: the \
             family's claim for $(b,--f)).")
  in
  let sets_arg =
    Arg.(
      value & opt int 32
      & info [ "sets" ] ~docv:"N" ~doc:"Random fault sets to sample.")
  in
  let pairs_arg =
    Arg.(
      value & opt int 64
      & info [ "pairs" ] ~docv:"N" ~doc:"Sampled vertex pairs probed per fault set.")
  in
  let attack_steps_arg =
    Arg.(
      value & opt int 40
      & info [ "attack-steps" ] ~docv:"N"
          ~doc:
            "Hill-climbing swap attempts per restart of the sampled adversarial \
             search (0 disables the search).")
  in
  let probe_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "probe-budget" ] ~docv:"N"
          ~doc:
            "Route lookups per distance probe (default 2n+1, which makes \
             probes exact for bounds up to 2).")
  in
  let budget_mb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-mb" ] ~docv:"MB"
          ~doc:
            "Fail (exit 1) if the live heap — measured by the GC after a full \
             major collection — exceeds $(docv) at any stage boundary.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Write the routing (one-line ftr-routing 2 compact header).")
  in
  let run spec faults bound sets pairs attack_steps probe_budget budget_mb save
      seed jobs metrics trace =
    with_obs metrics trace @@ fun () ->
    if sets < 0 || pairs <= 0 || attack_steps < 0 then begin
      Printf.eprintf
        "compact: --sets/--attack-steps must be non-negative, --pairs positive\n";
      2
    end
    else
      match Compact_family.of_spec spec with
      | Error e ->
          Printf.eprintf "compact: %s\n" e;
          2
      | Ok _ as first -> (
          (* Rebuild inside the try so the build itself is under the
             memory guard; the first parse only validated the spec. *)
          ignore first;
          try
            let t0 = Unix.gettimeofday () in
            let c =
              match Compact_family.of_spec spec with
              | Ok c -> c
              | Error e -> failwith e
            in
            let build_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
            Budget.check ?limit_mb:budget_mb ~stage:"build" ();
            let routing = c.Construction.routing in
            let g = Routing.graph routing in
            let n = Graph.n g in
            let f =
              match faults with
              | Some f -> f
              | None -> (Construction.strongest_claim c).Construction.max_faults
            in
            let bound =
              match bound with
              | Some b -> b
              | None -> (
                  match Construction.bound_for c ~f with
                  | Some b -> b
                  | None ->
                      (Construction.strongest_claim c).Construction.diameter_bound)
            in
            let table_bytes =
              match Routing.compact routing with
              | Some cc -> Compact.bytes cc
              | None -> 0
            in
            Printf.printf "construction        %s\n" c.Construction.name;
            Printf.printf "vertices / edges    %d / %d\n" n (Graph.m g);
            Printf.printf "backend             %s\n" (Routing.backend_name routing);
            Printf.printf "build time          %.1f ms\n" build_ms;
            Printf.printf "table bytes         %d (%.4f bytes/route)\n" table_bytes
              (float_of_int table_bytes
              /. float_of_int (max 1 (Routing.route_count routing)));
            (* Spot validation: full Routing.validate walks all n(n-1)
               routes; sample instead, seeded and deterministic. *)
            let rng = Random.State.make [| seed; 0xC0 |] in
            let spot = min 2000 (n * (n - 1)) in
            let bad = ref None in
            for _ = 1 to spot do
              if !bad = None && n >= 2 then begin
                let src = Random.State.int rng n in
                let d = Random.State.int rng (n - 1) in
                let dst = if d >= src then d + 1 else d in
                match Routing.find routing src dst with
                | None -> bad := Some (src, dst, "no route")
                | Some p ->
                    if
                      Path.source p <> src || Path.target p <> dst
                      || not (Path.is_valid_in g p)
                    then bad := Some (src, dst, "invalid route")
              end
            done;
            (match !bad with
            | Some (src, dst, why) ->
                failwith (Printf.sprintf "route (%d, %d): %s" src dst why)
            | None -> Printf.printf "spot validation     ok (%d routes)\n" spot);
            let rng = Random.State.make [| seed; 0xC1 |] in
            let v =
              Tolerance.sampled ?jobs ?probe_budget ~pools:c.Construction.pools
                routing ~f ~bound ~rng ~sets ~pairs
            in
            Printf.printf "sampled certify     f=%d bound=%d worst=%s sets=%d pairs=%d -> %s\n"
              f bound (dist_cell v.Tolerance.sv_worst) v.Tolerance.sv_sets_checked
              v.Tolerance.sv_pairs_checked
              (if v.Tolerance.sv_holds then "ok" else "VIOLATION");
            if not v.Tolerance.sv_holds then begin
              Printf.printf "  witness fault set: {%s}\n"
                (String.concat ","
                   (List.map string_of_int v.Tolerance.sv_witness_faults));
              match v.Tolerance.sv_witness_pair with
              | Some (s, d) -> Printf.printf "  witness pair:      (%d, %d)\n" s d
              | None -> ()
            end;
            let attack_flagged =
              if attack_steps = 0 then 0
              else begin
                let rng = Random.State.make [| seed; 0xC2 |] in
                let o =
                  Attack.search_sampled ~steps:attack_steps ?jobs ?probe_budget
                    ~rng ~pools:c.Construction.pools routing ~f ~bound ~pairs
                in
                Printf.printf
                  "sampled attack      worst=%s flagged=%d probes=%d -> %s\n"
                  (dist_cell o.Attack.s_worst) o.Attack.s_flagged o.Attack.s_probes
                  (if o.Attack.s_flagged = 0 then "ok" else "VIOLATION");
                if o.Attack.s_flagged > 0 then
                  Printf.printf "  witness fault set: {%s}\n"
                    (String.concat "," (List.map string_of_int o.Attack.s_witness));
                o.Attack.s_flagged
              end
            in
            let saved =
              match save with
              | None -> true
              | Some path ->
                  let ok = Output.write_file path (Routing_io.to_string routing) in
                  if ok then Printf.printf "saved               %s\n" path;
                  ok
            in
            Budget.check ?limit_mb:budget_mb ~stage:"certify" ();
            Printf.printf "live heap           %.1f MB%s\n" (Budget.live_mb ())
              (match budget_mb with
              | Some mb -> Printf.sprintf " (budget %d MB)" mb
              | None -> "");
            (* Keep the construction reachable across the measurement:
               without this the GC is entitled to collect the graph and
               table first, and the guard would measure an empty heap. *)
            ignore (Sys.opaque_identity c);
            if not saved then write_failed
            else if v.Tolerance.sv_holds && attack_flagged = 0 then 0
            else 1
          with
          | Budget.Exceeded _ as e ->
              Printf.eprintf "compact: %s\n" (Printexc.to_string e);
              1
          | Failure msg | Invalid_argument msg ->
              Printf.eprintf "compact: %s\n" msg;
              1)
  in
  Cmd.v
    (Cmd.info "compact" ~exits:compact_exits
       ~doc:
         "build a compact (label-computed) routing for a structured family at \
          10^5-10^6 nodes, spot-validate it, and certify its empirical (d, f) \
          claim with sampled + adversarial probing under a memory budget")
    Term.(
      const run $ family_arg $ faults_arg $ bound_arg $ sets_arg $ pairs_arg
      $ attack_steps_arg $ probe_budget_arg $ budget_mb_arg $ save_arg $ seed_arg
      $ jobs_arg $ metrics_arg $ trace_arg)

(* ---------------- dot ---------------- *)

let dot_cmd =
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output file.") in
  let run g out =
    let dot = Dot.of_graph g in
    match out with
    | Some path -> if Output.write_file path dot then 0 else write_failed
    | None ->
        print_string dot;
        0
  in
  Cmd.v
    (Cmd.info "dot" ~exits:(write_exit :: Cmd.Exit.defaults) ~doc:"Graphviz export")
    Term.(const run $ graph_arg $ out)

(* ---------------- lint-artifacts ---------------- *)

module Certify = Ftr_analysis.Certify

let lint_artifacts_cmd =
  let paths_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:"Witness-corpus JSON files or directories of them (e.g. corpus/).")
  in
  let routing_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "routing" ] ~docv:"FILE"
          ~doc:
            "Also certify an ftr-routing table. With $(b,--graph) every route \
             is validated against the graph; without it only the header line \
             is certified (version, vertex count, kind tag, and — for the \
             version-2 compact format — the spec parse and its \
             n-consistency).")
  in
  let routing_graph_arg =
    let graph_conv = Arg.conv' Ftr_analysis.Graph_spec.conv in
    Arg.(
      value
      & opt (some graph_conv) None
      & info [ "graph" ] ~docv:"GRAPH"
          ~doc:"The graph the $(b,--routing) table routes over.")
  in
  (* The corpus carries CLI provenance (graph spec, strategy name,
     seed), so rebuilding uses the same strategy table as `ftr route`. *)
  let build ~graph ~strategy ~seed =
    match List.assoc_opt strategy strategies with
    | None -> Error (Printf.sprintf "unknown strategy %S" strategy)
    | Some s -> (
        match build_construction graph s seed with
        | exception Invalid_argument msg -> Error msg
        | c -> Ok c)
  in
  let run paths routing_file routing_graph =
    match (routing_file, routing_graph) with
    | _ when paths = [] && routing_file = None ->
        Printf.eprintf
          "nothing to certify: give corpus PATHs and/or --routing FILE \
           [--graph GRAPH]\n";
        2
    | _ ->
        let problems = ref 0 in
        let report ps =
          problems := !problems + List.length ps;
          List.iter (fun p -> Format.printf "%a@." Certify.pp_problem p) ps
        in
        if paths <> [] then begin
          let o = Certify.certify_corpus_paths ~build paths in
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
  in
  Cmd.v
    (Cmd.info "lint-artifacts"
       ~doc:
         "statically certify routing artifacts: witness-corpus JSON \
          (well-formed entries, faults on real nodes and edges, rebuildable \
          constructions with valid tables and fault-free properties) and \
          ftr-routing tables (simple paths over existing edges)")
    Term.(const run $ paths_arg $ routing_file_arg $ routing_graph_arg)

let () =
  let doc = "fault-tolerant routings in general networks (Peleg & Simons 1986)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ftr" ~doc)
          [
            info_cmd; route_cmd; tolerate_cmd; props_cmd; check_cmd; simulate_cmd;
            attack_cmd; soak_cmd; serve_cmd; query_cmd; chaos_cmd; compact_cmd;
            dot_cmd; lint_artifacts_cmd;
          ]))
