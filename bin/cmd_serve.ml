(* ftr serve: the long-lived routing daemon, and with --slo the corpus
   SLO soak through the same stack (Scenario.slo). *)

open Cmdliner
open Ftr_core
module Serve = Ftr_serve

let run_slo ~corpus ~seed ~jobs ~queries ~slo_p99 ~certify ~slo_out ~journal_dir
    ~gray_factor =
  match Cli.load_corpus corpus with
  | Error code -> code
  | Ok entries ->
      let cfg =
        {
          Serve.Scenario.queries;
          slo_p99_ms = slo_p99;
          seed;
          jobs;
          certify;
          journal_dir = Option.value journal_dir ~default:(Filename.get_temp_dir_name ());
        }
      in
      let outcome =
        Serve.Scenario.slo ?gray_factor ~build:Cli.build_provenance ~entries cfg
      in
      List.iter
        (fun { Serve.Scenario.run = r; in_budget_waves } ->
          match r.Serve.Scenario.infra with
          | Some msg -> Printf.printf "%-32s INFRA: %s\n" r.label msg
          | None ->
              Printf.printf
                "%-32s %d wave(s) (%d in-budget)  %d queries  %d degraded  %d \
                 shed  p99=%s%s%s\n"
                r.label (List.length r.phases) in_budget_waves r.total.requests
                r.total.degraded r.total.shed (Cli.ms_cell r.p99_ms)
                (match r.certified with
                | Some (b, k) -> Printf.sprintf "  certified(%d,%d)" b k
                | None -> "")
                (if r.journal_digest_ok then "" else "  JOURNAL-DIVERGED");
              List.iter (fun v -> Printf.printf "    violation: %s\n" v) r.violations)
        outcome.reports;
      Printf.printf "total: %d queries, dropped-in-budget=%d, p99=%s -> %s\n"
        outcome.total_queries outcome.dropped_in_budget (Cli.ms_cell outcome.p99_ms)
        (Serve.Exit_code.describe outcome.exit);
      let written =
        Cli.write_opt slo_out (fun () ->
            Serve.Sjson.to_string (Serve.Scenario.slo_json ?gray_factor cfg outcome)
            ^ "\n")
      in
      Serve.Exit_code.(to_int (worst outcome.exit (if written then Clean else Infra)))

(* Replays [path] into [engine] and opens it for appending. *)
let open_journal engine path =
  match Serve.Journal.load path with
  | Error msg -> Error msg
  | Ok events -> (
      match Serve.Engine.replay engine events with
      | Error msg -> Error ("journal replay: " ^ msg)
      | Ok _ ->
          if events <> [] then
            Printf.printf "journal             replayed %d event(s) -> %s\n"
              (List.length events) (Serve.Engine.digest engine);
          Serve.Journal.create path)

let run_daemon ~spec ~socket ~strategy ~seed ~journal ~max_queue ~deadline_ms ~bound =
  match Ftr_analysis.Graph_spec.parse spec with
  | Error e ->
      Printf.eprintf "bad graph spec: %s\n" e;
      3
  | Ok g -> (
      match Cli.build ~code:3 g strategy seed with
      | Error code -> code
      | Ok c -> (
          let engine = Serve.Engine.create c.Construction.routing in
          let bound =
            match bound with
            | Some _ -> bound
            | None -> Construction.bound_for c ~f:(Construction.fault_budget c)
          in
          let journal =
            match journal with
            | None -> Ok None
            | Some path -> Result.map Option.some (open_journal engine path)
          in
          match journal with
          | Error msg ->
              Printf.eprintf "serve: %s\n" msg;
              3
          | Ok journal -> (
              let srv =
                Serve.Server.create ?journal
                  { Serve.Server.max_queue; deadline = deadline_ms /. 1000.0; bound }
                  engine
              in
              Printf.printf "serving %s/%s seed=%d on %s (bound=%s)\n" spec
                (Builder.request_name strategy) seed socket
                (match bound with Some b -> string_of_int b | None -> "none");
              flush stdout;
              match Serve.Server.run srv ~socket with
              | Ok () -> 0
              | Error msg ->
                  Printf.eprintf "serve: %s\n" msg;
                  3)))

let run spec strategy seed socket journal max_queue deadline_ms bound slo corpus queries
    slo_p99 certify slo_out journal_dir gray_factor jobs metrics trace =
  Cli.with_obs metrics trace @@ fun () ->
  if slo then
    run_slo ~corpus ~seed ~jobs ~queries ~slo_p99 ~certify ~slo_out ~journal_dir
      ~gray_factor
  else
    match (spec, socket) with
    | None, _ ->
        Printf.eprintf "a GRAPH spec is required unless --slo is given\n";
        2
    | _, None ->
        Printf.eprintf "--socket PATH is required unless --slo is given\n";
        2
    | Some spec, Some socket ->
        run_daemon ~spec ~socket ~strategy ~seed ~journal ~max_queue ~deadline_ms ~bound

let cmd =
  let spec =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"GRAPH" ~doc:"Graph spec to serve (required unless $(b,--slo)).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Unix domain socket to listen on (required unless $(b,--slo)). \
             Requests are newline-delimited JSON; see `ftr query` for a client.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead fault journal: every accepted fault delta is fsynced to \
             $(docv) before it is applied, and an existing journal is replayed \
             at startup so a restarted daemon resumes in the exact fault state \
             it died in.")
  in
  let max_queue =
    Cli.flag ~range:Cli.positive Cli.int 64 ~names:[ "max-queue" ] ~docv:"N"
      ~doc:
        "Admission budget: requests arriving while $(docv) are already queued \
         are shed with an explicit response rather than queued without bound."
  in
  let deadline =
    Cli.flag ~range:Cli.non_negative_float Arg.float 0.0 ~names:[ "deadline-ms" ]
      ~docv:"MS"
      ~doc:
        "Per-request wait deadline: a request that waits longer than $(docv) in \
         the admission queue is expired (answered with a shed response), not \
         served late. 0 disables."
  in
  let bound =
    Cli.flag_opt ~range:Cli.non_negative Cli.int ~names:[ "bound" ] ~docv:"D"
      ~doc:
        "Proven diameter bound in force: surviving routes longer than $(docv) \
         are answered but flagged degraded. Default: the tightest claim \
         covering the construction's full fault budget."
  in
  let slo =
    Arg.(
      value & flag
      & info [ "slo" ]
          ~doc:
            "SLO soak mode: instead of listening on a socket, replay the witness \
             corpus as live churn through the same serve stack (admission, \
             journal, degraded mode) and exit non-zero on any dropped in-budget \
             query, over-bound route, journal divergence or p99 latency breach.")
  in
  let corpus =
    Arg.(
      value & opt string "corpus"
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Witness corpus for $(b,--slo).")
  in
  let queries =
    Cli.flag ~range:Cli.positive Cli.int 40 ~names:[ "queries" ] ~docv:"Q"
      ~doc:"Route queries per soak phase (baseline, per-wave, recovery)."
  in
  let slo_p99 =
    Cli.flag ~range:Cli.positive_float Arg.float 25.0 ~names:[ "slo-p99-ms" ] ~docv:"MS"
      ~doc:"p99 service-latency threshold for $(b,--slo)."
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Before soaking each construction, exhaustively re-certify the \
             in-budget (d, f) claim its witnesses run under ($(b,--jobs) \
             parallelises this).")
  in
  let slo_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo-out" ] ~docv:"FILE"
          ~doc:
            "Write the slo.json artifact (per-construction reports, percentiles, \
             verdict).")
  in
  let gray_factor =
    Cli.flag_opt ~range:(Cli.finite_at_least 1.0) Arg.float ~names:[ "gray-factor" ]
      ~docv:"F"
      ~doc:
        "With $(b,--slo): insert a gray-failure wave after each construction's \
         baseline — two links degrade to $(docv) times healthy latency (never \
         dropped), the full in-budget contract must hold unchanged, and \
         restoring must return the fault digest byte-identical. $(docv) must be \
         at least 1."
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the soak's per-construction fault journals (default: \
             the system temp directory).")
  in
  Cmd.v
    (Cmd.info "serve" ~exits:Cli.soak_exits
       ~doc:
         "long-lived routing daemon: compile once, answer surviving-route and \
          diameter queries over a Unix socket while faults arrive as incremental \
          deltas; with $(b,--slo), soak the same stack against the witness \
          corpus and gate on latency and degradation SLOs")
    Term.(
      const run $ spec $ Cli.strategy $ Cli.seed $ socket $ journal $ max_queue
      $ deadline $ bound $ slo $ corpus $ queries $ slo_p99 $ certify $ slo_out
      $ journal_dir $ gray_factor $ Cli.jobs $ Cli.metrics $ Cli.trace)
