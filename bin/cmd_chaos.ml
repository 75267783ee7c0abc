(* ftr chaos: the gray-failure and heavy-traffic scenario against the
   serve stack (Scenario.chaos). *)

open Cmdliner
module Serve = Ftr_serve

let run g strategy seed queries burst max_queue deadline_ticks gray_factor radius zipf_s
    slo_p99 min_delivery certify journal_dir chaos_out jobs metrics trace =
  Cli.with_obs metrics trace @@ fun () ->
  match Cli.build ~code:3 g strategy seed with
  | Error code -> code
  | Ok c ->
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
                "%-12s %4d requests  %4d delivered  %3d degraded  %3d unreachable  \
                 %3d shed\n"
                name k.requests k.delivered k.degraded k.unreachable k.shed)
            r.phases;
          Printf.printf
            "total: %d requests, %d delivered (%.1f%%), %d shed, %d virtual tick(s)\n"
            r.total.requests r.total.delivered
            (100.0 *. Serve.Scenario.delivery_rate r)
            r.total.shed r.virtual_ticks;
          Option.iter (fun (b, k) -> Printf.printf "certified: (%d,%d)\n" b k) r.certified;
          Printf.printf "journal digest: %s, convergence: %s\n" (ok r.journal_digest_ok)
            (ok r.digest_converged);
          Printf.printf "latency: p50=%s p99=%s (gate %.3fms) -> %s\n"
            (Cli.ms_cell r.p50_ms) (Cli.ms_cell r.p99_ms) slo_p99
            (if outcome.slo_breached then "BREACH" else "ok");
          List.iter (fun v -> Printf.printf "violation: %s\n" v) r.violations);
      Printf.printf "%s\n" (Serve.Exit_code.describe outcome.exit);
      let written =
        Cli.write_opt chaos_out (fun () ->
            Serve.Sjson.to_string (Serve.Scenario.chaos_json cfg x outcome) ^ "\n")
      in
      Serve.Exit_code.(to_int (worst outcome.exit (if written then Clean else Infra)))

let cmd =
  let queries =
    Cli.flag ~range:Cli.positive Cli.int 60 ~names:[ "queries" ] ~docv:"Q"
      ~doc:"Route queries per query phase (baseline, gray, regional)."
  in
  let burst =
    Cli.flag ~range:Cli.positive Cli.int 96 ~names:[ "burst" ] ~docv:"N"
      ~doc:
        "Flash-crowd size: $(docv) hub-bound queries submitted faster than the \
         pump drains. Exceed $(b,--max-queue) to force admission shedding."
  in
  let max_queue =
    Cli.flag ~range:Cli.positive Cli.int 32 ~names:[ "max-queue" ] ~docv:"N"
      ~doc:"Admission queue budget."
  in
  let deadline_ticks =
    Cli.flag ~range:Cli.non_negative_float Arg.float 64.0 ~names:[ "deadline-ticks" ]
      ~docv:"T"
      ~doc:
        "Admission deadline in virtual clock ticks (one tick per submission); \
         requests queued longer are shed. 0 disables."
  in
  let gray_factor =
    Cli.flag ~range:(Cli.finite_at_least 1.0) Arg.float 8.0 ~names:[ "gray-factor" ]
      ~docv:"F"
      ~doc:
        "Latency factor for the gray wave: every link of the chosen BFS ball \
         slows to $(docv) times healthy latency without dropping. Must be \
         finite and at least 1."
  in
  let radius =
    Cli.flag ~range:Cli.positive Cli.int 1 ~names:[ "radius" ] ~docv:"R"
      ~doc:"BFS-ball radius for the gray and regional waves."
  in
  let zipf_s =
    Cli.flag ~range:Cli.non_negative_float Arg.float 1.1 ~names:[ "zipf-s" ] ~docv:"S"
      ~doc:
        "Zipf exponent for pair popularity in the query phases; 0 makes the \
         workload uniform."
  in
  let slo_p99 =
    Cli.flag ~range:Cli.positive_float Arg.float 50.0 ~names:[ "slo-p99-ms" ] ~docv:"MS"
      ~doc:
        "Wall-clock p99 service-latency gate. The verdict (a boolean) is in the \
         artifact; the raw percentiles are stdout-only."
  in
  let min_delivery =
    Cli.flag
      ~range:("in [0, 1]", fun x -> x >= 0.0 && x <= 1.0)
      Arg.float 0.5 ~names:[ "min-delivery" ] ~docv:"RATE"
      ~doc:"Delivery-rate floor for the correlated regional-outage phase, in [0, 1]."
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Exhaustively re-certify the construction's (bound, 1) claim before \
             the scenario runs ($(b,--jobs) parallelises this; the artifact is \
             byte-identical either way).")
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the scenario's fault journal (default: the system \
             temp directory).")
  in
  let chaos_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos-out" ] ~docv:"FILE"
          ~doc:
            "Write the ftr-chaos/1 artifact: config echo, per-phase counts, \
             digests and the exit verdict. Deterministic — byte-identical across \
             $(b,--jobs) values.")
  in
  Cmd.v
    (Cmd.info "chaos" ~exits:Cli.soak_exits
       ~doc:
         "gray-failure and heavy-traffic chaos scenario against the live serve \
          stack: Zipf baseline, latency-only gray wave, correlated regional \
          outage with a journal crash/rebuild, flash-crowd admission shedding, \
          convergence — exits non-zero on any broken gate and emits a \
          deterministic ftr-chaos/1 artifact")
    Term.(
      const run $ Cli.graph $ Cli.strategy $ Cli.seed $ queries $ burst $ max_queue
      $ deadline_ticks $ gray_factor $ radius $ zipf_s $ slo_p99 $ min_delivery
      $ certify $ journal_dir $ chaos_out $ Cli.jobs $ Cli.metrics $ Cli.trace)
