(* ftr soak: replay attack witnesses as link-flap waves against the
   churn-hardened protocol. It is the only driver of Protocol's
   deadline, re-plan, backoff and dead-letter model. *)

open Cmdliner
open Ftr_graph
open Ftr_core
module Sim = Ftr_sim

(* Witness waves replay as link flaps via Faults.witness_links: a
   witness node becomes one incident link, so a within-budget witness
   stays within budget under the paper's endpoint reduction, and a
   within-budget wave must produce zero dead letters. *)
let wave_of_entry g (e : Attack.Corpus.entry) =
  Sim.Faults.witness_links g ~nodes:e.faults ~links:e.edges

(* One simulation for [c] with each witness of [group] as one wave of
   link flaps: its messages, and whether a within-budget wave dead-
   lettered. *)
let soak_group (c : Construction.t) group ~seed ~messages ~dwell ~gap =
  let g = Routing.graph c.routing in
  let n = Graph.n g in
  let waves_all = List.map (wave_of_entry g) group in
  let waves = List.filter (fun w -> w <> []) waves_all in
  let start = 40.0 in
  let horizon = start +. (float_of_int (List.length waves) *. (dwell +. gap)) in
  let net = Sim.Network.create c.routing in
  let sim = Sim.Sim.create () in
  Sim.Faults.schedule_on sim net (Sim.Faults.link_waves ~start ~dwell ~gap waves);
  let rng = Random.State.make [| seed; 5 |] in
  let workload = Sim.Workload.uniform ~rng ~n ~count:messages ~horizon in
  let msgs = Sim.Protocol.deliver_all sim net Sim.Protocol.hardened_config workload in
  let within_budget =
    List.for_all2
      (fun (e : Attack.Corpus.entry) w ->
        List.length w <= e.f && Construction.bound_for c ~f:(List.length w) <> None)
      group waves_all
  in
  (msgs, List.length waves, within_budget)

let run corpus_dir seed messages dwell gap metrics trace =
  Cli.with_obs metrics trace @@ fun () ->
  match Cli.load_corpus corpus_dir with
  | Error code -> code
  | Ok entries ->
      (* One simulation per construction, in corpus order. *)
      let groups = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (fun (e : Attack.Corpus.entry) ->
          let key = (e.graph, e.strategy, e.seed) in
          if not (Hashtbl.mem groups key) then order := key :: !order;
          Hashtbl.replace groups key
            (e :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
        entries;
      let construction_for = Cli.construction_cache () in
      let breaches = ref 0 and infra = ref 0 in
      let all_msgs = ref [] in
      List.iter
        (fun ((spec, strat, cseed) as key) ->
          let group = List.rev (Option.value (Hashtbl.find_opt groups key) ~default:[]) in
          let error msg =
            incr infra;
            Printf.printf "%s %s seed=%d: ERROR: %s\n" spec strat cseed msg
          in
          match construction_for key with
          | Error msg -> error msg
          | Ok (c, _) -> (
              let n = Graph.n (Routing.graph c.Construction.routing) in
              match List.find_opt (fun (e : Attack.Corpus.entry) -> e.n <> n) group with
              | Some e ->
                  error
                    (Printf.sprintf "stale corpus entry: n=%d but the construction has %d"
                       e.n n)
              | None ->
                  let msgs, nwaves, within_budget =
                    soak_group c group ~seed ~messages ~dwell ~gap
                  in
                  all_msgs := msgs :: !all_msgs;
                  let d = Sim.Stats.delivery_report msgs in
                  if within_budget && d.Sim.Stats.dead_letters > 0 then begin
                    incr breaches;
                    Printf.printf
                      "%s %s seed=%d: %d dead letter(s) within the claim budget\n" spec
                      strat cseed d.Sim.Stats.dead_letters
                  end;
                  Format.printf "%-32s %d wave(s)  %a@."
                    (Printf.sprintf "%s/%s seed=%d" spec strat cseed)
                    nwaves Sim.Stats.pp_delivery d))
        (List.rev !order);
      let total = Sim.Stats.delivery_report (List.concat !all_msgs) in
      Format.printf "%-32s          %a@." "TOTAL" Sim.Stats.pp_delivery total;
      (match total.Sim.Stats.replans_per_message with
      | Some s -> Format.printf "replans/message: %a@." Sim.Stats.pp_summary s
      | None -> ());
      if !infra > 0 then 3 else if !breaches > 0 then 1 else 0

let cmd =
  let corpus =
    Arg.(
      value & opt string "corpus"
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Witness corpus to replay as link-flap waves.")
  in
  let messages =
    Cli.flag ~range:Cli.positive Cli.int 300 ~names:[ "messages" ] ~docv:"M"
      ~doc:"Messages per construction."
  in
  let dwell =
    Cli.flag ~range:Cli.non_negative_float Arg.float 60.0 ~names:[ "dwell" ] ~docv:"T"
      ~doc:"How long each wave of links stays down."
  in
  let gap =
    Cli.flag ~range:Cli.non_negative_float Arg.float 20.0 ~names:[ "gap" ] ~docv:"T"
      ~doc:"Healthy time between waves."
  in
  Cmd.v
    (Cmd.info "soak" ~exits:Cli.soak_exits
       ~doc:
         "replay attack witnesses as link-flap waves against the churn-hardened \
          protocol and report delivery, latency, re-plans and dead letters")
    Term.(
      const run $ corpus $ Cli.seed $ messages $ dwell $ gap $ Cli.metrics $ Cli.trace)
