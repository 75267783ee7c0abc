(* ftr compact: label-computed route tables at 10^5-10^6 nodes,
   spot-validated and certified by sampled and adversarial probing
   under a memory budget. *)

open Cmdliner
open Ftr_graph
open Ftr_core

let compact_exits =
  [
    Cmd.Exit.info 0 ~doc:"built, spot-validated and certified within budget";
    Cmd.Exit.info 1
      ~doc:
        "a breach: a sampled pair pushed past the bound, a spot-validation \
         failure, or the live heap exceeded $(b,--budget-mb)";
    Cmd.Exit.info 2 ~doc:"invalid family spec or flag values (usage error)";
    Cli.write_exit;
  ]

(* Everything after the build, under the memory guard. *)
let certify (c : Construction.t) ~build_ms ~faults ~bound ~sets ~pairs ~attack_steps
    ~probe_budget ~budget_mb ~save ~seed ~jobs =
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
    f bound (Cli.dist_cell v.Tolerance.sv_worst) v.Tolerance.sv_sets_checked
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
        (Cli.dist_cell o.Attack.s_worst) o.Attack.s_flagged o.Attack.s_probes
        (if o.Attack.s_flagged = 0 then "ok" else "VIOLATION");
      if o.Attack.s_flagged > 0 then
        Printf.printf "  witness fault set: {%s}\n"
          (String.concat "," (List.map string_of_int o.Attack.s_witness));
      o.Attack.s_flagged
    end
  in
  let saved =
    Cli.write_opt ~announce:true save (fun () -> Routing_io.to_string routing)
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
  if not saved then Cli.write_failed
  else if v.Tolerance.sv_holds && attack_flagged = 0 then 0
  else 1

let run spec faults bound sets pairs attack_steps probe_budget budget_mb save seed jobs
    metrics trace =
  Cli.with_obs metrics trace @@ fun () ->
  let t0 = Unix.gettimeofday () in
  match Compact_family.of_spec spec with
  | Error e ->
      Printf.eprintf "compact: %s\n" e;
      2
  | Ok c -> (
      let build_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      try
        certify c ~build_ms ~faults ~bound ~sets ~pairs ~attack_steps ~probe_budget
          ~budget_mb ~save ~seed ~jobs
      with
      | Budget.Exceeded _ as e ->
          Printf.eprintf "compact: %s\n" (Printexc.to_string e);
          1
      | Failure msg | Invalid_argument msg ->
          Printf.eprintf "compact: %s\n" msg;
          1)

let cmd =
  let family =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FAMILY"
          ~doc:
            "Compact family spec: hypercube:D, hypercube:D:bi, debruijn:D or \
             ccc:D (label-computed route tables; no O(n^2) materialisation).")
  in
  let bound =
    Cli.flag_opt ~range:Cli.non_negative Cli.int ~names:[ "bound"; "d" ] ~docv:"D"
      ~doc:
        "Surviving-route-graph diameter bound to certify (default: the \
         family's claim for $(b,--f))."
  in
  let sets =
    Cli.flag ~range:Cli.non_negative Cli.int 32 ~names:[ "sets" ] ~docv:"N"
      ~doc:"Random fault sets to sample."
  in
  let pairs =
    Cli.flag ~range:Cli.positive Cli.int 64 ~names:[ "pairs" ] ~docv:"N"
      ~doc:"Sampled vertex pairs probed per fault set."
  in
  let attack_steps =
    Cli.flag ~range:Cli.non_negative Cli.int 40 ~names:[ "attack-steps" ] ~docv:"N"
      ~doc:
        "Hill-climbing swap attempts per restart of the sampled adversarial \
         search (0 disables the search)."
  in
  let probe_budget =
    Cli.flag_opt ~range:Cli.positive Cli.int ~names:[ "probe-budget" ] ~docv:"N"
      ~doc:
        "Route lookups per distance probe (default 2n+1, which makes probes \
         exact for bounds up to 2)."
  in
  let budget_mb =
    Cli.flag_opt ~range:Cli.non_negative Cli.int ~names:[ "budget-mb" ] ~docv:"MB"
      ~doc:
        "Fail (exit 1) if the live heap — measured by the GC after a full major \
         collection — exceeds $(docv) at any stage boundary."
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Write the routing (one-line ftr-routing 2 compact header).")
  in
  Cmd.v
    (Cmd.info "compact" ~exits:compact_exits
       ~doc:
         "build a compact (label-computed) routing for a structured family at \
          10^5-10^6 nodes, spot-validate it, and certify its empirical (d, f) \
          claim with sampled + adversarial probing under a memory budget")
    Term.(
      const run $ family $ Cli.faults $ bound $ sets $ pairs $ attack_steps
      $ probe_budget $ budget_mb $ save $ Cli.seed $ Cli.jobs $ Cli.metrics $ Cli.trace)
