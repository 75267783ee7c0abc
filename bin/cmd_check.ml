(* ftr check: load a saved route table and fault-check it against its
   graph. *)

open Cmdliner
open Ftr_core

let file =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"FILE" ~doc:"Route table file (ftr-routing format).")

let bound =
  Cli.flag_opt ~range:Cli.non_negative Cli.int ~names:[ "bound" ] ~docv:"D"
    ~doc:
      "Certify \"(D, F)-tolerant\" instead of computing the exact worst \
       diameter: each BFS stops as soon as $(docv) is provably exceeded. A \
       violation reports the first violating fault set in the canonical \
       enumeration order."

let sweep routing ~f ~bound ~jobs ~engine ~universe =
  match bound with
  | Some b ->
      let cert = Tolerance.certify ?jobs ~universe routing ~f ~bound:b in
      Printf.printf "certificate over %d fault sets (<=%d faults): "
        cert.Tolerance.cert_sets_checked f;
      if cert.Tolerance.holds then begin
        Printf.printf "(%d, %d)-tolerant\n" b f;
        0
      end
      else begin
        (match cert.Tolerance.counterexample with
        | Some w -> Printf.printf "VIOLATED by %s\n" (Surviving.fault_set_to_string w)
        | None -> Printf.printf "VIOLATED\n");
        1
      end
  | None ->
      let v = Tolerance.exhaustive ?jobs ?engine ~universe routing ~f in
      Printf.printf "worst surviving diameter over %d fault sets (<=%d faults): %s\n"
        v.Tolerance.sets_checked f (Cli.dist_cell v.Tolerance.worst);
      0

let run g file faults bound jobs engine universe metrics trace =
  Cli.with_obs metrics trace @@ fun () ->
  let loaded =
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error e -> Error ("cannot read " ^ e)
    | text -> (
        match Routing_io.load g text with
        | Error e -> Error (Printf.sprintf "cannot load %s: %s" file e)
        | Ok routing -> (
            match Routing.validate routing with
            | Error e -> Error (Printf.sprintf "invalid route table %s: %s" file e)
            | Ok () -> Ok routing))
  in
  match loaded with
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      1
  | Ok routing -> (
      Printf.printf "loaded %d routes (max length %d, stretch %.2f)\n"
        (Routing.route_count routing)
        (Routing.max_route_length routing)
        (Routing.stretch routing);
      (* [Surviving.compile] rejects a table whose routes step off the
         graph's edge set; report it as a diagnostic, not a
         backtrace. *)
      try sweep routing ~f:(Option.value faults ~default:1) ~bound ~jobs ~engine ~universe
      with Invalid_argument msg ->
        Printf.eprintf "cannot check %s: %s\n" file msg;
        1)

let cmd =
  Cmd.v
    (Cmd.info "check" ~exits:Cli.exits
       ~doc:"load a saved route table and fault-check it against its graph")
    Term.(
      const run $ Cli.graph $ file $ Cli.faults $ bound $ Cli.jobs $ Cli.engine
      $ Cli.universe $ Cli.metrics $ Cli.trace)
