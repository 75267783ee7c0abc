(* Experiment harness entry point: regenerates every claim/figure of
   the paper (see DESIGN.md section 4). *)

open Cmdliner
module A = Ftr_analysis

(* Every file goes through Output.write_file: a failed write prints
   [cannot write PATH: ...], the other files are still written, and the
   run exits 3. *)
let run ids quick seed out_dir markdown csv_dir jobs metrics trace =
  Cli.enable_obs metrics trace;
  let all_written = ref true in
  let write path contents =
    if Ftr_obs.Output.write_file path contents then Printf.printf "wrote %s\n" path
    else all_written := false
  in
  let ctx = A.Experiments.default_context ~seed ~quick ?out_dir ?jobs () in
  let ids = if ids = [] then A.Experiments.ids else ids in
  let unknown = List.filter (fun id -> not (List.mem id A.Experiments.ids)) ids in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment id(s): %s\navailable: %s\n"
      (String.concat ", " unknown)
      (String.concat ", " A.Experiments.ids);
    exit 2
  end;
  let results =
    match
      List.map
        (fun id ->
          Printf.printf "running %s: %s\n%!" id (A.Experiments.describe id);
          (id, A.Experiments.run ctx id))
        ids
    with
    | results -> Some results
    | exception A.Experiments.Write_failed _ -> None
  in
  Option.iter
    (fun results ->
      print_newline ();
      print_string (A.Report.console results);
      Option.iter
        (fun dir ->
          A.Experiments.ensure_dir dir;
          List.iter
            (fun (id, table) ->
              write (Filename.concat dir (id ^ ".csv")) (A.Table.to_csv table))
            results)
        csv_dir;
      Option.iter
        (fun path ->
          let header =
            Printf.sprintf
              "# Experiment results\n\nGenerated by `dune exec bin/experiments.exe --%s \
               -- seed %d`.\n"
              (if quick then " --quick" else "")
              seed
          in
          write path (A.Report.markdown ~header results))
        markdown)
    results;
  Option.iter (fun path -> write path (Ftr_obs.Obs.to_json ())) metrics;
  match results with
  | None -> 3
  | Some results ->
      let code =
        match A.Report.violations results with
        | [] ->
            print_endline "\nroll-up: every checked claim held.";
            0
        | bad ->
            Printf.printf "\nroll-up: VIOLATIONS in %s\n"
              (String.concat ", " (List.map fst bad));
            1
      in
      if !all_written then code else 3

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Small testbeds and sampling budgets.")

let out_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-dir" ] ~docv:"DIR" ~doc:"Directory for figure DOT files.")

let markdown_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "markdown" ] ~docv:"FILE" ~doc:"Write a markdown report.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Write one CSV per experiment.")

let cmd =
  let doc = "regenerate the paper's experiments (Peleg-Simons fault-tolerant routings)" in
  Cmd.v
    (Cmd.info "experiments" ~doc
       ~exits:
         (Cmd.Exit.info 1 ~doc:"a checked claim was violated"
         :: Cli.write_exit
         :: Cli.exits))
    Term.(
      const run $ ids_arg $ quick_arg $ Cli.seed $ out_dir_arg $ markdown_arg $ csv_arg
      $ Cli.jobs $ Cli.metrics $ Cli.trace)

let () = Cli.main cmd
