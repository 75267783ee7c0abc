(* ftr-lint: the repo's static-analysis gate (DESIGN.md section 15).

   Usage: lint [--json FILE] [--rules L1,...,L8] [--cache FILE]
               [--cmt-root DIR] PATH...

   Lints every .ml file under the given paths on its typedtree with
   the eight ftr rules, prints one editor-clickable line per
   diagnostic, optionally writes the ftr-lint/2 JSON report, and exits
   1 if any unsuppressed diagnostic remains. --cache replays results
   for unchanged files (cold and warm runs emit identical reports);
   --cmt-root overrides where .cmt files are searched (default:
   _build/default). Argument parsing is by hand: the lint must not
   grow dependencies the analyses it polices do not have.

   Exit codes: 0 clean, 1 unsuppressed diagnostics, 2 usage (bad
   arguments, unknown rule, missing path), 3 infrastructure (the
   --json report cannot be written). *)

module Diagnostic = Ftr_lint.Diagnostic
module Rules = Ftr_lint.Rules
module Driver = Ftr_lint.Driver

let usage () =
  prerr_endline
    "usage: lint [--json FILE] [--rules L1,...,L8] [--cache FILE] [--cmt-root \
     DIR] PATH...";
  exit 2

let () =
  let json_out = ref None in
  let cache_file = ref None in
  let cmt_root = ref None in
  let rules = ref Rules.all_rules in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json_out := Some file;
        parse rest
    | "--cache" :: file :: rest ->
        cache_file := Some file;
        parse rest
    | "--cmt-root" :: dir :: rest ->
        cmt_root := Some dir;
        parse rest
    | "--rules" :: spec :: rest ->
        let requested = String.split_on_char ',' spec in
        let unknown =
          List.filter (fun r -> not (List.mem r Rules.all_rules)) requested
        in
        if unknown <> [] then begin
          Printf.eprintf "lint: unknown rule(s) %s (have: %s)\n"
            (String.concat "," unknown)
            (String.concat "," Rules.all_rules);
          exit 2
        end;
        rules := requested;
        parse rest
    | ("--json" | "--rules" | "--cache" | "--cmt-root") :: [] -> usage ()
    | ("--help" | "-h") :: _ -> usage ()
    | path :: rest ->
        paths := path :: !paths;
        parse rest
  in
  (match Array.to_list Sys.argv with [] -> () | _ :: args -> parse args);
  if !paths = [] then usage ();
  let missing = List.filter (fun p -> not (Sys.file_exists p)) !paths in
  if missing <> [] then begin
    Printf.eprintf "lint: no such path: %s\n" (String.concat ", " missing);
    exit 2
  end;
  let config = { Rules.default_config with Rules.rules = !rules } in
  let report =
    Driver.lint_paths ~config ?cache_file:!cache_file ?cmt_root:!cmt_root
      (List.rev !paths)
  in
  List.iter
    (fun d -> Format.printf "%a@." Diagnostic.pp_human d)
    report.Diagnostic.diagnostics;
  (match !json_out with
  | None -> ()
  | Some file -> (
      let json = Diagnostic.to_json report in
      (* Flushed inside the callback: the closing [close_out_noerr]
         would drop a write error such as ENOSPC. *)
      try
        Out_channel.with_open_text file (fun oc ->
            output_string oc json;
            Out_channel.flush oc)
      with Sys_error msg ->
        Printf.eprintf "lint: cannot write %s: %s\n" file msg;
        exit 3));
  let n = List.length report.Diagnostic.diagnostics in
  let s = List.length report.Diagnostic.suppressions in
  Printf.printf
    "ftr-lint: %d file(s), %d cached, %d diagnostic(s), %d suppressed\n"
    report.Diagnostic.files_scanned report.Diagnostic.files_cached n s;
  exit (if n > 0 then 1 else 0)
