(* Typedtree acquisition for ftr-lint.

   The v2 lint runs on *typedtrees*, not parsetrees, so every rule
   sees resolved paths ([Stdlib.List.hd], not whatever `List.hd`
   happens to spell under local shadowing) and real types. Two ways to
   get a tree:

   - [.cmt] files: dune compiles everything with [-bin-annot], so the
     build tree already holds a typedtree for every compiled unit.
     They are indexed by module basename and verified against
     [cmt_sourcefile] and [cmt_source_digest], so a stale tree is
     detected, never silently linted.
   - in-process typechecking: files outside the build graph (the lint
     test fixtures) are parsed and typed against a stdlib-only
     environment. Such files must be self-contained — fixtures stub
     the repo modules (Par, Obs, Sjson) they exercise.

   Environments stored in .cmt files are summarised; rules that need
   [Env.t] lookups (L2's float test, L7's mutable-record test) go
   through [resolve], which is [Envaux.env_of_only_summary] for cmt
   trees and the identity for freshly typed ones. *)

type loaded = {
  structure : Typedtree.structure;
  resolve : Env.t -> Env.t;
  from_cmt : bool;
}

type error =
  | Parse of string
  | Typing of string

(* ------------------------------------------------------------------ *)
(* Compiler initialisation                                            *)
(* ------------------------------------------------------------------ *)

let initialised_for : string option option ref = ref None

let cmi_dirs root =
  let dirs = ref [] in
  let rec visit d =
    match Sys.readdir d with
    | entries ->
        Array.iter
          (fun e ->
            let p = Filename.concat d e in
            if e <> ".git" && (try Sys.is_directory p with Sys_error _ -> false)
            then visit p
            else if Filename.check_suffix e ".cmi" && not (List.mem d !dirs)
            then dirs := d :: !dirs)
          entries
    | exception Sys_error _ -> ()
  in
  visit root;
  (* Deterministic load path: lookups must not depend on readdir order. *)
  List.sort String.compare !dirs

let ensure_init cmt_root =
  if !initialised_for <> Some cmt_root then begin
    initialised_for := Some cmt_root;
    (* The lint reports its own diagnostics; compiler warnings about
       fixture code (unused values, unknown attributes) are noise. *)
    ignore (Warnings.parse_options false "-a");
    Warnings.parse_alert_option "-all";
    Clflags.include_dirs :=
      (match cmt_root with None -> [] | Some root -> cmi_dirs root);
    Compmisc.init_path ();
    Envaux.reset_cache ()
  end

(* ------------------------------------------------------------------ *)
(* cmt index                                                          *)
(* ------------------------------------------------------------------ *)

(* Map a module's lowercased basename ("fault_model") to the .cmt
   candidates that could hold its tree ("ftr_core__Fault_model.cmt").
   Candidates are only read on lookup, and the winner is confirmed by
   [cmt_sourcefile], so same-named modules in different libraries
   (lib/analysis/experiments.ml vs bin/experiments.ml) cannot be
   confused. *)
let cmt_index : (string, string list) Hashtbl.t = Hashtbl.create 64
let cmt_index_root : string option ref = ref None
let cmt_cache : (string, Cmt_format.cmt_infos option) Hashtbl.t = Hashtbl.create 64

let module_key cmt_basename =
  let stem = Filename.remove_extension cmt_basename in
  let n = String.length stem in
  (* Strip the dune prefix mangling ("ftr_core__Fault_model" ->
     "Fault_model"): everything up to the LAST "__". A single '_' is
     an ordinary module-name character and must survive. *)
  let cut = ref 0 in
  for i = 0 to n - 2 do
    if stem.[i] = '_' && stem.[i + 1] = '_' then cut := i + 2
  done;
  let stem = if !cut < n then String.sub stem !cut (n - !cut) else stem in
  String.lowercase_ascii stem

let build_index root =
  if !cmt_index_root <> Some root then begin
    cmt_index_root := Some root;
    Hashtbl.reset cmt_index;
    Hashtbl.reset cmt_cache;
    let rec visit d =
      match Sys.readdir d with
      | entries ->
          Array.iter
            (fun e ->
              let p = Filename.concat d e in
              if e <> ".git" && (try Sys.is_directory p with Sys_error _ -> false)
              then visit p
              else if Filename.check_suffix e ".cmt" then begin
                let key = module_key e in
                let prev = Option.value ~default:[] (Hashtbl.find_opt cmt_index key) in
                Hashtbl.replace cmt_index key (p :: prev)
              end)
            entries
      | exception Sys_error _ -> ()
    in
    visit root;
    (* Candidate order must be deterministic too. *)
    Hashtbl.iter
      (fun _ _ -> ())
      cmt_index;
    Hashtbl.filter_map_inplace
      (fun _ paths -> Some (List.sort String.compare paths))
      cmt_index
  end

let read_cmt path =
  match Hashtbl.find_opt cmt_cache path with
  | Some r -> r
  | None ->
      let r = try Some (Cmt_format.read_cmt path) with _ -> None in
      Hashtbl.add cmt_cache path r;
      r

let normalize_path p =
  if String.length p > 2 && String.sub p 0 2 = "./" then
    String.sub p 2 (String.length p - 2)
  else p

(* [cmt_sourcefile] is the path the compiler was given, relative to
   the build-context root; the lint is run from the same root (or from
   inside it, under the dune @lint alias), so an exact match after
   "./"-stripping is the common case and a component-suffix match
   covers the rest. *)
let source_matches ~file ~cmt_source =
  let file = normalize_path file and cmt_source = normalize_path cmt_source in
  file = cmt_source
  || Filename.basename file = Filename.basename cmt_source
     && (String.ends_with ~suffix:("/" ^ file) cmt_source
        || String.ends_with ~suffix:("/" ^ cmt_source) file)

type cmt_lookup =
  | Found of Cmt_format.cmt_infos
  | Stale of string (* cmt path whose source digest no longer matches *)
  | Absent

let find_cmt ~root ~file ~source =
  build_index root;
  let key = String.lowercase_ascii (Filename.remove_extension (Filename.basename file)) in
  let candidates = Option.value ~default:[] (Hashtbl.find_opt cmt_index key) in
  let stale = ref None in
  let found =
    List.find_map
      (fun path ->
        match read_cmt path with
        | None -> None
        | Some infos -> (
            match infos.Cmt_format.cmt_sourcefile with
            | Some src when source_matches ~file ~cmt_source:src -> (
                match infos.Cmt_format.cmt_annots with
                | Cmt_format.Implementation _ ->
                    if infos.Cmt_format.cmt_source_digest = Some (Digest.string source)
                    then Some infos
                    else begin
                      stale := Some path;
                      None
                    end
                | _ -> None)
            | _ -> None))
      candidates
  in
  match (found, !stale) with
  | Some infos, _ -> Found infos
  | None, Some path -> Stale path
  | None, None -> Absent

(* ------------------------------------------------------------------ *)
(* In-process typechecking                                            *)
(* ------------------------------------------------------------------ *)

let error_message exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) ->
      String.trim (Format.asprintf "%a" Location.print_report report)
  | _ -> Printexc.to_string exn

let typecheck ~file ~source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | exception exn -> Error (Parse (error_message exn))
  | ast -> (
      let env = Compmisc.initial_env () in
      match Typemod.type_structure env ast with
      | structure, _, _, _, _ -> Ok { structure; resolve = Fun.id; from_cmt = false }
      | exception exn -> Error (Typing (error_message exn)))

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let default_cmt_root () =
  if Sys.file_exists "_build/default" && Sys.is_directory "_build/default" then
    Some "_build/default"
  else if Sys.file_exists "_build" then Some "_build"
  else None

let resolve_summary env = try Envaux.env_of_only_summary env with _ -> env

let load ~cmt_root ~file ~source =
  ensure_init cmt_root;
  let from_cmt =
    match cmt_root with
    | None -> Absent
    | Some root -> find_cmt ~root ~file ~source
  in
  match from_cmt with
  | Found infos -> (
      match infos.Cmt_format.cmt_annots with
      | Cmt_format.Implementation structure ->
          Ok { structure; resolve = resolve_summary; from_cmt = true }
      | _ -> typecheck ~file ~source)
  | Stale path ->
      (* A stale tree must never be linted: line numbers and even the
         semantics could belong to an older revision. Fall back to
         typechecking (fails for files with repo-module dependencies,
         which is the right failure: rebuild first). *)
      (match typecheck ~file ~source with
      | Ok _ as ok -> ok
      | Error (Typing msg) ->
          Error
            (Typing
               (Printf.sprintf
                  "stale typedtree %s (run `dune build @check` to refresh it); \
                   standalone typecheck also failed: %s"
                  path msg))
      | Error _ as e -> e)
  | Absent -> (
      (* Plain `dune build` writes no .cmt for an executable's own
         modules (bin/), so a file the build does compile can still
         have no tree here; its standalone typecheck then fails on the
         first library it opens. Name the build that writes the tree. *)
      match (cmt_root, typecheck ~file ~source) with
      | Some root, Error (Typing msg) when Sys.file_exists root && Sys.is_directory root ->
          Error
            (Typing
               (Printf.sprintf
                  "no typedtree for %s under %s (run `dune build @check` to write \
                   it); standalone typecheck also failed: %s"
                  file root msg))
      | _, result -> result)
