(* Diagnostics for the ftr-lint static-analysis pass.

   A diagnostic pins a rule violation to a source span and carries a
   *fingerprint*: a short content hash of (rule, file basename,
   trimmed text of the flagged line, same-line occurrence index).
   Line and column numbers drift every time code is inserted above a
   finding; the fingerprint does not, so suppression baselines and
   cached results survive ordinary edits elsewhere in the file.

   Rendering is deterministic: diagnostics sort by (file, line, col,
   rule) so the human listing and the ftr-lint/2 JSON are stable
   across runs and [--jobs] values, like every other machine-readable
   artifact in the repo. *)

type t = {
  rule : string;  (* "L1".."L8"; "L0" usage, "P0" parse, "T0" typing *)
  file : string;
  line : int;  (* 1-based *)
  col : int;  (* 0-based, matching compiler locations *)
  end_line : int;
  end_col : int;
  fingerprint : string;  (* 12 hex chars, line-drift stable *)
  message : string;
}

type suppressed = { diag : t; justification : string }

type report = {
  files_scanned : int;
  files_cached : int;
      (* served from the lint cache; informational only — never
         serialized, so cold and warm runs emit identical JSON *)
  diagnostics : t list;  (* unsuppressed: these fail the build *)
  suppressions : suppressed list;  (* allowed by [@lint.allow "Lx: why"] *)
}

let compare_diag a b =
  let c = compare (a.file, a.line, a.col) (b.file, b.line, b.col) in
  if c <> 0 then c else compare a.rule b.rule

let sort ds = List.sort compare_diag ds

(* The preimage deliberately excludes the directory (reports must
   survive a file moving between trees with the same basename, as
   fixture copies in tests do) and the line *number* (the whole
   point). [index] disambiguates repeated identical lines. *)
let fingerprint ~rule ~file ~line_text ~index =
  let preimage =
    String.concat "\x00"
      [ rule; Filename.basename file; String.trim line_text; string_of_int index ]
  in
  String.sub (Digest.to_hex (Digest.string preimage)) 0 12

let of_location ~rule ~message ?(fingerprint = "") (loc : Location.t) =
  {
    rule;
    file = loc.loc_start.pos_fname;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    end_line = loc.loc_end.pos_lnum;
    end_col = loc.loc_end.pos_cnum - loc.loc_end.pos_bol;
    fingerprint;
    message;
  }

let pp_human ppf d =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message

(* One diagnostic object on one line, through the repo's one JSON
   codec in its spaced layout; the report around them keeps its
   multi-line layout. *)
module Sjson = Ftr_json.Sjson

let diag_json ?justification d =
  let fields =
    Sjson.
      [
        ("rule", Str d.rule);
        ("file", Str d.file);
        ("line", Int d.line);
        ("col", Int d.col);
        ("end_line", Int d.end_line);
        ("end_col", Int d.end_col);
        ("fingerprint", Str d.fingerprint);
        ("message", Str d.message);
      ]
  in
  let extra =
    match justification with Some j -> [ ("justification", Sjson.Str j) ] | None -> []
  in
  let buf = Buffer.create 256 in
  Sjson.write ~spaced:true buf (Obj (fields @ extra));
  Buffer.contents buf

let to_json report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"format\": \"ftr-lint/2\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"files_scanned\": %d,\n" report.files_scanned);
  let emit_list name render items =
    Buffer.add_string buf (Printf.sprintf "  \"%s\": [" name);
    List.iteri
      (fun i x ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        Buffer.add_string buf ("    " ^ render x))
      items;
    if items <> [] then Buffer.add_string buf "\n  ";
    Buffer.add_string buf "]"
  in
  emit_list "diagnostics" diag_json (sort report.diagnostics);
  Buffer.add_string buf ",\n";
  emit_list "suppressed"
    (fun s -> diag_json ~justification:s.justification s.diag)
    (List.sort (fun a b -> compare_diag a.diag b.diag) report.suppressions);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
