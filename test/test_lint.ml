(* ftr-lint's own test coverage (DESIGN.md section 15): one trigger and
   one near-miss fixture per rule, the suppression contract, the
   rule-disable switch, the L3-vs-L7 interprocedural regression, the
   fingerprint line-drift stability, the result cache, and a golden
   test of the ftr-lint/2 JSON. *)

module Diagnostic = Ftr_lint.Diagnostic
module Rules = Ftr_lint.Rules
module Driver = Ftr_lint.Driver

(* Fixtures live under lint_fixtures/ and are typechecked in-process
   (they are not part of the build graph, so no .cmt exists); the L8
   fixtures only owe the exit-code contract when the fixture tree is
   declared a bin path. *)
let fixture_config =
  { Rules.default_config with Rules.bin_paths = [ "lint_fixtures" ] }

let fixture name = Filename.concat "lint_fixtures" name
let lint ?(config = fixture_config) name = Driver.lint_file ~config (fixture name)
let rules_of diags = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.rule) diags

let check_rules msg expected (diags, _suppressed) =
  Alcotest.(check (list string)) msg expected (rules_of diags)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Every rule id must be disableable: the trigger fixture goes quiet
   when its rule is removed from [config.rules]. *)
let without rule =
  {
    fixture_config with
    Rules.rules = List.filter (fun r -> r <> rule) Rules.all_rules;
  }

let triggers =
  [
    ("L1", "l1_trigger.ml", 6);
    ("L2", "l2_trigger.ml", 5);
    ("L3", "l3_trigger.ml", 2);
    ("L3", "l3_chunk.ml", 1);
    ("L4", "l4_trigger.ml", 1);
    ("L4", "l4_bigarray.ml", 1);
    ("L5", "l5_trigger.ml", 2);
    ("L6", "l6_trigger.ml", 2);
    ("L7", "l7_trigger.ml", 1);
    ("L8", "l8_trigger.ml", 2);
  ]

let nearmisses =
  [
    "l1_nearmiss.ml"; "l2_nearmiss.ml"; "l3_nearmiss.ml"; "l4_nearmiss.ml";
    "l5_nearmiss.ml"; "l6_nearmiss.ml"; "l7_nearmiss.ml"; "l8_nearmiss.ml";
  ]

let test_triggers () =
  List.iter
    (fun (rule, file, count) ->
      check_rules file (List.init count (fun _ -> rule)) (lint file))
    triggers

let test_nearmisses () =
  List.iter (fun file -> check_rules file [] (lint file)) nearmisses

let test_rule_disable () =
  List.iter
    (fun (rule, file, _) ->
      check_rules
        (Printf.sprintf "%s off silences %s" rule file)
        []
        (lint ~config:(without rule) file))
    triggers

(* The acceptance regression: the helper-routed mutable capture in
   l7_trigger.ml is invisible to the syntactic L3 (no mutation appears
   inside the task's own body) and is caught by the interprocedural
   L7. *)
let test_l3_misses_l7_catches () =
  let only rule = { fixture_config with Rules.rules = [ rule ] } in
  check_rules "old L3 provably misses the helper route" []
    (lint ~config:(only "L3") "l7_trigger.ml");
  let diags, _ = lint ~config:(only "L7") "l7_trigger.ml" in
  match diags with
  | [ d ] ->
      Alcotest.(check string) "rule" "L7" d.Diagnostic.rule;
      Alcotest.(check bool)
        "message names the helper" true
        (contains_substring d.Diagnostic.message "`bump`")
  | ds -> Alcotest.failf "expected 1 L7 diagnostic, got %d" (List.length ds)

(* L6's escape hatch: the same digest computation is flagged unordered
   and accepted once key-sorted (l6_nearmiss.ml), with the vouched
   commutative fold recorded as a justified suppression. *)
let test_l6_sort_discharges () =
  let diags, _ = lint "l6_trigger.ml" in
  Alcotest.(check bool)
    "digest sink flagged" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         contains_substring d.Diagnostic.message "Digest.string")
       diags);
  let diags, suppressed = lint "l6_nearmiss.ml" in
  Alcotest.(check (list string)) "sorted version is clean" [] (rules_of diags);
  match suppressed with
  | [ s ] ->
      Alcotest.(check string) "vouched fold recorded" "L6"
        s.Diagnostic.diag.Diagnostic.rule;
      Alcotest.(check bool)
        "justification kept" true
        (contains_substring s.Diagnostic.justification "commutative")
  | ss -> Alcotest.failf "expected 1 suppression, got %d" (List.length ss)

let test_l4_containment_first () =
  (* The bounds comment in l4_trigger.ml must not rescue an unsafe op
     outside the containment files. *)
  let diags, _ = lint "l4_trigger.ml" in
  match diags with
  | [ d ] ->
      Alcotest.(check bool)
        "message names containment" true
        (contains_substring d.Diagnostic.message "outside the containment")
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

let contained =
  {
    fixture_config with
    Rules.unsafe_ok = [ "l4_allowed.ml"; "l4_uncommented.ml" ];
  }

let test_l4_proof_comment () =
  check_rules "bounds comment accepted" [] (lint ~config:contained "l4_allowed.ml");
  let diags, _ = lint ~config:contained "l4_uncommented.ml" in
  match diags with
  | [ d ] ->
      Alcotest.(check string) "rule" "L4" d.Diagnostic.rule;
      Alcotest.(check bool)
        "message demands a proof comment" true
        (contains_substring d.Diagnostic.message "bounds")
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

(* Bigarray unsafe accessors answer to [unsafe_bigarray_ok], not
   [unsafe_ok]: clearing a file for plain unsafe ops must not clear
   it for off-heap access, while the tight list (plus the fixture's
   bounds comment) silences the diagnostic. *)
let test_l4_bigarray_list () =
  (let diags, _ = lint "l4_bigarray.ml" in
   match diags with
   | [ d ] ->
       Alcotest.(check bool)
         "classified as Bigarray unsafe" true
         (contains_substring d.Diagnostic.message "Bigarray unsafe")
   | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds));
  let cleared_plain =
    { fixture_config with Rules.unsafe_ok = [ "l4_bigarray.ml" ] }
  in
  check_rules "unsafe_ok does not cover Bigarray" [ "L4" ]
    (lint ~config:cleared_plain "l4_bigarray.ml");
  let cleared_bigarray =
    { fixture_config with Rules.unsafe_bigarray_ok = [ "l4_bigarray.ml" ] }
  in
  check_rules "bigarray list + bounds comment accepted" []
    (lint ~config:cleared_bigarray "l4_bigarray.ml")

let test_allow_justified () =
  let diags, suppressed = lint "allow_ok.ml" in
  Alcotest.(check (list string)) "nothing unsuppressed" [] (rules_of diags);
  match suppressed with
  | [ s ] ->
      Alcotest.(check string) "suppressed rule" "L1" s.Diagnostic.diag.Diagnostic.rule;
      Alcotest.(check string)
        "justification recorded" "fixture exercises a justified suppression"
        s.Diagnostic.justification
  | ss -> Alcotest.failf "expected 1 suppression, got %d" (List.length ss)

let test_allow_unjustified () =
  (* The bare allow is its own error (L0) and the L1 still fires. *)
  let diags, suppressed = lint "allow_unjustified.ml" in
  Alcotest.(check (list string)) "L0 plus the undimmed L1" [ "L0"; "L1" ]
    (rules_of diags);
  Alcotest.(check int) "nothing suppressed" 0 (List.length suppressed)

(* ---------------------------------------------------------------- *)
(* Fingerprints and the result cache                                 *)
(* ---------------------------------------------------------------- *)

let with_tmpdir f =
  let dir = Filename.temp_file "ftr_lint_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let read_file path =
  In_channel.with_open_text path In_channel.input_all

(* Inserting lines above a suppressed finding must not move its
   fingerprint: the hash covers the flagged line's text, not its
   number, so baselines survive line drift. *)
let test_fingerprint_stability () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "allow_ok.ml" in
  let original = read_file (fixture "allow_ok.ml") in
  write_file path original;
  let fp_of (_, suppressed) =
    match suppressed with
    | [ (s : Diagnostic.suppressed) ] ->
        (s.diag.Diagnostic.fingerprint, s.diag.Diagnostic.line)
    | ss -> Alcotest.failf "expected 1 suppression, got %d" (List.length ss)
  in
  let fp1, line1 = fp_of (Driver.lint_file path) in
  write_file path ("(* drift *)\n(* more drift *)\n" ^ original);
  let fp2, line2 = fp_of (Driver.lint_file path) in
  Alcotest.(check bool) "finding moved down" true (line2 = line1 + 2);
  Alcotest.(check string) "fingerprint survives line drift" fp1 fp2;
  Alcotest.(check int) "fingerprint is 12 hex chars" 12 (String.length fp1)

(* A file with no typedtree under an existing build root falls back
   to a stdlib-only typecheck; when that fails on a library the build
   would have resolved, the T0 names the build that writes the tree.
   Without a build root the plain typing error stands. *)
let test_missing_tree_names_check_build () =
  with_tmpdir @@ fun dir ->
  let root = Filename.concat dir "_build" in
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> Unix.rmdir root) @@ fun () ->
  let path = Filename.concat dir "cli.ml" in
  write_file path "let term = Cmdliner.Term.const ()\n";
  let t0_message cmt_root =
    match Driver.lint_file ~config:fixture_config ?cmt_root path with
    | [ (d : Diagnostic.t) ], _ when d.Diagnostic.rule = "T0" -> d.Diagnostic.message
    | diags, _ -> Alcotest.failf "expected one T0, got [%s]" (String.concat "; " (rules_of diags))
  in
  let with_root = t0_message (Some root) in
  Alcotest.(check bool) "names dune build @check" true
    (contains_substring with_root "run `dune build @check` to write it");
  Alcotest.(check bool) "keeps the typing error" true
    (contains_substring with_root "Unbound module Cmdliner");
  let without_root = t0_message (Some (Filename.concat dir "missing")) in
  Alcotest.(check bool) "no hint without a build root" false
    (contains_substring without_root "dune build @check");
  Alcotest.(check bool) "plain typing error" true
    (contains_substring without_root "Unbound module Cmdliner")

(* Cache correctness: a warm run serves unchanged files from the cache
   and emits byte-identical JSON; an edited file is re-linted; a
   config change invalidates everything. *)
let test_cache_correctness () =
  with_tmpdir @@ fun dir ->
  let file_a = Filename.concat dir "a.ml" in
  let file_b = Filename.concat dir "b.ml" in
  let cache = Filename.concat dir "lint.cache" in
  write_file file_a "let safe xs = match xs with [] -> 0 | x :: _ -> x\n";
  write_file file_b "let first xs = List.hd xs\n";
  let run () = Driver.lint_paths ~cache_file:cache [ dir ] in
  let cold = run () in
  Alcotest.(check int) "cold run lints both" 0 cold.Diagnostic.files_cached;
  Alcotest.(check (list string)) "cold finds the L1" [ "L1" ]
    (rules_of cold.Diagnostic.diagnostics);
  let warm = run () in
  Alcotest.(check int) "warm run is all cache hits" 2
    warm.Diagnostic.files_cached;
  Alcotest.(check string) "cold and warm reports are byte-identical"
    (Diagnostic.to_json cold) (Diagnostic.to_json warm);
  write_file file_b "let first xs = List.hd xs\nlet second xs = List.tl xs\n";
  let edited = run () in
  Alcotest.(check int) "untouched file still served from cache" 1
    edited.Diagnostic.files_cached;
  Alcotest.(check (list string)) "edited file re-linted" [ "L1"; "L1" ]
    (rules_of edited.Diagnostic.diagnostics);
  let other_rules =
    { Rules.default_config with Rules.rules = [ "L2" ] }
  in
  let reconfigured =
    Driver.lint_paths ~config:other_rules ~cache_file:cache [ dir ]
  in
  Alcotest.(check int) "config change invalidates the cache" 0
    reconfigured.Diagnostic.files_cached

let test_golden_json () =
  let report = Driver.lint_paths ~config:fixture_config [ "lint_fixtures" ] in
  let golden = read_file (fixture "golden.json") in
  Alcotest.(check string) "ftr-lint/2 report" golden (Diagnostic.to_json report)

(* An unwritable --json path is an infrastructure failure: a one-line
   message on stderr and exit 3, not an uncaught exception. *)
let lint_exe =
  if Sys.file_exists "../bin/lint.exe" then "../bin/lint.exe" else "_build/default/bin/lint.exe"

let test_unwritable_json_exits_3 () =
  let dir = Filename.temp_dir "ftr-lint" "" in
  let target = Filename.concat (Filename.concat dir "missing") "lint.json" in
  let err = Filename.concat dir "err.txt" in
  let code =
    Sys.command
      (Printf.sprintf "%s --json %s %s > /dev/null 2> %s" lint_exe (Filename.quote target)
         (Filename.quote (fixture "l1_nearmiss.ml"))
         (Filename.quote err))
  in
  let text = read_file err in
  Sys.remove err;
  Sys.rmdir dir;
  Alcotest.(check int) ("exit 3: " ^ text) 3 code;
  Alcotest.(check bool) "names the file" true
    (contains_substring text ("lint: cannot write " ^ target ^ ": "))

(* A full disk: /dev/full opens, but the report's one write fails with
   ENOSPC, which must surface as exit 3 rather than be dropped by the
   channel's close. *)
let test_full_disk_json_exits_3 () =
  if Sys.file_exists "/dev/full" then begin
    let err = Filename.temp_file "ftr-lint" ".err" in
    let code =
      Sys.command
        (Printf.sprintf "%s --json /dev/full %s > /dev/null 2> %s" lint_exe
           (Filename.quote (fixture "l1_nearmiss.ml"))
           (Filename.quote err))
    in
    let text = read_file err in
    Sys.remove err;
    Alcotest.(check int) ("exit 3: " ^ text) 3 code;
    Alcotest.(check bool) "names the file" true
      (contains_substring text "lint: cannot write /dev/full: ")
  end

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "triggers fire" `Quick test_triggers;
          Alcotest.test_case "near-misses stay quiet" `Quick test_nearmisses;
          Alcotest.test_case "disabling a rule silences it" `Quick test_rule_disable;
          Alcotest.test_case "L3 misses the helper route, L7 catches it" `Quick
            test_l3_misses_l7_catches;
          Alcotest.test_case "L6 discharged by an explicit sort" `Quick
            test_l6_sort_discharges;
          Alcotest.test_case "L4 containment precedes comments" `Quick
            test_l4_containment_first;
          Alcotest.test_case "L4 proof-comment contract" `Quick test_l4_proof_comment;
          Alcotest.test_case "L4 Bigarray containment list" `Quick
            test_l4_bigarray_list;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "justified allow suppresses" `Quick test_allow_justified;
          Alcotest.test_case "unjustified allow is an error" `Quick
            test_allow_unjustified;
        ] );
      ( "report",
        [
          Alcotest.test_case "fingerprints survive line drift" `Quick
            test_fingerprint_stability;
          Alcotest.test_case "result cache replays and invalidates" `Quick
            test_cache_correctness;
          Alcotest.test_case "golden ftr-lint/2 JSON" `Quick test_golden_json;
          Alcotest.test_case "unwritable --json exits 3" `Quick
            test_unwritable_json_exits_3;
          Alcotest.test_case "--json to a full disk exits 3" `Quick
            test_full_disk_json_exits_3;
          Alcotest.test_case "missing tree names dune build @check" `Quick
            test_missing_tree_names_check_build;
        ] );
    ]
