(* The static artifact certifier (DESIGN.md section 10): clean
   constructions, corpora and routing files certify; corrupted ones
   are rejected with a located diagnostic. *)

open Ftr_graph
open Ftr_core
module Certify = Ftr_analysis.Certify
module Graph_spec = Ftr_analysis.Graph_spec

let graph spec =
  match Graph_spec.parse spec with
  | Ok g -> g
  | Error e -> Alcotest.failf "bad spec %s: %s" spec e

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let entry ?(f = 1) ?(faults = [ 11 ]) ?(edges = []) () =
  {
    Attack.Corpus.graph = "cycle:12";
    strategy = "bipolar-uni";
    seed = 1;
    n = 12;
    f;
    faults;
    edges;
    diameter = Metrics.Finite 3;
    bound = Some 4;
    found_by = "test";
  }

let with_corpus_file entries k =
  let path = Filename.temp_file "certify" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Result.get_ok (Attack.Corpus.save_file path entries);
      k path)

let test_construction_certifies () =
  let c = Kernel.make (graph "torus:5x5") ~t:3 in
  Alcotest.(check int)
    "kernel on torus:5x5 is clean" 0
    (List.length (Certify.certify_construction ~artifact:"kernel" c))

let test_broken_separator_flagged () =
  (* Edge routes alone cannot give every outside node t+1 disjoint
     routes into the separator; the certifier must say which node. *)
  let g = graph "cycle:12" in
  let routing = Routing.create g Routing.Bidirectional in
  Routing.add_edge_routes routing;
  let c =
    {
      Construction.name = "broken";
      routing;
      concentrator = [ 0; 6 ];
      structure = Construction.Separator [ 0; 6 ];
      pools = [];
      claims = [ Construction.claim ~bound:6 ~faults:1 "test fixture" ];
    }
  in
  let problems = Certify.certify_construction ~artifact:"broken" c in
  Alcotest.(check bool) "problems found" true (problems <> []);
  Alcotest.(check bool)
    "a node misses its separator quota" true
    (List.exists
       (fun (p : Certify.problem) ->
         contains_substring p.Certify.message "separator members")
       problems)

let test_corpus_certifies () =
  with_corpus_file [ entry () ] @@ fun path ->
  let o = Certify.certify_corpus_paths [ path ] in
  Alcotest.(check int) "files" 1 o.Certify.files;
  Alcotest.(check int) "entries" 1 o.Certify.entries;
  Alcotest.(check int) "constructions" 1 o.Certify.constructions;
  Alcotest.(check int) "no problems" 0 (List.length o.Certify.problems)

let test_corrupted_entry_rejected () =
  (* (0,5) is not an edge of cycle:12; the diagnostic must carry the
     file and the entry index. *)
  with_corpus_file [ entry ~f:2 ~edges:[ (0, 5) ] () ] @@ fun path ->
  let o = Certify.certify_corpus_paths [ path ] in
  match o.Certify.problems with
  | [ p ] ->
      Alcotest.(check string) "artifact is the file" path p.Certify.artifact;
      Alcotest.(check (option string)) "entry located" (Some "entry 1")
        p.Certify.where;
      Alcotest.(check bool)
        "message names the non-edge" true
        (contains_substring p.Certify.message "not an edge")
  | ps -> Alcotest.failf "expected 1 problem, got %d" (List.length ps)

let test_entry_shape_checks () =
  with_corpus_file
    [ entry ~f:1 ~faults:[ 3; 3 ] (); entry ~faults:[ 12 ] () ]
  @@ fun path ->
  let o = Certify.certify_corpus_paths [ path ] in
  let messages =
    List.map (fun (p : Certify.problem) -> p.Certify.message) o.Certify.problems
  in
  Alcotest.(check bool)
    "duplicate faults flagged" true
    (List.exists (fun m -> contains_substring m "sorted and distinct") messages);
  Alcotest.(check bool)
    "out-of-range fault flagged" true
    (List.exists (fun m -> contains_substring m "out of range") messages)

let test_unknown_strategy_rejected () =
  with_corpus_file [ { (entry ()) with Attack.Corpus.strategy = "warp" } ]
  @@ fun path ->
  let o = Certify.certify_corpus_paths [ path ] in
  Alcotest.(check bool)
    "unknown strategy reported" true
    (List.exists
       (fun (p : Certify.problem) ->
         contains_substring p.Certify.message "unknown strategy")
       o.Certify.problems)

let with_routing_file text k =
  let path = Filename.temp_file "certify" ".routing" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
      k path)

let test_routing_file_certifies () =
  with_routing_file "ftr-routing 1 4 uni\n0 1 0,1\n0 2 0,1,2\n" @@ fun path ->
  let routes, problems = Certify.certify_routing_file ~graph:(graph "cycle:4") path in
  Alcotest.(check int) "routes" 2 routes;
  Alcotest.(check int) "no problems" 0 (List.length problems)

let test_routing_file_non_edge_rejected () =
  (* 0-2 is not an edge of cycle:4: rejected with its line number. *)
  with_routing_file "ftr-routing 1 4 uni\n0 1 0,1\n0 2 0,2\n" @@ fun path ->
  let _, problems = Certify.certify_routing_file ~graph:(graph "cycle:4") path in
  match problems with
  | [ p ] ->
      Alcotest.(check bool)
        "line number reported" true
        (contains_substring p.Certify.message "line 3")
  | ps -> Alcotest.failf "expected 1 problem, got %d" (List.length ps)

(* ---- header-only certification (no graph) ---- *)

let header_problems text =
  with_routing_file text @@ fun path ->
  match Certify.certify_routing_header path with
  | Ok _ -> []
  | Error ps -> ps

let test_header_v2_certifies () =
  with_routing_file "ftr-routing 2 8 uni compact hypercube:3\n" @@ fun path ->
  match Certify.certify_routing_header path with
  | Ok desc ->
      Alcotest.(check bool)
        "description mentions v2" true
        (contains_substring desc "v2 compact")
  | Error ps -> Alcotest.failf "expected ok, got %d problem(s)" (List.length ps)

let test_header_v1_certifies () =
  with_routing_file "ftr-routing 1 4 bi\n0 1 0,1\n" @@ fun path ->
  match Certify.certify_routing_header path with
  | Ok desc ->
      Alcotest.(check bool) "description mentions v1" true
        (contains_substring desc "v1 rows")
  | Error ps -> Alcotest.failf "expected ok, got %d problem(s)" (List.length ps)

let check_single_line1_problem name text fragment =
  match header_problems text with
  | [ p ] ->
      Alcotest.(check (option string)) (name ^ " carries line 1") (Some "line 1")
        p.Certify.where;
      Alcotest.(check bool)
        (name ^ " message") true
        (contains_substring p.Certify.message fragment)
  | ps -> Alcotest.failf "%s: expected 1 problem, got %d" name (List.length ps)

let test_header_unknown_kind () =
  check_single_line1_problem "unknown kind"
    "ftr-routing 2 8 tri compact hypercube:3\n" "unknown kind"

let test_header_bad_spec () =
  check_single_line1_problem "bad spec" "ftr-routing 2 8 uni compact warp:3\n"
    "bad compact spec";
  check_single_line1_problem "hex dimension"
    "ftr-routing 2 8 uni compact hypercube:0x3\n" "bad compact spec";
  check_single_line1_problem "hex vertex count"
    "ftr-routing 2 0x8 uni compact hypercube:3\n" "not an integer"

let test_header_n_mismatch () =
  (* hypercube:3 embeds n=8; the header claims 16. *)
  check_single_line1_problem "n mismatch"
    "ftr-routing 2 16 uni compact hypercube:3\n" "n=8"

let test_header_trailing_rows () =
  check_single_line1_problem "trailing rows"
    "ftr-routing 2 8 uni compact hypercube:3\n0 1 0,1\n" "single header line"

let test_header_unknown_version () =
  check_single_line1_problem "unknown version" "ftr-routing 3 8 uni\n"
    "unknown ftr-routing version"

let () =
  Alcotest.run "certify"
    [
      ( "constructions",
        [
          Alcotest.test_case "kernel certifies" `Quick test_construction_certifies;
          Alcotest.test_case "broken separator flagged" `Quick
            test_broken_separator_flagged;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "clean corpus certifies" `Quick test_corpus_certifies;
          Alcotest.test_case "non-edge link fault rejected" `Quick
            test_corrupted_entry_rejected;
          Alcotest.test_case "fault shape checks" `Quick test_entry_shape_checks;
          Alcotest.test_case "unknown strategy rejected" `Quick
            test_unknown_strategy_rejected;
        ] );
      ( "routing files",
        [
          Alcotest.test_case "valid table certifies" `Quick test_routing_file_certifies;
          Alcotest.test_case "non-edge step rejected" `Quick
            test_routing_file_non_edge_rejected;
        ] );
      ( "headers",
        [
          Alcotest.test_case "v2 compact header certifies" `Quick
            test_header_v2_certifies;
          Alcotest.test_case "v1 header certifies" `Quick test_header_v1_certifies;
          Alcotest.test_case "unknown kind rejected at line 1" `Quick
            test_header_unknown_kind;
          Alcotest.test_case "bad spec rejected" `Quick test_header_bad_spec;
          Alcotest.test_case "spec/header n mismatch rejected" `Quick
            test_header_n_mismatch;
          Alcotest.test_case "trailing rows rejected" `Quick
            test_header_trailing_rows;
          Alcotest.test_case "unknown version rejected" `Quick
            test_header_unknown_version;
        ] );
    ]
