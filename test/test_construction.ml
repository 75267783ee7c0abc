open Ftr_graph
open Ftr_core

let dummy_routing () =
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Bidirectional in
  Routing.add_edge_routes r;
  r

let make_with claims =
  {
    Construction.name = "dummy";
    routing = dummy_routing ();
    concentrator = [];
    structure = Construction.Unstructured;
    pools = [];
    claims;
  }

let test_claim_constructor () =
  let c = Construction.claim ~bound:4 ~faults:2 "Theorem X" in
  Alcotest.(check int) "bound" 4 c.Construction.diameter_bound;
  Alcotest.(check int) "faults" 2 c.Construction.max_faults;
  Alcotest.(check string) "source" "Theorem X" c.Construction.source

let test_strongest_picks_smallest_bound () =
  let c =
    make_with
      [
        Construction.claim ~bound:6 ~faults:3 "A";
        Construction.claim ~bound:4 ~faults:1 "B";
        Construction.claim ~bound:5 ~faults:3 "C";
      ]
  in
  Alcotest.(check string) "B wins" "B" (Construction.strongest_claim c).Construction.source

let test_strongest_ties_by_faults () =
  let c =
    make_with
      [
        Construction.claim ~bound:4 ~faults:1 "low";
        Construction.claim ~bound:4 ~faults:3 "high";
      ]
  in
  Alcotest.(check string) "more faults wins ties" "high"
    (Construction.strongest_claim c).Construction.source

let test_strongest_empty_raises () =
  let c = make_with [] in
  Alcotest.check_raises "empty" (Invalid_argument "Construction.strongest_claim: no claims")
    (fun () -> ignore (Construction.strongest_claim c))

let test_fault_budget () =
  Alcotest.(check int) "no claims" 0 (Construction.fault_budget (make_with []));
  Alcotest.(check int) "largest f" 3
    (Construction.fault_budget
       (make_with
          [
            Construction.claim ~bound:6 ~faults:3 "A";
            Construction.claim ~bound:4 ~faults:1 "B";
          ]))

let test_pp_mentions_claims () =
  let c = make_with [ Construction.claim ~bound:4 ~faults:2 "Theorem X" ] in
  let s = Format.asprintf "%a" Construction.pp c in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "name" true (contains "dummy");
  Alcotest.(check bool) "claim" true (contains "(4,2)-tolerant");
  Alcotest.(check bool) "source" true (contains "Theorem X")

let test_real_constructions_have_structures () =
  let kernel = Kernel.make (Families.cycle 10) ~t:1 in
  (match kernel.Construction.structure with
  | Construction.Separator m ->
      Alcotest.(check (list int)) "separator matches" kernel.Construction.concentrator m
  | _ -> Alcotest.fail "kernel should carry Separator");
  let circ = Circular.make (Families.cycle 12) ~t:1 in
  (match circ.Construction.structure with
  | Construction.Neighborhood { members; window } ->
      Alcotest.(check (list int)) "members" circ.Construction.concentrator members;
      Alcotest.(check int) "window = ceil(K/2)-1" 1 window
  | _ -> Alcotest.fail "circular should carry Neighborhood");
  let bip = Bipolar.make_unidirectional (Families.cycle 12) ~t:1 in
  match bip.Construction.structure with
  | Construction.Two_poles { r1; r2 } ->
      Alcotest.(check bool) "roots verify" true (Two_trees.verify (Families.cycle 12) r1 r2)
  | _ -> Alcotest.fail "bipolar should carry Two_poles"

let () =
  Alcotest.run "construction"
    [
      ( "construction",
        [
          Alcotest.test_case "claim constructor" `Quick test_claim_constructor;
          Alcotest.test_case "strongest: smallest bound" `Quick test_strongest_picks_smallest_bound;
          Alcotest.test_case "strongest: tie-break" `Quick test_strongest_ties_by_faults;
          Alcotest.test_case "strongest: empty" `Quick test_strongest_empty_raises;
          Alcotest.test_case "fault budget" `Quick test_fault_budget;
          Alcotest.test_case "pp" `Quick test_pp_mentions_claims;
          Alcotest.test_case "structures" `Quick test_real_constructions_have_structures;
        ] );
    ]
