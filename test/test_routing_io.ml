open Ftr_graph
open Ftr_core

let roundtrip_equal a b =
  Routing.route_count a = Routing.route_count b
  &&
  let same = ref true in
  Routing.iter
    (fun src dst p ->
      match Routing.find b src dst with
      | Some q when Path.equal p q -> ()
      | _ -> same := false)
    a;
  !same

let test_roundtrip_bidirectional () =
  let g = Families.torus 4 4 in
  let c = Kernel.make g ~t:3 in
  let text = Routing_io.to_string c.Construction.routing in
  match Routing_io.load g text with
  | Ok loaded ->
      Alcotest.(check bool) "identical" true
        (roundtrip_equal c.Construction.routing loaded)
  | Error e -> Alcotest.fail e

let test_roundtrip_unidirectional () =
  let g = Families.cycle 12 in
  let c = Bipolar.make_unidirectional g ~t:1 in
  let text = Routing_io.to_string c.Construction.routing in
  match Routing_io.load g text with
  | Ok loaded ->
      Alcotest.(check bool) "identical" true
        (roundtrip_equal c.Construction.routing loaded)
  | Error e -> Alcotest.fail e

let test_header () =
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Bidirectional in
  Routing.add r (Path.of_list [ 0; 1 ]);
  let text = Routing_io.to_string r in
  Alcotest.(check string) "header" "ftr-routing 1 6 bi"
    (List.hd (String.split_on_char '\n' text))

let fails g text expected_fragment =
  match Routing_io.load g text with
  | Ok _ -> Alcotest.fail "expected load error"
  | Error e ->
      let contains =
        let nl = String.length expected_fragment and hl = String.length e in
        let rec go i =
          i + nl <= hl && (String.sub e i nl = expected_fragment || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (e ^ " mentions " ^ expected_fragment) true contains

let test_load_errors () =
  let g = Families.cycle 6 in
  fails g "garbage" "not an ftr-routing";
  fails g "ftr-routing 1 7 bi\n" "mismatch";
  fails g "ftr-routing 1 6 bi\n0 2 0,2\n" "not in graph";
  fails g "ftr-routing 1 6 bi\n0 2 0,1,1,2\n" "repeated vertex";
  fails g "ftr-routing 1 6 bi\n0 2 1,2\n" "endpoints disagree";
  fails g "ftr-routing 1 6 bi\n0 x 0,1\n" "malformed";
  fails g "ftr-routing 1 6 bi\n0 2 0,1,2\n0 2 0,5,4,3,2\n" "conflicting";
  (* Integers are strictly decimal: hex, '+' and '_' do not convert. *)
  fails g "ftr-routing 1 0x6 bi\n0 2 0,1,2\n" "malformed header";
  fails g "ftr-routing 1 +6 bi\n" "malformed header";
  fails g "ftr-routing 1 6 bi\n0 0x2 0,1,2\n" "malformed integers";
  fails g "ftr-routing 1 6 bi\n0 2 0,1,0x2\n" "malformed integers";
  fails g "ftr-routing 1 6 bi\n1 +2 1,2\n" "malformed integers";
  fails g "ftr-routing 1 6 bi\n0 2 0,1,0_2\n" "malformed integers"

let test_empty_table () =
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Unidirectional in
  let text = Routing_io.to_string r in
  match Routing_io.load g text with
  | Ok loaded -> Alcotest.(check int) "still empty" 0 (Routing.route_count loaded)
  | Error e -> Alcotest.fail e

(* Version-2 persistence: a compact routing with a one-token spec
   round-trips through a single header line — no O(n^2) rows — and the
   loader re-validates n and the spec against the given graph. *)
let test_v2_roundtrip () =
  let g = Families.hypercube 4 in
  let r = Routing.of_compact g Routing.Unidirectional (Compact.hypercube 4) in
  let text = Routing_io.to_string r in
  Alcotest.(check string) "one header line"
    "ftr-routing 2 16 uni compact hypercube:4"
    (String.trim text);
  match Routing_io.load g text with
  | Ok loaded ->
      Alcotest.(check string) "compact backend survives"
        (Routing.backend_name r) (Routing.backend_name loaded);
      Alcotest.(check bool) "identical" true (roundtrip_equal r loaded)
  | Error e -> Alcotest.fail e

let test_v2_bidirectional_roundtrip () =
  let g = Families.hypercube 3 in
  let r =
    Routing.of_compact g Routing.Bidirectional
      (Compact.hypercube ~bidirectional:true 3)
  in
  match Routing_io.load g (Routing_io.to_string r) with
  | Ok loaded ->
      Alcotest.(check bool) "identical" true (roundtrip_equal r loaded)
  | Error e -> Alcotest.fail e

let test_v2_load_errors () =
  let g = Families.cycle 6 in
  (* header says n=16 but the graph has 6 vertices *)
  fails g "ftr-routing 2 16 uni compact hypercube:4" "mismatch";
  fails g "ftr-routing 2 6 uni compact hypercube:4" "";
  fails g "ftr-routing 2 6 uni compact nonsense:9" "";
  fails (Families.hypercube 4) "ftr-routing 2 16 uni compact hypercube:4\n0 1 0,1\n"
    "";
  let q3 = Families.hypercube 3 in
  fails q3 "ftr-routing 2 8 bi compact hypercube:0x3" "bad compact spec";
  fails q3 "ftr-routing 2 0x8 bi compact hypercube:3" "malformed header"

(* A packed compact routing has no spec: it must fall back to the
   version-1 row format and load as an equivalent table. *)
let test_packed_falls_back_to_v1 () =
  let g = Families.cycle 12 in
  let c = Bipolar.make_unidirectional g ~t:1 in
  let packed = Routing.compact_copy c.Construction.routing in
  let text = Routing_io.to_string packed in
  Alcotest.(check string) "v1 header" "ftr-routing 1 12 uni"
    (List.hd (String.split_on_char '\n' text));
  match Routing_io.load g text with
  | Ok loaded ->
      Alcotest.(check bool) "identical" true (roundtrip_equal packed loaded)
  | Error e -> Alcotest.fail e

let test_deterministic_output () =
  let g = Families.torus 4 4 in
  let c = Kernel.make g ~t:3 in
  Alcotest.(check string) "stable"
    (Routing_io.to_string c.Construction.routing)
    (Routing_io.to_string c.Construction.routing)

let () =
  Alcotest.run "routing_io"
    [
      ( "routing_io",
        [
          Alcotest.test_case "roundtrip bi" `Quick test_roundtrip_bidirectional;
          Alcotest.test_case "roundtrip uni" `Quick test_roundtrip_unidirectional;
          Alcotest.test_case "header" `Quick test_header;
          Alcotest.test_case "load errors" `Quick test_load_errors;
          Alcotest.test_case "empty table" `Quick test_empty_table;
          Alcotest.test_case "v2 compact roundtrip" `Quick test_v2_roundtrip;
          Alcotest.test_case "v2 bidirectional roundtrip" `Quick
            test_v2_bidirectional_roundtrip;
          Alcotest.test_case "v2 load errors" `Quick test_v2_load_errors;
          Alcotest.test_case "packed falls back to v1" `Quick
            test_packed_falls_back_to_v1;
          Alcotest.test_case "deterministic" `Quick test_deterministic_output;
        ] );
    ]
