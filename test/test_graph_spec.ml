open Ftr_graph
open Ftr_analysis

let ok spec = match Graph_spec.parse spec with Ok g -> g | Error e -> Alcotest.fail e

let err spec =
  match Graph_spec.parse spec with
  | Ok _ -> Alcotest.fail ("expected error for " ^ spec)
  | Error e -> e

let test_families () =
  Alcotest.(check int) "cycle" 12 (Graph.n (ok "cycle:12"));
  Alcotest.(check int) "petersen" 10 (Graph.n (ok "petersen"));
  Alcotest.(check int) "hypercube" 16 (Graph.n (ok "hypercube:4"));
  Alcotest.(check int) "ccc" 24 (Graph.n (ok "ccc:3"));
  Alcotest.(check int) "shuffle" 16 (Graph.n (ok "shuffle:4"));
  Alcotest.(check int) "grid" 12 (Graph.n (ok "grid:3x4"));
  Alcotest.(check int) "torus3" 27 (Graph.n (ok "torus3:3x3x3"));
  Alcotest.(check int) "bipartite" 7 (Graph.n (ok "bipartite:3:4"));
  Alcotest.(check int) "star" 6 (Graph.n (ok "star:6"));
  Alcotest.(check int) "wheel" 6 (Graph.n (ok "wheel:6"))

let test_circulant () =
  let g = ok "circulant:10:1,2" in
  Alcotest.(check int) "4-regular" 4 (Graph.max_degree g)

let test_random_seeded () =
  let a = ok "gnp:30:0.2:5" and b = ok "gnp:30:0.2:5" in
  Alcotest.(check bool) "deterministic" true (Graph.equal a b);
  let r = ok "regular:20:3:1" in
  Alcotest.(check int) "regular" 3 (Graph.max_degree r);
  Alcotest.(check int) "gnm edges" 40 (Graph.m (ok "gnm:20:40:1"))

let test_errors () =
  Alcotest.(check bool) "unknown" true
    (String.length (err "frobnicate:3") > 0);
  Alcotest.(check bool) "bad int" true (String.length (err "cycle:xyz") > 0);
  Alcotest.(check bool) "bad dims" true (String.length (err "grid:3") > 0);
  Alcotest.(check bool) "bad prob" true (String.length (err "gnp:10:oops") > 0);
  (* integers are strictly decimal, and one bad list element rejects
     the spec instead of being dropped *)
  List.iter
    (fun spec -> Alcotest.(check bool) spec true (String.length (err spec) > 0))
    [ "circulant:12:1,x,3"; "hypercube:0x4"; "cycle:1_2" ];
  (* family validation errors surface as parse errors, not exceptions *)
  Alcotest.(check bool) "cycle too small" true (String.length (err "cycle:2") > 0)

let test_conv_printer () =
  let _, printer = Graph_spec.conv in
  let s = Format.asprintf "%a" printer (ok "cycle:5") in
  Alcotest.(check string) "printer" "<graph n=5 m=5>" s

let () =
  Alcotest.run "graph_spec"
    [
      ( "graph_spec",
        [
          Alcotest.test_case "families" `Quick test_families;
          Alcotest.test_case "circulant" `Quick test_circulant;
          Alcotest.test_case "random seeded" `Quick test_random_seeded;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "conv printer" `Quick test_conv_printer;
        ] );
    ]
