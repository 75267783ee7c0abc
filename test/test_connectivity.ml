open Ftr_graph

let kappa = Connectivity.vertex_connectivity

let test_known_families () =
  Alcotest.(check int) "cycle" 2 (kappa (Families.cycle 9));
  Alcotest.(check int) "path" 1 (kappa (Families.path_graph 5));
  Alcotest.(check int) "complete 5" 4 (kappa (Families.complete 5));
  Alcotest.(check int) "hypercube 3" 3 (kappa (Families.hypercube 3));
  Alcotest.(check int) "hypercube 4" 4 (kappa (Families.hypercube 4));
  Alcotest.(check int) "petersen" 3 (kappa (Families.petersen ()));
  Alcotest.(check int) "grid (corners)" 2 (kappa (Families.grid 4 4));
  Alcotest.(check int) "torus" 4 (kappa (Families.torus 4 4));
  Alcotest.(check int) "ccc" 3 (kappa (Families.ccc 3));
  Alcotest.(check int) "star" 1 (kappa (Families.star 6));
  Alcotest.(check int) "complete bipartite 2,3" 2 (kappa (Families.complete_bipartite 2 3))

(* The scale targets: exact kappa, not just the min-degree bound. *)
let test_large_families () =
  Alcotest.(check int) "hypercube 7" 7 (kappa (Families.hypercube 7));
  Alcotest.(check int) "torus 16x16" 4 (kappa (Families.torus 16 16))

let test_edge_cases () =
  Alcotest.(check int) "empty" 0 (kappa (Graph.empty 0));
  Alcotest.(check int) "singleton" 0 (kappa (Graph.empty 1));
  Alcotest.(check int) "two isolated" 0 (kappa (Graph.empty 2));
  Alcotest.(check int) "K2" 1 (kappa (Families.complete 2));
  Alcotest.(check int) "disconnected" 0 (kappa (Graph.of_edges ~n:4 [ (0, 1); (2, 3) ]))

let test_cut_vertex () =
  (* Two triangles sharing vertex 2: kappa = 1. *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 2) ] in
  Alcotest.(check int) "cut vertex" 1 (kappa g)

let test_is_k_connected () =
  let g = Families.hypercube 4 in
  Alcotest.(check bool) "4-connected" true (Connectivity.is_k_connected g 4);
  Alcotest.(check bool) "not 5-connected" false (Connectivity.is_k_connected g 5);
  Alcotest.(check bool) "trivially 0" true (Connectivity.is_k_connected g 0);
  Alcotest.(check bool) "complete" true (Connectivity.is_k_connected (Families.complete 4) 3)

let test_min_vertex_cut () =
  let g = Families.torus 4 4 in
  match Connectivity.min_vertex_cut g with
  | None -> Alcotest.fail "expected a cut"
  | Some cut ->
      Alcotest.(check int) "size = kappa" 4 (List.length cut);
      Alcotest.(check bool) "separates" true (Separator.is_separator g cut)

let test_min_vertex_cut_complete () =
  Alcotest.(check bool) "complete has none" true
    (Connectivity.min_vertex_cut (Families.complete 4) = None)

let test_min_vertex_cut_disconnected () =
  Alcotest.(check (option (list int))) "empty cut" (Some [])
    (Connectivity.min_vertex_cut (Graph.of_edges ~n:4 [ (0, 1); (2, 3) ]))

let test_matches_menger_on_random () =
  (* kappa(G) <= local connectivity of every non-adjacent pair. *)
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 5 do
    match Random_graphs.connected_gnp ~rng 14 0.3 with
    | None -> ()
    | Some g ->
        let k = kappa g in
        Alcotest.(check bool) "k <= min degree" true (k <= Graph.min_degree g);
        for u = 0 to 13 do
          for v = u + 1 to 13 do
            if not (Graph.mem_edge g u v) then
              let local = Disjoint_paths.st_connectivity g ~src:u ~dst:v () in
              Alcotest.(check bool) "kappa lower-bounds local" true (k <= local)
          done
        done;
        Alcotest.(check bool) "is_k_connected agrees" true
          (Connectivity.is_k_connected g k);
        Alcotest.(check bool) "is_(k+1) fails" false
          (Connectivity.is_k_connected g (k + 1))
  done

let test_edge_connectivity () =
  Alcotest.(check int) "cycle" 2 (Connectivity.edge_connectivity (Families.cycle 8));
  Alcotest.(check int) "path" 1 (Connectivity.edge_connectivity (Families.path_graph 5));
  Alcotest.(check int) "complete 5" 4 (Connectivity.edge_connectivity (Families.complete 5));
  Alcotest.(check int) "hypercube 3" 3 (Connectivity.edge_connectivity (Families.hypercube 3));
  Alcotest.(check int) "petersen" 3 (Connectivity.edge_connectivity (Families.petersen ()));
  Alcotest.(check int) "disconnected" 0
    (Connectivity.edge_connectivity (Graph.of_edges ~n:4 [ (0, 1); (2, 3) ]));
  Alcotest.(check int) "singleton" 0 (Connectivity.edge_connectivity (Graph.empty 1))

let test_whitney_inequalities () =
  (* kappa <= lambda <= min degree on assorted graphs. *)
  List.iter
    (fun g ->
      let k = kappa g and l = Connectivity.edge_connectivity g in
      Alcotest.(check bool) "kappa <= lambda" true (k <= l);
      Alcotest.(check bool) "lambda <= delta" true
        (Graph.n g < 2 || l <= Graph.min_degree g))
    [
      Families.cycle 7; Families.wheel 8; Families.grid 3 5; Families.ccc 3;
      Families.petersen (); Families.star 5; Families.shuffle_exchange 3;
    ]

let test_articulation_points () =
  (* Two triangles sharing vertex 2. *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 2) ] in
  Alcotest.(check (list int)) "shared vertex" [ 2 ] (Connectivity.articulation_points g);
  Alcotest.(check (list int)) "cycle has none" []
    (Connectivity.articulation_points (Families.cycle 6));
  Alcotest.(check (list int)) "path interior" [ 1; 2; 3 ]
    (Connectivity.articulation_points (Families.path_graph 5));
  Alcotest.(check (list int)) "star hub" [ 0 ]
    (Connectivity.articulation_points (Families.star 5))

let test_bridges () =
  Alcotest.(check (list (pair int int))) "path edges" [ (0, 1); (1, 2) ]
    (Connectivity.bridges (Families.path_graph 3));
  Alcotest.(check (list (pair int int))) "cycle none" []
    (Connectivity.bridges (Families.cycle 5));
  (* two triangles joined by one edge 2-3 *)
  let g = Graph.of_edges ~n:6 [ (0,1); (1,2); (2,0); (3,4); (4,5); (5,3); (2,3) ] in
  Alcotest.(check (list (pair int int))) "joining edge" [ (2, 3) ] (Connectivity.bridges g)

let test_articulation_consistent_with_kappa () =
  let rng = Random.State.make [| 21 |] in
  for _ = 1 to 5 do
    match Random_graphs.connected_gnp ~rng 16 0.25 with
    | None -> ()
    | Some g ->
        let has_cut = Connectivity.articulation_points g <> [] in
        let k = kappa g in
        if Graph.n g >= 3 then
          Alcotest.(check bool) "kappa=1 iff articulation point" has_cut (k = 1)
  done

let () =
  Alcotest.run "connectivity"
    [
      ( "connectivity",
        [
          Alcotest.test_case "known families" `Quick test_known_families;
          Alcotest.test_case "hypercube 7 and torus 16x16" `Quick test_large_families;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "cut vertex" `Quick test_cut_vertex;
          Alcotest.test_case "is_k_connected" `Quick test_is_k_connected;
          Alcotest.test_case "min vertex cut" `Quick test_min_vertex_cut;
          Alcotest.test_case "cut of complete" `Quick test_min_vertex_cut_complete;
          Alcotest.test_case "cut of disconnected" `Quick test_min_vertex_cut_disconnected;
          Alcotest.test_case "Menger consistency" `Quick test_matches_menger_on_random;
          Alcotest.test_case "edge connectivity" `Quick test_edge_connectivity;
          Alcotest.test_case "Whitney inequalities" `Quick test_whitney_inequalities;
          Alcotest.test_case "articulation points" `Quick test_articulation_points;
          Alcotest.test_case "bridges" `Quick test_bridges;
          Alcotest.test_case "articulation vs kappa" `Quick test_articulation_consistent_with_kappa;
        ] );
    ]
