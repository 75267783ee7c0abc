open Ftr_graph
open Ftr_core

let test_strategy_names () =
  Alcotest.(check string) "kernel" "kernel" (Builder.strategy_name Builder.Kernel);
  Alcotest.(check string) "tri" "tri-circular"
    (Builder.strategy_name Builder.Tri_circular_full)

(* One table: the names --strategy accepts and corpus provenance
   stores, each naming its own request. *)
let test_strategy_table () =
  Alcotest.(check (list string)) "names"
    [
      "auto"; "kernel"; "circular"; "tri-circular"; "tri-circular-small";
      "bipolar-uni"; "bipolar-bi";
    ]
    (List.map fst Builder.requests);
  List.iter
    (fun (name, request) ->
      Alcotest.(check string) name name (Builder.request_name request))
    Builder.requests;
  let g = Families.cycle 12 in
  (match Builder.build_named g "warp" ~seed:1 with
  | Error msg -> Alcotest.(check string) "unknown" "unknown strategy warp" msg
  | Ok _ -> Alcotest.fail "unknown strategy built");
  (match Builder.build_named (Families.petersen ()) "tri-circular" ~seed:1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tri-circular on petersen must not apply");
  match Builder.build_named g "bipolar-uni" ~seed:1 with
  | Ok c ->
      Alcotest.(check bool) "unidirectional" true
        (Routing.kind c.Construction.routing = Routing.Unidirectional)
  | Error msg -> Alcotest.fail msg

let test_auto_cycle_large () =
  (* A 45-cycle admits the full tri-circular construction (bound 4). *)
  let choice = Builder.auto (Families.cycle 45) in
  Alcotest.(check int) "t" 1 choice.Builder.t;
  Alcotest.(check bool) "best bound 4" true
    (match choice.Builder.strategy with
    | Builder.Tri_circular_full | Builder.Bipolar_uni -> true
    | _ -> false)

let test_auto_torus () =
  (* torus 5x5: no two-trees (4-cycles), K = 5 >= t+2: circular. *)
  let choice = Builder.auto (Families.torus 5 5) in
  Alcotest.(check int) "t = 3" 3 choice.Builder.t;
  Alcotest.(check string) "circular" "circular"
    (Builder.strategy_name choice.Builder.strategy)

let test_auto_hypercube_kernel () =
  (* Q3: K is tiny, no two-trees: falls back to the kernel. *)
  let choice = Builder.auto (Families.hypercube 3) in
  Alcotest.(check string) "kernel" "kernel" (Builder.strategy_name choice.Builder.strategy)

let test_auto_prefer_bidirectional () =
  (* On C16 greedy finds K=5 (< 15 needed for full tri-circular), so
     the unidirectional bipolar routing (bound 4) wins by default;
     preferring bidirectional must pick a different strategy whose
     routing really is bidirectional. *)
  let g = Families.cycle 16 in
  let uni = Builder.auto g in
  let bi = Builder.auto ~prefer_bidirectional:true g in
  Alcotest.(check string) "default picks bipolar-uni" "bipolar-uni"
    (Builder.strategy_name uni.Builder.strategy);
  Alcotest.(check bool) "no uni when bidirectional preferred" true
    (bi.Builder.strategy <> Builder.Bipolar_uni);
  Alcotest.(check bool) "resulting routing is bidirectional" true
    (Ftr_core.Routing.kind bi.Builder.construction.Construction.routing
    = Ftr_core.Routing.Bidirectional)

let test_auto_rejects_disconnected () =
  Alcotest.(check bool) "disconnected" true
    (match Builder.auto (Graph.of_edges ~n:4 [ (0, 1); (2, 3) ]) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_auto_rejects_complete () =
  Alcotest.(check bool) "complete" true
    (match Builder.auto (Families.complete 5) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_applicable_ordering () =
  let strategies = Builder.applicable (Families.cycle 45) ~t:1 in
  Alcotest.(check bool) "kernel last" true
    (List.nth strategies (List.length strategies - 1) = Builder.Kernel);
  Alcotest.(check bool) "tri-circular available" true
    (List.mem Builder.Tri_circular_full strategies);
  Alcotest.(check bool) "bipolar available" true (List.mem Builder.Bipolar_uni strategies)

let test_auto_construction_tolerates () =
  let choice = Builder.auto (Families.cycle 20) in
  let c = choice.Builder.construction in
  let claim = Construction.strongest_claim c in
  let v = Tolerance.exhaustive c.Construction.routing ~f:claim.Construction.max_faults in
  Alcotest.(check bool) "claim holds" true
    (Tolerance.respects v ~bound:claim.Construction.diameter_bound)

let () =
  Alcotest.run "builder"
    [
      ( "builder",
        [
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
          Alcotest.test_case "strategy table" `Quick test_strategy_table;
          Alcotest.test_case "auto on long cycle" `Quick test_auto_cycle_large;
          Alcotest.test_case "auto on torus" `Quick test_auto_torus;
          Alcotest.test_case "auto kernel fallback" `Quick test_auto_hypercube_kernel;
          Alcotest.test_case "prefer bidirectional" `Quick test_auto_prefer_bidirectional;
          Alcotest.test_case "rejects disconnected" `Quick test_auto_rejects_disconnected;
          Alcotest.test_case "rejects complete" `Quick test_auto_rejects_complete;
          Alcotest.test_case "applicable ordering" `Quick test_applicable_ordering;
          Alcotest.test_case "auto construction tolerates" `Quick test_auto_construction_tolerates;
        ] );
    ]
