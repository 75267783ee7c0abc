(* Cross-validation: the per-set evaluator on the compiled table must
   agree with the reference Surviving.diameter on every fault set,
   across routings of all shapes. *)

open Ftr_graph
open Ftr_core

let distance = Alcotest.testable Metrics.pp_distance ( = )

let agree_exhaustive routing ~f =
  let n = Graph.n (Routing.graph routing) in
  let ev = Surviving.evaluator (Surviving.compile routing) in
  Seq.iter
    (fun faults_list ->
      let faults = Bitset.of_list n faults_list in
      Surviving.set_faults ev faults_list;
      Alcotest.(check distance)
        (Printf.sprintf "F={%s}" (String.concat "," (List.map string_of_int faults_list)))
        (Surviving.diameter routing ~faults)
        (Surviving.evaluator_diameter ev))
    (Tolerance.subsets_up_to (List.init n Fun.id) f)

let test_kernel_agrees () =
  let c = Kernel.make (Families.hypercube 3) ~t:2 in
  agree_exhaustive c.Construction.routing ~f:2

let test_circular_agrees () =
  let c = Circular.make (Families.cycle 12) ~t:1 in
  agree_exhaustive c.Construction.routing ~f:2

let test_unidirectional_agrees () =
  let c = Bipolar.make_unidirectional (Families.cycle 12) ~t:1 in
  agree_exhaustive c.Construction.routing ~f:2

let test_sparse_partial_table () =
  (* A routing that covers only a few pairs: most vertices are
     isolated in the route graph, diameter infinite. *)
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Unidirectional in
  Routing.add r (Path.of_list [ 0; 1; 2 ]);
  agree_exhaustive r ~f:2

let test_empty_table () =
  let g = Families.cycle 5 in
  let r = Routing.create g Routing.Bidirectional in
  agree_exhaustive r ~f:1

let test_random_routings_agree () =
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 10 do
    let n = 6 + Random.State.int rng 6 in
    let g = Families.cycle n in
    let r = Routing.create g Routing.Bidirectional in
    Routing.add_edge_routes r;
    (* a few random longer routes *)
    for _ = 1 to 3 do
      let src = Random.State.int rng n in
      let len = 2 + Random.State.int rng 2 in
      let vs = List.init (len + 1) (fun i -> (src + i) mod n) in
      try Routing.add r (Path.of_list vs) with Routing.Conflict _ -> ()
    done;
    agree_exhaustive r ~f:2
  done

(* Regression: a route stepping across a pair the graph's edge list
   does not contain must be rejected by [compile] with a descriptive
   [Invalid_argument], not escape as [Not_found]. Reachable via
   asymmetric adjacency lists: [mem_edge 1 0] holds (so [Routing.add]
   accepts the path) while [Graph.edges] omits (0, 1) (so the compiled
   edge index has no id for it). *)
let test_missing_edge_rejected () =
  let g = Graph.of_adj_lists 2 [| []; [ 0 ] |] in
  let r = Routing.create g Routing.Unidirectional in
  Routing.add r (Path.of_list [ 1; 0 ]);
  match Surviving.compile r with
  | _ -> Alcotest.fail "compile accepted a route over a missing edge"
  | exception Invalid_argument msg ->
      let mentions needle =
        let nl = String.length needle and ml = String.length msg in
        let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "names the route" true (mentions "route 1->0");
      Alcotest.(check bool) "names the step" true (mentions "(1, 0)")
  | exception Not_found -> Alcotest.fail "compile leaked Not_found"

let () =
  Alcotest.run "surviving_compiled"
    [
      ( "agreement",
        [
          Alcotest.test_case "kernel" `Quick test_kernel_agrees;
          Alcotest.test_case "circular" `Quick test_circular_agrees;
          Alcotest.test_case "unidirectional" `Quick test_unidirectional_agrees;
          Alcotest.test_case "sparse table" `Quick test_sparse_partial_table;
          Alcotest.test_case "empty table" `Quick test_empty_table;
          Alcotest.test_case "random routings" `Quick test_random_routings_agree;
          Alcotest.test_case "missing edge rejected" `Quick test_missing_edge_rejected;
        ] );
    ]
