(* Compact route tables: packed/label/tree schemes must agree with the
   hashtable backend bit for bit, and the large-n sampled checkers must
   agree with the exact ones where both run. *)

open Ftr_graph
open Ftr_core

let triples r =
  let acc = ref [] in
  Routing.iter (fun s d p -> acc := (s, d, Path.to_list p) :: !acc) r;
  List.sort compare !acc

let check_agreement name a b =
  Alcotest.(check int)
    (name ^ ": route_count")
    (Routing.route_count a) (Routing.route_count b);
  Alcotest.(check bool) (name ^ ": same route set") true (triples a = triples b);
  let n = Graph.n (Routing.graph a) in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let pa = Routing.find a src dst and pb = Routing.find b src dst in
      if not (Option.equal Path.equal pa pb) then
        Alcotest.failf "%s: find (%d,%d) disagrees" name src dst;
      if Routing.mem a src dst <> Routing.mem b src dst then
        Alcotest.failf "%s: mem (%d,%d) disagrees" name src dst
    done
  done;
  Alcotest.(check int)
    (name ^ ": max_route_length")
    (Routing.max_route_length a) (Routing.max_route_length b);
  Alcotest.(check int)
    (name ^ ": total_route_edges")
    (Routing.total_route_edges a) (Routing.total_route_edges b);
  Alcotest.(check (float 1e-9)) (name ^ ": stretch") (Routing.stretch a)
    (Routing.stretch b);
  Alcotest.(check bool)
    (name ^ ": validate")
    (Routing.validate a = Ok ())
    (Routing.validate b = Ok ())

(* Every existing construction, re-encoded as a packed compact table,
   must be indistinguishable through the Routing API. *)
let constructions () =
  [
    ("kernel-torus55", Kernel.make (Families.torus 5 5) ~t:3);
    ("kernel-cycle8", Kernel.make (Families.cycle 8) ~t:1);
    ("circular-cycle12", Circular.make (Families.cycle 12) ~t:1);
    ( "tri-circular-cycle27",
      Tri_circular.make (Families.cycle 27) ~t:1 ~variant:Tri_circular.Small );
    ("bipolar-cycle12", Bipolar.make_unidirectional (Families.cycle 12) ~t:1);
    ("bipolar-bi-cycle12", Bipolar.make_bidirectional (Families.cycle 12) ~t:1);
    ("minimal-petersen", Minimal_routing.make (Families.petersen ()));
    ("ecube-q3", Hypercube_routing.ecube 3);
    ("ecube-bi-q3", Hypercube_routing.ecube_bidirectional 3);
  ]

let test_packed_agreement () =
  List.iter
    (fun (name, c) ->
      let r = c.Construction.routing in
      let p = Routing.compact_copy r in
      Alcotest.(check string)
        (name ^ ": backend") "compact:packed" (Routing.backend_name p);
      check_agreement name r p)
    (constructions ())

let test_compact_is_immutable () =
  let c = Hypercube_routing.ecube 3 in
  let p = Routing.compact_copy c.Construction.routing in
  Alcotest.check_raises "add raises"
    (Invalid_argument "Routing.install: compact routings are immutable")
    (fun () -> Routing.add p (Path.edge 0 1))

(* Label schemes: the hypercube scheme must be the exact twin of
   Hypercube_routing.ecube / ecube_bidirectional. *)
let test_hypercube_label_twin () =
  List.iter
    (fun d ->
      let g = Families.hypercube d in
      let uni =
        Routing.of_compact g Routing.Unidirectional (Compact.hypercube d)
      in
      check_agreement
        (Printf.sprintf "hypercube:%d" d)
        (Hypercube_routing.ecube d).Construction.routing uni;
      let bi =
        Routing.of_compact g Routing.Bidirectional
          (Compact.hypercube ~bidirectional:true d)
      in
      check_agreement
        (Printf.sprintf "hypercube:%d:bi" d)
        (Hypercube_routing.ecube_bidirectional d).Construction.routing bi)
    [ 1; 2; 3; 4 ]

let test_de_bruijn_scheme () =
  List.iter
    (fun d ->
      let g = Families.de_bruijn d in
      let n = Graph.n g in
      let r = Routing.of_compact g Routing.Unidirectional (Compact.de_bruijn d) in
      Alcotest.(check int)
        (Printf.sprintf "debruijn:%d all pairs" d)
        (n * (n - 1))
        (Routing.route_count r);
      Alcotest.(check (result unit string))
        (Printf.sprintf "debruijn:%d valid" d)
        (Ok ()) (Routing.validate r);
      Alcotest.(check bool)
        (Printf.sprintf "debruijn:%d length <= d" d)
        true
        (Routing.max_route_length r <= d))
    [ 2; 3; 4; 5 ]

let test_ccc_scheme () =
  List.iter
    (fun d ->
      let g = Families.ccc d in
      let n = Graph.n g in
      let r = Routing.of_compact g Routing.Unidirectional (Compact.ccc d) in
      Alcotest.(check int)
        (Printf.sprintf "ccc:%d all pairs" d)
        (n * (n - 1))
        (Routing.route_count r);
      Alcotest.(check (result unit string))
        (Printf.sprintf "ccc:%d valid" d)
        (Ok ()) (Routing.validate r);
      Alcotest.(check bool)
        (Printf.sprintf "ccc:%d length <= 2d + d/2" d)
        true
        (Routing.max_route_length r <= (2 * d) + (d / 2)))
    [ 3; 4 ]

let test_tree_scheme () =
  let g = Families.torus 4 4 in
  let c = Compact.bfs_tree g ~root:0 in
  let r = Routing.of_compact g Routing.Bidirectional c in
  let n = Graph.n g in
  Alcotest.(check int) "tree routes all pairs" (n * (n - 1)) (Routing.route_count r);
  Alcotest.(check (result unit string)) "tree valid" (Ok ()) (Routing.validate r);
  (* every route runs along parent-child edges of the BFS forest *)
  let _, parent = Graph.Csr.bfs_tree (Graph.csr g) 0 in
  Routing.iter
    (fun _ _ p ->
      let vs = Path.to_array p in
      for i = 0 to Array.length vs - 2 do
        let u = vs.(i) and v = vs.(i + 1) in
        if parent.(u) <> v && parent.(v) <> u then
          Alcotest.failf "non-tree edge %d-%d on a tree route" u v
      done)
    r

let test_tree_disconnected () =
  (* two disjoint triangles: cross-component pairs are unrouted *)
  let g =
    Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]
  in
  let c = Compact.bfs_tree g ~root:0 in
  let r = Routing.of_compact g Routing.Bidirectional c in
  Alcotest.(check int) "per-component pairs" 12 (Routing.route_count r);
  Alcotest.(check bool) "cross pair unrouted" true (Routing.find r 0 3 = None);
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Routing.validate r)

let test_spec_round_trip () =
  let cases =
    [
      Compact.hypercube 4;
      Compact.hypercube ~bidirectional:true 3;
      Compact.de_bruijn 5;
      Compact.ccc 3;
      Compact.bfs_tree (Families.torus 4 4) ~root:0;
    ]
  in
  List.iter
    (fun c ->
      match Compact.spec c with
      | None -> Alcotest.fail "label scheme must have a spec"
      | Some s -> (
          match Compact.of_spec ~n:(Compact.n c) s with
          | Error e -> Alcotest.failf "of_spec %S: %s" s e
          | Ok c' ->
              Alcotest.(check string) "same scheme" (Compact.scheme_name c)
                (Compact.scheme_name c');
              Alcotest.(check int) "same count" (Compact.route_count c)
                (Compact.route_count c')))
    cases;
  Alcotest.(check bool) "packed has no spec" true
    (Compact.spec
       (Compact.pack ~n:2 (fun f -> f 0 1 (Path.edge 0 1)))
    = None);
  match Compact.of_spec ~n:16 "hypercube:3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong-n spec must be rejected"

(* Spec integers are strictly decimal, as in graph specs: hex, octal,
   underscores and a leading '+' are rejected, not converted. *)
let test_spec_strict_decimal () =
  List.iter
    (fun (n, s) ->
      match Compact.of_spec ~n s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "of_spec %S must be rejected" s)
    [
      (8, "hypercube:0x3");
      (8, "hypercube:+3");
      (8, "hypercube:0o3");
      (8, "hypercube:0x3:bi");
      (64, "debruijn:0b110");
      (24, "ccc:0x3");
      (3, "tree:-1,0x0,0");
      (3, "tree:-1,+0,0");
    ];
  (match Compact.of_spec ~n:3 "tree:-1,0,0" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "decimal tree spec: %s" e);
  List.iter
    (fun s ->
      match Compact_family.of_spec s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "family spec %S must be rejected" s)
    [ "hypercube:0x3"; "hypercube:+3"; "hypercube:1_0:bi"; "debruijn:0o7"; "ccc:0x4" ];
  match Compact_family.of_spec "hypercube:3" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "family spec hypercube:3: %s" e

(* The stretch fix: a routed pair whose destination is unreachable in
   the attached graph must raise, not silently vanish. *)
let test_stretch_surfaces_inconsistency () =
  let c = Compact.hypercube 3 in
  let wrong = Routing.of_compact (Graph.empty 8) Routing.Unidirectional c in
  (match Routing.stretch wrong with
  | exception Invalid_argument _ -> ()
  | x -> Alcotest.failf "stretch on inconsistent table returned %f" x);
  Alcotest.(check bool) "validate also rejects" true
    (Result.is_error (Routing.validate wrong))

(* QCheck pin: on random 2-connected graphs, the packed re-encoding of
   the auto-built construction is indistinguishable from the table. *)
let graph_print g =
  Format.asprintf "n=%d edges=%a" (Graph.n g)
    Fmt.(list ~sep:sp (pair ~sep:(any "-") int int))
    (Graph.edges g)

let chorded_cycle_gen ~nmin ~nmax =
  QCheck.Gen.(
    let* n = int_range nmin nmax in
    let* extra = int_range 0 n in
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    let chords =
      List.init extra (fun _ -> (Random.State.int rng n, Random.State.int rng n))
    in
    let cycle = List.init n (fun i -> (i, (i + 1) mod n)) in
    return (Graph.of_edges ~n (cycle @ chords)))

let prop_packed_agreement =
  QCheck.Test.make ~name:"packed re-encoding agrees on random graphs" ~count:40
    (QCheck.make ~print:graph_print (chorded_cycle_gen ~nmin:6 ~nmax:14))
    (fun g ->
      let r = (Minimal_routing.make g).Construction.routing in
      let p = Routing.compact_copy r in
      triples r = triples p
      && Routing.route_count r = Routing.route_count p
      && Routing.validate p = Ok ())

let prop_tree_scheme_valid =
  QCheck.Test.make ~name:"tree interval scheme is valid on random graphs"
    ~count:40
    (QCheck.make ~print:graph_print (chorded_cycle_gen ~nmin:6 ~nmax:14))
    (fun g ->
      let c = Compact.bfs_tree g ~root:0 in
      let r = Routing.of_compact g Routing.Bidirectional c in
      Routing.validate r = Ok ()
      && Routing.route_count r = Graph.n g * (Graph.n g - 1))

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "compact"
    [
      ( "agreement",
        [
          Alcotest.test_case "packed vs table on all constructions" `Quick
            test_packed_agreement;
          Alcotest.test_case "compact is immutable" `Quick
            test_compact_is_immutable;
          Alcotest.test_case "hypercube label twin" `Quick
            test_hypercube_label_twin;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "de Bruijn shift-in" `Quick test_de_bruijn_scheme;
          Alcotest.test_case "ccc cycle walk" `Quick test_ccc_scheme;
          Alcotest.test_case "tree intervals" `Quick test_tree_scheme;
          Alcotest.test_case "tree forest" `Quick test_tree_disconnected;
          Alcotest.test_case "spec round trip" `Quick test_spec_round_trip;
          Alcotest.test_case "spec strict decimal" `Quick test_spec_strict_decimal;
          Alcotest.test_case "stretch surfaces inconsistency" `Quick
            test_stretch_surfaces_inconsistency;
        ] );
      ( "properties",
        qcheck [ prop_packed_agreement; prop_tree_scheme_valid ] );
    ]
