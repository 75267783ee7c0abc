(* Property-based tests for the graph substrate. Generators build
   graphs that are connected by construction (a random cycle skeleton
   plus random chords), so connectivity-dependent properties are
   well-defined. *)

open Ftr_graph

let graph_print g =
  Format.asprintf "n=%d edges=%a" (Graph.n g)
    Fmt.(list ~sep:sp (pair ~sep:(any "-") int int))
    (Graph.edges g)

(* Cycle on n vertices plus [extra] random chords: always 2-connected
   for n >= 3. *)
let chorded_cycle_gen =
  QCheck.Gen.(
    let* n = int_range 4 18 in
    let* extra = int_range 0 (n * 2) in
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    let chords =
      List.init extra (fun _ ->
          (Random.State.int rng n, Random.State.int rng n))
    in
    let cycle = List.init n (fun i -> (i, (i + 1) mod n)) in
    return (Graph.of_edges ~n (cycle @ chords)))

let arb_graph = QCheck.make ~print:graph_print chorded_cycle_gen

let arb_graph_with_pair =
  QCheck.make
    ~print:(fun (g, u, v) -> Printf.sprintf "%s u=%d v=%d" (graph_print g) u v)
    QCheck.Gen.(
      let* g = chorded_cycle_gen in
      let n = Graph.n g in
      let* u = int_range 0 (n - 1) in
      let* v = int_range 0 (n - 1) in
      return (g, u, v))

let prop_bfs_symmetric =
  QCheck.Test.make ~name:"bfs distance is symmetric" ~count:100 arb_graph_with_pair
    (fun (g, u, v) -> Traversal.distance g u v = Traversal.distance g v u)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"distance triangle inequality" ~count:100
    (QCheck.make
       ~print:(fun (g, _, _, _) -> graph_print g)
       QCheck.Gen.(
         let* g = chorded_cycle_gen in
         let n = Graph.n g in
         let* a = int_range 0 (n - 1) in
         let* b = int_range 0 (n - 1) in
         let* c = int_range 0 (n - 1) in
         return (g, a, b, c)))
    (fun (g, a, b, c) ->
      match (Traversal.distance g a b, Traversal.distance g b c, Traversal.distance g a c) with
      | Some ab, Some bc, Some ac -> ac <= ab + bc
      | _ -> false (* chorded cycles are connected *))

let prop_menger =
  QCheck.Test.make ~name:"Menger: flow value = min separator size" ~count:60
    arb_graph_with_pair (fun (g, u, v) ->
      QCheck.assume (u <> v && not (Graph.mem_edge g u v));
      let flow = Disjoint_paths.st_connectivity g ~src:u ~dst:v () in
      let cut = Disjoint_paths.st_min_separator g ~src:u ~dst:v in
      List.length cut = flow && Separator.separates g cut u v)

let prop_st_paths_match_connectivity =
  QCheck.Test.make ~name:"st_paths family has maximum size and is disjoint" ~count:60
    arb_graph_with_pair (fun (g, u, v) ->
      QCheck.assume (u <> v);
      let k = Disjoint_paths.st_connectivity g ~src:u ~dst:v () in
      let paths = Disjoint_paths.st_paths g ~src:u ~dst:v () in
      let interiors = List.concat_map Path.interior paths in
      List.length paths = k
      && List.for_all (Path.is_valid_in g) paths
      && List.length interiors = List.length (List.sort_uniq compare interiors))

(* Disjoint_paths answers every query on one template network per
   graph, reset between queries. An interleaved run over two graphs
   (the cached network is reused while consecutive queries hit one
   graph and rebuilt when they switch) must answer exactly like a
   fresh network: each query is replayed afterwards on a structurally
   equal copy of its graph, whose template is built anew. *)
type query =
  | Paths of int * int * int option
  | Conn of int * int * int option
  | Sep of int * int
  | Fan of int * int list * int option

let print_query = function
  | Paths (u, v, _) -> Printf.sprintf "st_paths %d %d" u v
  | Conn (u, v, _) -> Printf.sprintf "st_connectivity %d %d" u v
  | Sep (u, v) -> Printf.sprintf "st_min_separator %d %d" u v
  | Fan (u, ts, _) ->
      Printf.sprintf "fan_to_set %d [%s]" u (String.concat ";" (List.map string_of_int ts))

let query_gen n =
  QCheck.Gen.(
    let* kind = int_range 0 3 in
    let* u = int_range 0 (n - 1) in
    let* d = int_range 1 (n - 1) in
    let v = (u + d) mod n in
    let* k = opt (int_range 1 4) in
    match kind with
    | 0 -> return (Paths (u, v, k))
    | 1 -> return (Conn (u, v, k))
    | 2 -> return (Sep (u, v))
    | _ ->
        let* ts = list_size (int_range 1 6) (int_range 0 (n - 1)) in
        return (Fan (u, List.filter (( <> ) u) (v :: ts), k)))

let answer g = function
  | Paths (u, v, k) ->
      List.map Path.to_list (Disjoint_paths.st_paths g ~src:u ~dst:v ?k ())
  | Conn (u, v, limit) -> [ [ Disjoint_paths.st_connectivity g ~src:u ~dst:v ?limit () ] ]
  | Sep (u, v) ->
      if Graph.mem_edge g u v then []
      else [ Disjoint_paths.st_min_separator g ~src:u ~dst:v ]
  | Fan (u, targets, k) ->
      List.map Path.to_list (Disjoint_paths.fan_to_set g ~src:u ~targets ?k ())

let prop_reused_network_answers_fresh =
  QCheck.Test.make ~name:"a reused flow network answers like a fresh one" ~count:60
    (QCheck.make
       ~print:(fun (g1, g2, qs) ->
         Printf.sprintf "g1: %s\ng2: %s\n%s" (graph_print g1) (graph_print g2)
           (String.concat "\n"
              (List.map (fun (second, q) -> (if second then "g2 " else "g1 ") ^ print_query q) qs)))
       QCheck.Gen.(
         let* g1 = chorded_cycle_gen in
         let* g2 = chorded_cycle_gen in
         let* qs =
           list_size (int_range 2 24)
             (let* second = bool in
              let* q = query_gen (Graph.n (if second then g2 else g1)) in
              return (second, q))
         in
         return (g1, g2, qs)))
    (fun (g1, g2, qs) ->
      let pick second = if second then g2 else g1 in
      let got = List.map (fun (second, q) -> answer (pick second) q) qs in
      let fresh g = Graph.of_edges ~n:(Graph.n g) (Graph.edges g) in
      let want = List.map (fun (second, q) -> answer (fresh (pick second)) q) qs in
      got = want)

let prop_connectivity_le_min_degree =
  QCheck.Test.make ~name:"kappa <= min degree, and is_k_connected agrees" ~count:40
    arb_graph (fun g ->
      let k = Connectivity.vertex_connectivity g in
      k >= 2 (* chorded cycle *)
      && k <= Graph.min_degree g
      && Connectivity.is_k_connected g k
      && not (Connectivity.is_k_connected g (k + 1)))

let prop_min_cut_is_minimum_separator =
  QCheck.Test.make ~name:"min_vertex_cut has size kappa and separates" ~count:40 arb_graph
    (fun g ->
      match Connectivity.min_vertex_cut g with
      | None -> Graph.m g = Graph.n g * (Graph.n g - 1) / 2
      | Some cut ->
          List.length cut = Connectivity.vertex_connectivity g
          && Separator.is_separator g cut)

let prop_greedy_neighborhood_set =
  QCheck.Test.make ~name:"greedy neighborhood set: valid and meets Lemma 15" ~count:60
    arb_graph (fun g ->
      let m = Independent.greedy g in
      Independent.is_neighborhood_set g m
      && List.length m >= Independent.greedy_bound g)

let prop_girth_bound =
  QCheck.Test.make ~name:"girth <= n and >= 3" ~count:60 arb_graph (fun g ->
      match Metrics.girth g with
      | Some girth -> girth >= 3 && girth <= Graph.n g
      | None -> false (* a chorded cycle always has a cycle *))

let prop_diameter_vs_eccentricity =
  QCheck.Test.make ~name:"diameter = max eccentricity >= radius" ~count:40 arb_graph
    (fun g ->
      let diam = Metrics.diameter g in
      let rad = Metrics.radius g in
      let max_ecc =
        Graph.fold_vertices
          (fun v acc -> Metrics.max_distance acc (Metrics.eccentricity g v))
          g (Metrics.Finite 0)
      in
      diam = max_ecc && Metrics.distance_le rad diam)

let prop_two_trees_implies_weak =
  QCheck.Test.make ~name:"formal two-trees implies the prose version" ~count:60
    arb_graph_with_pair (fun (g, u, v) ->
      (not (Two_trees.verify g u v)) || Two_trees.holds_weak g u v)

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/elements roundtrip" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (int_range 0 199))
    (fun xs ->
      let s = Bitset.of_list 200 xs in
      Bitset.elements s = List.sort_uniq compare xs)

let prop_path_rev_involution =
  QCheck.Test.make ~name:"path reverse is an involution" ~count:100
    QCheck.(int_range 2 20)
    (fun n ->
      let p = Path.of_list (List.init n Fun.id) in
      Path.equal p (Path.rev (Path.rev p))
      && Path.source (Path.rev p) = Path.target p)

let () =
  let suite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_bfs_symmetric;
        prop_triangle_inequality;
        prop_menger;
        prop_st_paths_match_connectivity;
        prop_reused_network_answers_fresh;
        prop_connectivity_le_min_degree;
        prop_min_cut_is_minimum_separator;
        prop_greedy_neighborhood_set;
        prop_girth_bound;
        prop_diameter_vs_eccentricity;
        prop_two_trees_implies_weak;
        prop_bitset_roundtrip;
        prop_path_rev_involution;
      ]
  in
  Alcotest.run "qcheck_graph" [ ("properties", suite) ]
