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

(* Even's reduction, as [Connectivity] computed kappa before it moved
   to the Esfahanian-Hakimi pair set: the oracle the smaller set must
   agree with. With s of minimum degree, one flow for every (u, t)
   with u = s or a neighbour of s and t outside N[u]. *)
let even_candidate_pairs g =
  let n = Graph.n g in
  let s =
    Graph.fold_vertices
      (fun v best -> if Graph.degree g v < Graph.degree g best then v else best)
      g 0
  in
  let pairs_from u =
    let nbrs = Graph.neighbors g u in
    let adjacent = Bitset.create n in
    Array.iter (Bitset.add adjacent) nbrs;
    Bitset.add adjacent u;
    List.filter_map
      (fun t -> if Bitset.mem adjacent t then None else Some (u, t))
      (List.init n Fun.id)
  in
  List.concat_map pairs_from (s :: Array.to_list (Graph.neighbors g s))

let even_vertex_connectivity g =
  let n = Graph.n g in
  if n <= 1 then max 0 (n - 1)
  else if not (Traversal.is_connected g) then 0
  else if Graph.m g = n * (n - 1) / 2 then n - 1
  else begin
    let best = ref (Graph.min_degree g) in
    List.iter
      (fun (u, t) ->
        if !best > 0 then
          let k = Disjoint_paths.st_connectivity g ~src:u ~dst:t ~limit:!best () in
          if k < !best then best := k)
      (even_candidate_pairs g);
    !best
  end

(* The same graph under a random relabelling, so the minimum-degree
   vertex the pair sets start from is not always the lowest index. *)
let relabel rng g =
  let n = Graph.n g in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  Graph.of_edges ~n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))

(* Two cliques A and B joined through a separator: k - 1 vertices
   adjacent to everything, and one vertex s with p neighbours in A and
   q in B. When s has the minimum degree, every minimum cut contains
   it, and only a pair of its neighbours on opposite sides finds the
   cut: the second case of the Esfahanian-Hakimi argument. *)
let clique_sum ~a ~b ~k ~p ~q =
  let n = a + b + k in
  let s = a + b and hubs = List.init (k - 1) (fun i -> a + b + 1 + i) in
  let block lo len = List.init len (fun i -> lo + i) in
  let pairs xs = List.concat_map (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) xs) xs in
  Graph.of_edges ~n
    (pairs (block 0 a) @ pairs (block a b) @ pairs hubs
    @ List.concat_map (fun h -> List.map (fun v -> (h, v)) (block 0 (a + b))) hubs
    @ List.map (fun v -> (s, v)) (block 0 p @ block a q))

(* Graphs for the oracle: G(n, p) at every density from empty to
   complete (disconnected ones included), K_n and K_n minus an edge,
   wheels (the minimum-degree rim vertex has adjacent neighbours),
   complete bipartite graphs and clique sums, each relabelled at
   random. *)
let oracle_graph_gen =
  QCheck.Gen.(
    let* kind = int_range 0 5 in
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    let* g =
      match kind with
      | 0 | 1 ->
          let* n = int_range 2 16 in
          let* p = float_range 0.0 1.0 in
          let edges = ref [] in
          for u = 0 to n - 1 do
            for v = u + 1 to n - 1 do
              if Random.State.float rng 1.0 < p then edges := (u, v) :: !edges
            done
          done;
          return (Graph.of_edges ~n !edges)
      | 2 ->
          let* n = int_range 2 12 in
          let* minus_edge = bool in
          let edges = Graph.edges (Families.complete n) in
          return (Graph.of_edges ~n (if minus_edge then List.tl edges else edges))
      | 3 -> map Families.wheel (int_range 4 14)
      | 4 -> map2 Families.complete_bipartite (int_range 1 7) (int_range 1 7)
      | _ ->
          let* a = int_range 2 6 in
          let* b = int_range 2 6 in
          let* k = int_range 1 3 in
          let* p = int_range 1 a in
          let* q = int_range 1 b in
          return (clique_sum ~a ~b ~k ~p ~q)
    in
    return (relabel rng g))

let prop_connectivity_matches_even =
  QCheck.Test.make ~name:"kappa and is_k_connected agree with Even's reduction" ~count:600
    (QCheck.make ~print:graph_print oracle_graph_gen)
    (fun g ->
      let want = even_vertex_connectivity g in
      Connectivity.vertex_connectivity g = want
      && Connectivity.is_k_connected g want
      && not (Connectivity.is_k_connected g (want + 1)))

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
        prop_connectivity_matches_even;
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
