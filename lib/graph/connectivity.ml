let is_complete g =
  let n = Graph.n g in
  Graph.m g = n * (n - 1) / 2

(* The lowest-numbered vertex of minimum degree. *)
let min_degree_vertex g =
  Graph.fold_vertices
    (fun v best -> if Graph.degree g v < Graph.degree g best then v else best)
    g 0

(* (u, t) for every t in [ts] outside N[u], in the order of [ts]. *)
let non_adjacent_pairs g u ts =
  List.filter_map (fun t -> if t = u || Graph.mem_edge g u t then None else Some (u, t)) ts

(* Even's candidate pairs, with s of minimum degree: (u, t) for u = s
   and every neighbour u of s, and every t outside N[u]. *)
let even_pairs g =
  let s = min_degree_vertex g in
  let all = List.init (Graph.n g) Fun.id in
  List.concat_map (fun u -> non_adjacent_pairs g u all) (s :: Array.to_list (Graph.neighbors g s))

(* Esfahanian and Hakimi's candidate pairs, with s of minimum degree:
   (s, t) for every t outside N[s], and (x, y) for every two
   non-adjacent neighbours x, y of s. Let S be a minimum cut. If s is
   not in S, some t beyond S is outside N[s], and S separates s from
   t. If s is in S, S - {s} does not separate, so s has neighbours x
   and y in two components of G - S: they are non-adjacent and S
   separates them. No non-adjacent pair is separated by fewer than
   kappa vertices, so the least flow over these pairs is kappa. The
   set is a subset of Even's: (n - delta - 1) + C(delta, 2) pairs at
   most, against (delta + 1)(n - delta - 1). *)
let candidate_pairs g =
  let s = min_degree_vertex g in
  let nbrs = Array.to_list (Graph.neighbors g s) in
  non_adjacent_pairs g s (List.init (Graph.n g) Fun.id)
  @ List.concat_map (fun x -> non_adjacent_pairs g x (List.filter (fun y -> y > x) nbrs)) nbrs

let vertex_connectivity g =
  let n = Graph.n g in
  if n <= 1 then max 0 (n - 1)
  else if not (Traversal.is_connected g) then 0
  else if is_complete g then n - 1
  else begin
    let best = ref (Graph.min_degree g) in
    List.iter
      (fun (u, t) ->
        if !best > 0 then
          let k = Disjoint_paths.st_connectivity g ~src:u ~dst:t ~limit:!best () in
          if k < !best then best := k)
      (candidate_pairs g);
    !best
  end

let is_k_connected g k =
  let n = Graph.n g in
  if k <= 0 then true
  else if n < k + 1 then false
  else if Graph.min_degree g < k then false
  else if not (Traversal.is_connected g) then false
  else if is_complete g then true
  else
    List.for_all
      (fun (u, t) -> Disjoint_paths.st_connectivity g ~src:u ~dst:t ~limit:k () >= k)
      (candidate_pairs g)

let edge_connectivity g =
  let n = Graph.n g in
  if n <= 1 then 0
  else if not (Traversal.is_connected g) then 0
  else begin
    (* lambda = min over t <> s of the s-t edge-disjoint path count;
       each undirected edge becomes a pair of antiparallel unit arcs.
       One network serves every t, reset between runs. *)
    let net = Maxflow.create n in
    Graph.iter_edges
      (fun u v ->
        Maxflow.add_edge net ~src:u ~dst:v ~cap:1;
        Maxflow.add_edge net ~src:v ~dst:u ~cap:1)
      g;
    let best = ref (Graph.min_degree g) in
    for t = 1 to n - 1 do
      if !best > 0 then begin
        Maxflow.reset net;
        let f = Maxflow.max_flow net ~src:0 ~dst:t ~limit:!best () in
        if f < !best then best := f
      end
    done;
    !best
  end

(* Tarjan lowpoint DFS shared by articulation points and bridges. *)
let lowpoint_scan g ~on_articulation ~on_bridge =
  let n = Graph.n g in
  let disc = Array.make n (-1) in
  let low = Array.make n 0 in
  let time = ref 0 in
  let rec dfs parent v =
    disc.(v) <- !time;
    low.(v) <- !time;
    incr time;
    let children = ref 0 in
    let v_cuts = ref false in
    Array.iter
      (fun w ->
        if disc.(w) < 0 then begin
          incr children;
          dfs v w;
          low.(v) <- min low.(v) low.(w);
          if low.(w) > disc.(v) then on_bridge (min v w) (max v w);
          if parent >= 0 && low.(w) >= disc.(v) then v_cuts := true
        end
        else if w <> parent then low.(v) <- min low.(v) disc.(w))
      (Graph.neighbors g v);
    if (parent < 0 && !children >= 2) || (parent >= 0 && !v_cuts) then
      on_articulation v
  in
  for v = 0 to n - 1 do
    if disc.(v) < 0 then dfs (-1) v
  done

let articulation_points g =
  let acc = ref [] in
  lowpoint_scan g ~on_articulation:(fun v -> acc := v :: !acc) ~on_bridge:(fun _ _ -> ());
  List.sort_uniq compare !acc

let bridges g =
  let acc = ref [] in
  lowpoint_scan g ~on_articulation:(fun _ -> ()) ~on_bridge:(fun u v -> acc := (u, v) :: !acc);
  List.sort_uniq compare !acc

let min_vertex_cut g =
  let n = Graph.n g in
  if n <= 1 then None
  else if not (Traversal.is_connected g) then Some []
  else if is_complete g then None
  else begin
    (* kappa comes from the smaller Esfahanian-Hakimi set. The cut
       comes from Even's pairs, in Even's order: the last pair whose
       flow is kappa fixes which minimum cut this returns, and the
       Kernel, Augment and Multirouting tables are built around that
       cut (test_route_digests pins kernel torus:5x5). Scanning from
       the end stops at that pair, after as few flows as possible. *)
    let kappa = vertex_connectivity g in
    let separated (u, t) =
      Disjoint_paths.st_connectivity g ~src:u ~dst:t ~limit:(kappa + 1) () <= kappa
    in
    match List.find_opt separated (List.rev (even_pairs g)) with
    | Some (u, t) -> Some (Disjoint_paths.st_min_separator g ~src:u ~dst:t)
    | None ->
        (* Some pair of Even's set is separated by a minimum cut. *)
        assert false
  end
