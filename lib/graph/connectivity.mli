(** Vertex connectivity.

    The paper's standing assumption is a network of node-connectivity
    [t + 1]; every construction takes [t] from here. The computation is
    the classical reduction to max-flow over a small set of vertex
    pairs (Even): for a minimum cut [C], either a fixed vertex [s] lies
    outside [C] (then some pair [(s, t)] with [t] non-adjacent realises
    [|C|]) or [s] is in [C] and one of its neighbors does. *)

val vertex_connectivity : Graph.t -> int
(** [kappa(G)]. Conventions: [0] for disconnected graphs and for
    graphs with fewer than two vertices is [max 0 (n-1)]; [n - 1] for
    complete graphs. *)

val is_k_connected : Graph.t -> int -> bool
(** [is_k_connected g k] iff [kappa(g) >= k]; cheaper than computing
    the exact connectivity because every flow is capped at [k]. *)

val is_complete : Graph.t -> bool
(** Every pair of vertices is adjacent (true for [n <= 1]). *)

val min_vertex_cut : Graph.t -> int list option
(** A minimum vertex separator: [None] for complete graphs and graphs
    with fewer than two vertices (none exists), [Some []] for
    disconnected graphs, otherwise [Some c] with
    [List.length c = vertex_connectivity g]. *)

val edge_connectivity : Graph.t -> int
(** [lambda(G)]: minimum number of edges whose removal disconnects the
    graph. [0] for disconnected graphs and graphs with fewer than two
    vertices. Always [kappa <= lambda <= min degree] (Whitney). *)

val articulation_points : Graph.t -> int list
(** Vertices whose removal increases the number of components
    (Tarjan's lowpoint algorithm), sorted. A connected graph is
    2-connected iff this is empty and [n >= 3]. *)

val bridges : Graph.t -> (int * int) list
(** Edges whose removal disconnects their component, as [(u, v)] with
    [u < v], sorted. *)
