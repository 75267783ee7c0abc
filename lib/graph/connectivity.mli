(** Vertex connectivity.

    The paper's standing assumption is a network of node-connectivity
    [t + 1]; every construction takes [t] from here. The computation
    reduces to s-t max-flows over a small set of vertex pairs
    (Esfahanian and Hakimi, 1984). With [s] a vertex of minimum degree
    [delta], the pairs are [(s, t)] for every [t] outside N[s] and
    [(x, y)] for every two non-adjacent neighbours of [s]:
    [(n - delta - 1) + C(delta, 2)] flows at most, where Even's
    reduction runs [(delta + 1)(n - delta - 1)]. For a minimum cut
    [S]: if [s] is not in [S], some [t] beyond [S] is outside N[s] and
    [S] separates [s] from [t]; if [s] is in [S], [S - {s}] does not
    separate, so [s] has non-adjacent neighbours in two components of
    [G - S], which [S] separates. {!min_vertex_cut} takes [kappa] from
    these pairs, then scans Even's pairs from the last one back, with
    every flow capped at [kappa + 1], and stops at the first whose
    flow is [kappa]: the last such pair in Even's order fixes which
    minimum cut it returns, and the Kernel, Augment and Multirouting
    tables are built around that cut. *)

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
