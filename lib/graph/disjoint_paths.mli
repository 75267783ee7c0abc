(** Menger machinery: internally vertex-disjoint paths via node-split
    max-flow.

    Each undirected graph vertex [v] becomes two flow nodes [v_in] and
    [v_out] joined by a unit-capacity arc, so a unit of flow through a
    path uses each interior vertex at most once. This module underlies
    both connectivity computation and the tree routings of the paper's
    Lemma 2.

    All four queries run on one flow network per graph, built on the
    first query and reset between queries; it finds the same paths a
    network built for the query alone would. Each domain caches the
    network of the last graph it queried (keyed by physical identity),
    so a run of queries on one graph builds no further network, and
    domains never share a network. Vertices out of range raise
    [Invalid_argument]. *)

val st_paths : Graph.t -> src:int -> dst:int -> ?k:int -> unit -> Path.t list
(** [st_paths g ~src ~dst ()] is a maximum-size family of internally
    vertex-disjoint simple paths from [src] to [dst] ([src <> dst]).
    With [~k], at most [k] paths are returned (computation stops
    early). If [src] and [dst] are adjacent, one of the returned paths
    is the direct edge. *)

val st_connectivity : Graph.t -> src:int -> dst:int -> ?limit:int -> unit -> int
(** Size of a maximum family of internally vertex-disjoint [src]-[dst]
    paths, capped at [limit] if given. For adjacent vertices this
    counts the direct edge as one path. *)

val st_min_separator : Graph.t -> src:int -> dst:int -> int list
(** A minimum vertex set separating the two {e non-adjacent} vertices
    (Menger: its size equals [st_connectivity]). Raises
    [Invalid_argument] if the vertices are adjacent or equal. *)

val fan_to_set : Graph.t -> src:int -> targets:int list -> ?k:int -> unit -> Path.t list
(** [fan_to_set g ~src ~targets ()] is a maximum-size family of paths
    from [src] to {e distinct} vertices of [targets], vertex-disjoint
    except at [src], whose interior vertices avoid [targets] entirely.
    With [~k], at most [k] paths. [src] must not be a target. This is
    the flow form of the paper's tree routing (Lemma 2) {e before} the
    direct-edge normalisation. *)
