(** Maximum flow on directed networks with integer capacities (Dinic's
    algorithm).

    The library only ever needs small integral capacities (vertex
    connectivity, disjoint paths) but the implementation is a general
    blocking-flow Dinic. Arcs live in flat int arrays, each node's
    arcs in an intrusive list (newest first), and the per-phase
    buffers are allocated once per network. A network can be reused:
    {!reset} restores the capacities as added and {!set_capacity}
    overrides single edges, so one network serves many queries that
    differ only in capacities. An edge of capacity [0] is never
    traversed, and the other arcs keep their order, so a run finds the
    same flow as on a network built without that edge. *)

type t

val create : int -> t
(** [create n] is an empty network on nodes [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> unit
(** Adds a directed edge; a residual reverse edge of capacity [0] is
    added automatically. Parallel edges are allowed. *)

val max_flow : t -> src:int -> dst:int -> ?limit:int -> unit -> int
(** Computes a maximum (or [limit]-capped) flow from [src] to [dst],
    mutating the network's residual capacities, and returns its value.
    Subsequent calls continue from the current residual state. *)

val reset : t -> unit
(** Clears all flow and restores every edge's capacity as added. *)

val set_capacity : t -> int -> int -> unit
(** [set_capacity t i cap] gives the [i]-th added edge capacity [cap]
    and no flow. Meant between {!reset} and {!max_flow}, to specialise
    a shared network to one query. *)

val flow_on : t -> int -> int
(** [flow_on t i] is the flow currently carried by the [i]-th added
    edge (edges are numbered in insertion order, starting at 0). *)

val take_unit : t -> int -> int
(** Flow decomposition step: [take_unit t v] finds the newest edge
    added out of [v] that carries flow, removes one unit of flow from
    it and returns its head node; [-1] if no edge out of [v] carries
    flow. Allocation-free. *)

val min_cut_side : t -> src:int -> Bitset.t
(** After a max-flow computation, the set of nodes reachable from [src]
    in the residual network (the source side of a minimum cut). *)
