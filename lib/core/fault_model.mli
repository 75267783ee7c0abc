(** The one mutable fault state of a routed network: node faults, link
    faults and gray (latency-only) link degradation.

    The paper handles faulty edges "by assuming that one of the
    endpoints of the faulty edge is a faulty node, an assumption that
    can only weaken our results". This module makes edge faults
    first-class so that claim can be exercised: a route is affected by
    an edge fault only if it traverses that exact edge, so for the
    surviving nodes the edge-fault surviving graph is a supergraph of
    the endpoint-fault one.

    A model compiles its routing once ({!Surviving.compile_cached})
    and keeps node and link faults in that table's incremental
    {!Surviving.evaluator} and nowhere else: a fault delta costs the
    routes through the element, and {!route} and {!diameter} read the
    live bit matrix. The simulator and the serve daemon both hold one
    of these. The independent reference for checking it is
    {!Surviving.graph} / {!Surviving.diameter} with [~links]. *)

open Ftr_graph

type t

val create : Routing.t -> t
(** Compile the routing and start fault-free. Routes added to the
    routing afterwards are not seen by {!route} or {!diameter}. *)

val routing : t -> Routing.t

val is_faulty : t -> int -> bool
(** Is the node currently faulty? *)

val fail_node : t -> int -> unit
(** Idempotent. Raises [Invalid_argument] on a bad vertex. *)

val recover_node : t -> int -> unit
(** Bring a node back; a no-op if it is not currently faulty. *)

val fail_edge : t -> int -> int -> unit
(** Undirected: both traversal directions die. Idempotent. Raises
    [Invalid_argument] if the graph has no such edge. *)

val recover_edge : t -> int -> int -> unit
(** Bring a link back up, in either endpoint order; a no-op if it is
    not currently failed. *)

val node_faults : t -> int list
(** Faulty nodes in increasing order. *)

val node_fault_count : t -> int

val edge_fault_count : t -> int

val edge_faults : t -> (int * int) list
(** Failed edges as normalised [(min, max)] pairs, sorted. *)

val edge_failed : t -> int -> int -> bool
(** Is the edge currently failed, in either endpoint order? *)

val degrade_edge : t -> int -> int -> factor:float -> unit
(** Gray failure: the link stays up but every traversal costs
    [factor] times the healthy hop latency. [factor] must be finite
    and at least 1; setting it back to exactly 1 clears the entry, so
    the degradation map stays canonical. Raises [Invalid_argument] on
    a non-edge or a bad factor. Degradation is orthogonal to
    {!fail_edge}: it never changes {!affects}, {!route} or
    {!diameter} — only latency accounting. *)

val restore_edge : t -> int -> int -> unit
(** Clear any latency degradation on the link, in either endpoint
    order; a no-op if it is not degraded. *)

val edge_degradation : t -> int -> int -> float
(** Current delay factor for the link (1.0 when healthy). *)

val degraded_edges : t -> (int * int * float) list
(** Degraded links as normalised [(min, max, factor)] triples,
    sorted. *)

val degraded_edge_count : t -> int

val path_delay_factor : t -> Path.t -> float
(** Mean per-hop delay factor over the route's edges — the multiplier
    to apply to the healthy transit time of the whole path. 1.0 for a
    path with no degraded edges (including the trivial path). *)

val fault_count : t -> int
(** Node faults plus edge faults. *)

val digest : t -> string
(** A canonical one-line encoding of the current fault state — sorted
    node faults, sorted normalised links, then sorted degraded links
    with their factors, e.g.
    ["nodes{3,14} links{0-1,2-7} slow{4-5*2.5}"]. Factors print with
    17 significant digits so every finite double round-trips exactly.
    Two models over the same routing carry identical fault states iff
    their digests are byte-equal; the serve layer's crash-restart
    check compares these. *)

val affects : t -> Path.t -> bool
(** True when the route crosses a failed node or traverses a failed
    edge. *)

val endpoint_projection : t -> Bitset.t
(** The paper's reduction: node faults plus, for every failed edge,
    its smaller endpoint. *)

val route : t -> src:int -> dst:int -> (int list * int) option
(** {!Surviving.evaluator_route} under the current faults: a shortest
    sequence of surviving routes from [src] to [dst] (the route
    endpoints, [src] first, [dst] last) and the graph edges they
    traverse; [None] when the surviving route graph disconnects the
    pair. Raises [Invalid_argument] if an endpoint is out of range or
    faulty. *)

val diameter : t -> Metrics.distance
(** Diameter of the surviving route graph over the non-faulty nodes
    (endpoints of failed edges remain alive). Memoised: only a node or
    link fail/recover that changes the state clears the memo. *)
