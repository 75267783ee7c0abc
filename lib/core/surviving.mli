(** The surviving route graph [R(G, rho)/F] (Section 2).

    Vertices are the non-faulty nodes of [G]; there is an arc from [x]
    to [y] exactly when [rho(x, y)] is defined and no vertex of the
    route (endpoints included) is faulty. For a bidirectional routing
    the result is symmetric. *)

open Ftr_graph

val graph : ?links:(int * int) list -> Routing.t -> faults:Bitset.t -> Digraph.t
(** The surviving route graph, on the original vertex numbering
    (faulty vertices remain as isolated vertices and are ignored by
    the distance functions below). [links] are downed links, in
    either endpoint order (default none): a route that traverses one
    dies, its endpoints stay alive. This table walk is the reference
    the incremental evaluators and {!Fault_model} are checked
    against. *)

val distance : Routing.t -> faults:Bitset.t -> int -> int -> Metrics.distance
(** Directed distance between two non-faulty vertices in the surviving
    graph. *)

val diameter : ?links:(int * int) list -> Routing.t -> faults:Bitset.t -> Metrics.distance
(** Max distance over ordered pairs of distinct non-faulty vertices
    of {!graph}; [Infinite] when some pair is unreachable, [Finite 0]
    when fewer than two vertices survive. *)

val diameter_of_digraph : Digraph.t -> faults:Bitset.t -> Metrics.distance
(** Same computation given an already-built surviving graph (used by
    the multirouting variant). *)

(** {1 Batch evaluation}

    Fault injection evaluates thousands of fault sets against one
    routing; compiling the table once into flat arrays avoids the
    per-set hashtable walk and graph construction. The miserly model
    keeps at most one route per ordered pair, so the surviving graph
    is one liveness bit per route: the evaluators store the adjacency
    as bit matrices and run BFS a machine word at a time. *)

type compiled

val compile : Routing.t -> compiled
(** Raises [Invalid_argument] (with the route and the offending step)
    if some route traverses a pair that is not an edge of the
    routing's graph — a stale table checked against a regenerated
    graph, or inconsistent adjacency lists. *)

val compile_cached : Routing.t -> compiled
(** {!compile} through a one-slot cache keyed on the routing's
    physical identity and route count (routes can only be added, so
    the count is a sound freshness stamp). The checker entry points
    use this so one evaluation run compiles the table once instead of
    once per checker. The returned value may be shared with other
    callers, on any domain: a compiled table is immutable apart from
    its pair certificate, which is built under a lock, and every
    {!evaluator} or {!sliced} owns its mutable state. *)

val compiled_n : compiled -> int
(** Vertex count of the routing the table was compiled from (callers
    that only hold the compiled form need it to size fault sets). *)

val symmetric : compiled -> bool
(** Whether every route's reverse is in the table and is exactly its
    path read backwards — the paper's bidirectional routings, read off
    the table itself rather than its declared kind. A route and its
    reverse share their vertices and edges, so they die together
    under every fault set and the surviving graph is undirected:
    [d(x, y) = d(y, x)]. The sliced sweep measures each unordered pair
    once on such a table. *)

(** {1 The edge universe}

    The compiled table also carries the underlying graph's edge list —
    [(min, max)] pairs in lexicographic order — and a second inverted
    index (edge -> routes traversing it), so edge faults are as
    incremental as node faults. Edge faults are identified by their
    index into this list. *)

val edge_count : compiled -> int
(** Number of edges of the underlying graph. *)

val edge_pair : compiled -> int -> int * int
(** The [(min, max)] endpoints of an edge id. Raises
    [Invalid_argument] if out of range. *)

val edge_id : compiled -> int -> int -> int option
(** The id of the edge joining two vertices, in either order; [None]
    if the graph has no such edge. *)

(** {1 Incremental evaluation}

    An {!evaluator} carries the current fault set as per-route hit
    counters over an inverted index (vertex -> routes through it), so
    adding or removing one fault costs only the routes through that
    vertex — single-node swaps in the attack engine and the serve
    daemon's fault deltas never rescan the route table. Evaluators share
    the immutable tables of their [compiled] source but own all
    mutable state: one evaluator per domain is safe.

    The evaluator keeps the live adjacency twice, as an [n x w] bit
    matrix ([w = ceil(n / 63)] words per row) and as its transpose; a
    route's liveness flips both bits. {!evaluator_diameter},
    {!diameter_exceeds} and {!evaluator_diameter_over} share one
    direction-optimizing BFS per source: a push level ORs the rows of
    the frontier, about [|front| * w] words; a pull level tests each
    unvisited alive vertex's transposed row against the frontier,
    stopping at its first hit, at most [|unvisited| * w] words; a
    level pulls iff fewer vertices are unvisited than are on the
    frontier. A source stops as soon as every target is reached. The
    words read are counted on ["engine.bfs.word_ops"], the levels on
    ["engine.apsp.levels_push"] and ["engine.apsp.levels_pull"]. *)

type evaluator

val evaluator : compiled -> evaluator
(** A fresh evaluator with no faults applied. *)

val evaluator_n : evaluator -> int

val apply_fault : evaluator -> int -> unit
(** Mark a vertex faulty. Raises [Invalid_argument] if out of range or
    already faulty (a double apply would corrupt the hit counters). *)

val revert_fault : evaluator -> int -> unit
(** Undo {!apply_fault}. Raises [Invalid_argument] if out of range or
    not currently faulty. *)

val apply_edge_fault : evaluator -> int -> unit
(** Take a link down, by edge id (see {!edge_id}). The endpoints stay
    alive; only routes traversing the edge die. Raises
    [Invalid_argument] if out of range or already down. *)

val revert_edge_fault : evaluator -> int -> unit
(** Undo {!apply_edge_fault}. Raises [Invalid_argument] if out of
    range or not currently down. *)

val reset : evaluator -> unit
(** Revert every current node and edge fault (cost proportional to the
    routes they touch, not to the table). *)

val set_faults : evaluator -> int list -> unit
(** [reset] then apply each listed vertex. *)

val set_mixed_faults : evaluator -> nodes:int list -> edges:int list -> unit
(** [reset] then apply the listed vertices and edge ids. *)

val is_faulty : evaluator -> int -> bool

val faults : evaluator -> int list
(** Current node fault set in increasing order. *)

val fault_count : evaluator -> int

val is_edge_faulty : evaluator -> int -> bool

val edge_faults : evaluator -> int list
(** Current edge fault set (edge ids) in increasing order. *)

val edge_fault_count : evaluator -> int

val evaluator_diameter : evaluator -> Metrics.distance
(** Surviving diameter under the evaluator's current fault set; agrees
    with {!diameter}. *)

val evaluator_diameter_over : evaluator -> targets:Bitset.t -> Metrics.distance
(** Diameter restricted to [targets]: the worst surviving distance
    between two target vertices, where any alive vertex may relay.
    [targets] must be alive under the current fault set. This is the
    comparison the paper's edge-fault reduction makes — a downed
    link's endpoints stay alive but are outside the projected
    surviving set. [Finite 0] when [targets] has at most one
    vertex. *)

val evaluator_route : evaluator -> src:int -> dst:int -> (int list * int) option
(** A shortest surviving {e route sequence} from [src] to [dst] under
    the evaluator's current fault set, with the number of graph edges
    its routes traverse: the list of route endpoints ([src] first,
    [dst] last; [length - 1] fixed routes are traversed), or [None]
    when the surviving route graph disconnects the pair.
    [Some ([src], 0)] when [src = dst]. Agrees with {!distance}: the
    returned sequence traverses exactly [distance] routes. Raises
    [Invalid_argument] if an endpoint is out of range or currently
    faulty. This is the query a long-lived route server answers per
    request, so it costs one plain BFS over the live bit matrix,
    allocates only the returned list, and touches no scratch shared
    with the diameter sweeps (its own scratch is the evaluator's, so
    the one-evaluator-per-domain rule covers it). *)

val diameter_exceeds : evaluator -> bound:int -> bool
(** [diameter_exceeds e ~bound] is [evaluator_diameter e > Finite bound],
    but each source's BFS stops after level [bound] if some vertex is
    still unreached. The per-set reference for {!slice_exceeds}, which bound
    certification runs on. *)

(** {1 Bit-sliced fault-set evaluation}

    The incremental evaluator packs vertices into word bits and
    answers one fault set per sweep. Exhaustive enumeration wants the
    transpose: a {!sliced} evaluator packs up to {!lane_capacity}
    candidate fault sets into the bits ("lanes") of one word and
    answers all of them with a single word-packed BFS per source, so
    the per-level bookkeeping and the route-table walk are amortised
    across the whole batch. Verdicts are identical, lane for lane, to
    running {!evaluator_diameter} (or {!diameter_exceeds}) per set.

    A [sliced] value owns all its mutable state and shares only the
    immutable compiled tables: one per domain is safe. Typical use is
    [slice_reset]; up to [lane_capacity] times [slice_add]; then one
    [slice_diameters] or [slice_exceeds]. [slice_add] only records
    lane bits per faulted vertex and edge; a sweep packs them into
    per-vertex aliveness words and, when it needs them, per-route
    liveness words, walking each distinct faulted element's routes
    once, so sweeping the same slice again (say, [slice_diameters]
    then [slice_exceeds]) reuses the pack, and adding to a swept slice
    is allowed. The first BFS
    level pushes from the source; each later one walks only the
    vertices some lane still needs, and either the routes out of the
    frontier or, when that may be cheaper, the routes into the
    vertices still unreached, falling back to the former once the
    latter has read as many routes; the results are identical either
    way.

    On a {!symmetric} table each unordered pair is measured once:
    [d(x, y) = d(y, x)] in every lane, so source [x] covers only the
    vertices above it, and a lane's last alive vertex runs no BFS. The
    vertices below [x] still relay (a shortest path from [x] may pass
    through one), but a level walks them only when some lane still
    has a target left after the pull over the targets, or after a
    push. A source costs O(n + routes scanned + the summed count of
    unfinished targets over its levels), plus the below-source
    vertices on the levels that walk them
    ([engine.sliced.below_source_walks] counts those levels). The
    per-set {!evaluator} deliberately keeps every target: it is the
    oracle the sliced sweep is checked against.

    Certified sources. Many sources of a tolerant table need no BFS
    at all. A witness for the pair [(x, y)] is the route [x -> y] or a
    relay [z] with routes [x -> z] and [z -> y]; its footprint is every
    vertex it touches other than [x] and [y] plus every graph edge it
    traverses. A source is certified at budget [f] when every target
    it covers has [f + 1] footprint-disjoint witnesses (packed
    greedily, see {!certified_sources}): in a lane with at most [f]
    distinct faulted elements one witness survives, so [d(x, y) <= 2].
    The sweep runs no BFS from a source in the lanes it is certified
    for ([engine.sliced.sources_skipped] counts the sources left with
    no lane). In a lane with fewer faults than such a source has
    targets it has no route to, one of those is alive, so the source's
    eccentricity there is exactly 2 (faults never shorten a distance),
    and the sweep records that. A lane's verdict stays
    exact if it is sealed or measures 2 or more; if some other skip
    happened and an unsealed lane measures below 2, {!slice_diameters}
    sweeps the slice again with no source skipped
    ([engine.sliced.rechecks]).

    Residual pairs. The certificate also lists each source's weak
    targets, those with at most [cap] witnesses. In a lane with more
    faults than the source's level, the sweep tests each weak pair
    whose witness count does not exceed the lane's faults on the lane
    words ([engine.sliced.pairs_tested]): covered where the direct
    route or both routes of some relay are alive, which is exactly
    [d(x, y) <= 2]. The source runs its BFS only in the lanes with a
    pair left uncovered. In the others the sweep settles its
    eccentricity, 2 if some alive target's route is dead or absent or
    a pair needed a relay and 1 otherwise, so these skips never cause
    a re-sweep. Route words are read off the vertex and edge fault
    masks until a BFS must run; a slice whose tests would, by the
    certificate's estimate at its fault count, read as many masks as
    packing costs packs up front instead
    ([engine.sliced.slices_packed] counts the packs).

    The certificate is built once per compiled table, by the first
    sweep that needs it, in O(n) scratch and O(n * routes) time plus
    the witness walks (span ["surviving.pair_certificate"]: a few ms
    on hypercube:6 at f = 3); {!compile}, the {!evaluator} and the
    serve daemon never build it. A source then costs nothing in the
    lanes it is certified for, its residual pairs' tests in the lanes
    they cover, and the bound above elsewhere. *)

type sliced

val lane_capacity : int
(** Fault sets per slice: one per bit of the native int
    ([Sys.int_size], 63 on 64-bit). *)

val sliced_capable : compiled -> bool
(** Always [true]: every compiled table is sliceable, whatever its
    vertex count, because a lane is a fault set rather than a vertex
    and the sliced sweep never reads the multi-word adjacency rows.
    Kept only because the benchmark harness still asks. *)

val sliced : compiled -> sliced
(** A fresh sliced evaluator with zero lanes loaded. *)

val slice_reset : sliced -> unit
(** Drop all lanes; the next {!slice_add} loads lane 0. *)

val slice_add : sliced -> nodes:int list -> edges:int list -> int
(** Load one candidate fault set (node ids and edge ids, duplicates
    allowed) into the next free lane and return its lane index. Raises
    [Invalid_argument] when the slice already holds {!lane_capacity}
    sets, or on an out-of-range vertex or edge id (same contract as
    {!set_mixed_faults}); every id is checked before any is recorded,
    so a rejected set leaves the slice unchanged. *)

val slice_count : sliced -> int
(** Lanes currently loaded. *)

val slice_diameters : sliced -> Metrics.distance array
(** Surviving diameter of every loaded lane, indexed by lane; element
    [k] equals {!evaluator_diameter} under lane [k]'s fault set.
    Certified sources are skipped; a slice with an unsealed lane
    measured below 2 after a skip is swept a second time without
    skipping, so a slice costs at most two sweeps. *)

val slice_exceeds : sliced -> bound:int -> int
(** Bit mask over lanes: bit [k] is set iff lane [k]'s surviving
    diameter strictly exceeds [Finite bound] — lane-for-lane
    {!diameter_exceeds}. Like the scalar bounded sweep, lanes stop as
    soon as the verdict is provable. Certified sources are skipped
    when [bound >= 2], which never needs a second sweep. *)

val certified_sources : compiled -> f:int -> int list
(** The sources, in increasing order, whose every target (the
    vertices above them on a {!symmetric} table, every other vertex
    otherwise) has [f + 1] footprint-disjoint witnesses. Per pair the
    witnesses are packed greedily, fewest graph edges first, the
    direct route ahead of relays and relays by ascending [z]. Reads
    (and, if needed, builds) the table's pair certificate, the one
    the sliced sweep uses. Raises [Invalid_argument] if [f < 0]. *)

(** {1 Sampled probes at scale}

    Million-node compact tables cannot be compiled (the engine
    materialises every route); the probe below answers bounded
    route-graph distance queries straight off [Routing.find] with O(1)
    state. *)

val probe_distance :
  Routing.t ->
  faults:Bitset.t ->
  src:int ->
  dst:int ->
  bound:int ->
  budget:int ->
  Metrics.distance
(** Distance from [src] to [dst] in the surviving route graph, probed
    only as far as [bound]: [Finite k] ([k <= bound]) when a surviving
    route sequence of [k] routes is found, [Infinite] when the
    distance provably exceeds [bound] {e or} the probe budget ran out
    before deciding — conservative in the flagging direction, never
    optimistic. A probe is one route lookup + fault test; [budget]
    caps them. Exact for [bound <= 2] whenever [budget >= 2n + 1].
    Scan order is a pure function of the pair, so verdicts are
    independent of domain scheduling. [Infinite] for faulty endpoints;
    [Finite 0] for [src = dst]. Agrees with {!distance} wherever both
    decide. *)

val component_diameters : Routing.t -> faults:Bitset.t -> (int list * Metrics.distance) list
(** Open problem (3) of the paper: when more than [t] faults
    disconnect the network, is the routing still "well behaved" inside
    each surviving component? This reports, for every weakly-connected
    component of the surviving graph, its member list and its internal
    (directed) diameter. Components are ordered by smallest member. *)

(** {1 Fault universes}

    The paper handles a faulty link by assuming one of its endpoints
    is a faulty node; this engine also takes links down first-class.
    A {!universe} says which elements may fail, and numbers them with
    one id space so that enumeration, sampling and search need not
    know which kind an id names: [Nodes] ids are the vertices
    [0, n), [Links] ids the edge ids [0, m) (see {!edge_id}), and
    [Mixed] ids put the vertices first, id [n + e] naming edge [e].
    Results leave the id space as a {!fault_set}. *)

type universe = Nodes | Links | Mixed

type fault_set = {
  nodes : int list;  (** faulty vertices, sorted *)
  links : (int * int) list;  (** downed links, normalised [(min, max)] pairs, sorted *)
}

val no_faults : fault_set

val universe_size : compiled -> universe -> int
(** [n], [m] or [n + m]. *)

val fault_set_of_ids : compiled -> universe -> int list -> fault_set
(** Decode sorted universe ids (the result is then sorted too). *)

val ids_of_fault_set : compiled -> universe -> fault_set -> int list
(** Encode a fault set as sorted, deduplicated universe ids; link
    endpoints may come in either order. Raises [Invalid_argument] on
    an out-of-range vertex, a pair that is not an edge, or an element
    the universe does not hold (a node in [Links], a link in
    [Nodes]). *)

val apply_id : evaluator -> universe -> int -> unit
(** {!apply_fault} or {!apply_edge_fault}, by universe id. *)

val revert_id : evaluator -> universe -> int -> unit
val is_id_faulty : evaluator -> universe -> int -> bool

val fault_ids : evaluator -> universe -> int list
(** The current fault set as universe ids, in increasing order (the
    evaluator must hold only faults the universe can name). *)

val set_fault_ids : evaluator -> universe -> int list -> unit
(** [reset] then {!apply_id} each listed id. *)

val slice_add_ids : sliced -> universe -> int list -> int
(** {!slice_add} by universe ids. A [Nodes] or [Links] list is passed
    through as it is; only a [Mixed] list is split. *)

val fault_set_to_string : fault_set -> string
(** ["{3,7} links{1-2,4-9}"]; the links part only when there are
    links. *)
