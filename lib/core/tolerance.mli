(** Empirical (d, f)-tolerance checking by fault injection.

    A claim "the routing is (d, f)-tolerant" quantifies over all fault
    sets of size at most f. For small instances we enumerate them all
    (a definitive verdict); otherwise we combine adversarial fault
    families — subsets of the vertex pools the proofs identify as
    critical (the concentrator, single neighborhoods, minimum cuts) —
    with seeded uniform sampling.

    Exhaustive enumeration generates each block of fault sets in
    revolving-door (Gray) order and streams the sets into the lanes of
    the bit-sliced {!Surviving.sliced} evaluator; exact sweeps and
    bound certification share that stream and differ only in the
    question each slice is asked. The scalar engine is a per-set
    oracle on the incremental {!Surviving.evaluator}, fed the same
    sets. Work is distributed over a {!Par} worker pool. Merging
    follows the enumeration order with earlier-witness-wins ties, so
    for every [?jobs] value (default
    [Domain.recommended_domain_count ()]) the verdict — worst,
    witness, [sets_checked] — is bit-identical to the sequential
    run. *)

open Ftr_graph

type verdict = {
  worst : Metrics.distance;  (** largest surviving diameter seen *)
  witness : Surviving.fault_set;  (** a fault set achieving [worst] *)
  sets_checked : int;
  definitive : bool;  (** true when enumeration was exhaustive *)
}

type engine = Scalar | Sliced
(** How candidate sets are swept. [Sliced] (the default) batches up to
    {!Surviving.lane_capacity} sets into the lanes of one word-packed
    BFS ({!Surviving.sliced}), for every vertex count and every
    enumeration size: exhaustive sweeps stream the enumeration into
    slices instead of materialising it. [Scalar] loads each set into
    an incremental evaluator and runs one BFS per set. Verdicts are
    bit-identical either way; [Scalar] remains as the property tests'
    oracle. *)

val subsets_up_to : int list -> int -> int list Seq.t
(** All subsets of the list with size [<= k] (including the empty
    set), lazily. *)

val count_subsets_up_to : n:int -> k:int -> int
(** [sum_{i<=k} C(n, i)], saturating at [max_int]. *)

val iter_combinations_gray :
  n:int ->
  k:int ->
  first:(int array -> unit) ->
  swap:(removed:int -> added:int -> unit) ->
  unit
(** Revolving-door enumeration (Knuth, TAOCP 7.2.1.3, Algorithm R) of
    the k-subsets of [0, n): [first] receives the initial subset, then
    every transition to the next subset swaps exactly one element out
    and one in. The canonical enumeration walks each block in this
    order; exposed for the tests and the benchmark harness, which
    rebuild that order. *)

val check_sets :
  ?jobs:int -> ?engine:engine -> Routing.t -> Surviving.fault_set Seq.t -> verdict
(** Evaluate the surviving diameter on each fault set of the sequence
    (marked non-definitive); node and link faults may mix. The witness
    is the first set, in sequence order, achieving the worst diameter,
    regardless of [jobs]. Raises [Invalid_argument] if a set names a
    vertex out of range or a pair that is not an edge. *)

val exhaustive :
  ?jobs:int -> ?engine:engine -> ?universe:Surviving.universe -> Routing.t -> f:int -> verdict
(** All fault sets of size [<= f] drawn from [universe] (default
    [Nodes]); definitive. The canonical order, over the universe's ids
    (see {!Surviving.universe}), is the empty set, then blocks of sets
    sharing a size and a maximum id [top] — sizes from [f] down to 1,
    and within a size [top] from the universe size minus one down —
    each block walked in revolving-door order (see
    {!iter_combinations_gray}). The sliced engine streams this order
    into slices of [lane_capacity] sets (slice [s] holds canonical
    indexes [[63s, 63s + 63)] on 64-bit, whatever [jobs] is); the
    scalar engine evaluates the same sets one at a time. *)

type certificate = {
  holds : bool;  (** no checked set exceeded the bound *)
  counterexample : Surviving.fault_set option;
      (** the first violating set in canonical order, if any *)
  cert_sets_checked : int;
      (** sets swept: every set when the claim holds; on a violation
          the whole slices swept before each parallel block stopped *)
}

val certify :
  ?jobs:int -> ?universe:Surviving.universe -> Routing.t -> f:int -> bound:int -> certificate
(** Exhaustively certify "(bound, f)-tolerant" against the faults of
    [universe] (default [Nodes]) without computing exact diameters,
    over the same sliced stream as {!exhaustive}: each
    slice is asked {!Surviving.slice_exceeds}, whose BFS stops as soon
    as the bound is provably exceeded, and each of the stream's fixed
    parallel blocks stops after its first violating slice. The blocks
    depend only on the number of sets, so the certificate and the
    [tolerance.certify.*] counters are identical for every [jobs]
    value. *)

val random :
  ?jobs:int ->
  ?engine:engine ->
  ?universe:Surviving.universe ->
  Routing.t ->
  f:int ->
  rng:Random.State.t ->
  samples:int ->
  verdict
(** Uniform fault sets of size exactly [f] drawn from [universe]
    (default [Nodes]), plus the empty set. All samples are drawn from
    [rng] before evaluation, so the verdict is [jobs]-independent. *)

val adversarial :
  ?per_pool_cap:int ->
  ?jobs:int ->
  ?engine:engine ->
  Routing.t ->
  f:int ->
  pools:int list list ->
  verdict
(** Node-fault subsets of size [<= f] of each pool, at most [per_pool_cap]
    (default 2000) sets per pool, deduplicated across pools (the cap
    applies before deduplication, so a set is only skipped when an
    earlier pool already produced it). *)

(** {1 Sampled probing at scale}

    The checkers above compile the route table — every route,
    materialised. A 10{^5}–10{^6}-node compact routing cannot afford
    that, so [sampled] works straight off [Routing.find]:
    {!Surviving.probe_distance} answers bounded route-graph distance
    queries with O(1) state, and the checker sweeps a sampled pair set
    against random and adversarial fault sets. The verdict is
    one-sided: [sv_holds = false] is a genuine (probed) violation
    witness, while [sv_holds = true] only says no sampled pair under
    any candidate set was seen to exceed the bound. *)

type sampled_verdict = {
  sv_holds : bool;
      (** every probed pair stayed within [bound] under every set *)
  sv_worst : Metrics.distance;
      (** worst probed distance ([Infinite] = "> bound or probe budget
          exhausted" — conservative, see
          {!Surviving.probe_distance}) *)
  sv_witness_faults : int list;  (** a fault set achieving [sv_worst] *)
  sv_witness_pair : (int * int) option;  (** the pair that exhibited it *)
  sv_sets_checked : int;
  sv_pairs_checked : int;  (** probes actually performed (faulty-endpoint
                               pairs are skipped for that set) *)
}

val sampled :
  ?jobs:int ->
  ?pools:int list list ->
  ?probe_budget:int ->
  Routing.t ->
  f:int ->
  bound:int ->
  rng:Random.State.t ->
  sets:int ->
  pairs:int ->
  sampled_verdict
(** Probe [pairs] uniform ordered pairs against: the fault-free set,
    one adversarial set per sampled endpoint (its [f] lowest-index
    neighbors — the cut adversary), the [f] lowest members of each
    caller pool, and [sets] uniform [f]-subsets. All randomness is
    drawn from [rng] before evaluation and chunks merge in canonical
    order, so the verdict is identical for every [jobs] value.
    [probe_budget] (default [2n + 1], which makes each probe exact for
    [bound <= 2]) caps route lookups per probe. *)

(** {1 Link faults}

    {!exhaustive}, {!certify} and {!random} take link faults through
    their [?universe] argument ([Links], or [Mixed] for node and link
    faults from one budget), and {!check_sets} straight from its fault
    sets; {!adversarial} and {!sampled} stay node-only. A downed link
    kills exactly the routes traversing it while both endpoints stay
    alive. The canonical order runs over the
    universe's ids, and the sliced kernel and the ordered merge are
    the same, so these verdicts are also bit-identical for every
    [?jobs] value. The paper instead reduces a faulty link to a faulty
    endpoint; {!reduction} checks that reduction set by set. *)

type reduction_report = {
  red_sets : int;  (** edge-fault sets compared *)
  red_violations : int;
      (** sets where the true edge-fault diameter exceeded the
          projection's *)
  red_first_violation : (int * int) list option;
      (** first violating set in enumeration order *)
  red_worst_edge : Metrics.distance;
      (** worst surviving diameter under true edge faults *)
  red_worst_proj : Metrics.distance;
      (** worst surviving diameter under the endpoint projection *)
}

val reduction : ?jobs:int -> Routing.t -> f:int -> reduction_report
(** Exercise the paper's edge-fault reduction ("assume one endpoint of
    the faulty edge is a faulty node"): for every edge-fault set of
    size [<= f], compare the surviving diameter under the true edge
    faults against the diameter under the endpoint projection (each
    downed link replaced by its smaller endpoint, as a node fault).
    The paper's argument predicts zero violations — the projection can
    only remove more routes. Each set is evaluated by
    {!reduction_diameters}, in canonical order; jobs-independent. *)

val reduction_diameters :
  Surviving.compiled ->
  Surviving.evaluator ->
  edges:int list ->
  Metrics.distance * Metrics.distance
(** One set of {!reduction}, on an evaluator of [compiled]: with the
    links [edges] (edge ids) down, the surviving diameter between the
    nodes the endpoint projection keeps, then the diameter under the
    projection itself. Leaves the projection loaded. *)

val evaluate :
  ?exhaustive_budget:int ->
  ?samples:int ->
  ?attack_budget:int ->
  ?corpus:Attack.Corpus.entry list ->
  ?jobs:int ->
  ?engine:engine ->
  rng:Random.State.t ->
  Construction.t ->
  f:int ->
  verdict
(** Exhaustive when [count_subsets_up_to n f] fits the budget (default
    20000). Otherwise four non-definitive sources merge, in order:
    stored [corpus] witnesses valid on this instance replay first
    (default none), then adversarial pools, [samples] (default 300)
    random sets, and an {!Attack.search} run under [attack_budget]
    evaluations (default {!Attack.default_config}'s budget; [0]
    disables the search). [jobs] is passed through to every source. *)

val respects : verdict -> bound:int -> bool
(** Did every checked fault set keep the diameter within the bound? *)
