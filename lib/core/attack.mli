(** Adversarial fault-set search (the attack engine).

    Every theorem of the paper quantifies over {e all} fault sets of
    size at most [f]; exhaustive enumeration dies combinatorially and
    uniform sampling is a weak adversary for routing resilience —
    worst cases hide in tiny, structured corners of the fault space.
    This module searches for diameter-maximising fault sets with
    greedy hill-climbing over single-fault swaps scored incrementally
    by a {!Surviving.evaluator} (a swap only touches the routes
    through its two elements), restarts seeded from the
    construction's adversarial pools (concentrator, neighborhoods,
    minimum cuts) and from random sets, and simulated-annealing
    escapes from plateaus — all under a fixed evaluation budget with a
    deterministic RNG.

    Every reported witness is {e delta-minimised}: no single fault can
    be dropped without losing the achieved diameter, so witnesses stay
    small enough to read and to replay cheaply forever (see
    {!module:Corpus}). *)

open Ftr_graph

type config = {
  budget : int;  (** max surviving-diameter evaluations for the search *)
  restarts : int;  (** max restarts (pool-seeded first, then random) *)
  sa_steps : int;  (** annealing steps per plateau escape *)
  init_temp : float;  (** initial annealing acceptance temperature *)
  cooling : float;  (** multiplicative cooling per annealing step *)
}

val default_config : config
(** [{ budget = 1500; restarts = 6; sa_steps = 60; init_temp = 2.0;
      cooling = 0.95 }] — the "default budget" every acceptance
    statement about the engine refers to. *)

type outcome = {
  worst : Metrics.distance;  (** largest surviving diameter found *)
  witness : Surviving.fault_set;
      (** delta-minimal fault set achieving exactly [worst] *)
  raw_witness : Surviving.fault_set;  (** the set as discovered, before shrinking *)
  evals : int;  (** diameter evaluations spent, shrinking included *)
  restarts_used : int;
}

val score : n:int -> Metrics.distance -> int
(** The search objective, totally ordered: a finite diameter is
    itself; [Infinite] scores [n], above every finite surviving
    diameter (which is at most [n - 1]). *)

val search :
  ?config:config ->
  ?jobs:int ->
  rng:Random.State.t ->
  ?pools:int list list ->
  ?universe:Surviving.universe ->
  Routing.t ->
  f:int ->
  outcome
(** Maximise the surviving diameter over fault sets of size exactly
    [f] (capped at the universe size) drawn from [universe] (default
    [Nodes]; [Links] searches link faults only, [Mixed] draws each
    fault from the n vertices and the m links together). The empty
    set is also evaluated, so the result is never below the
    fault-free diameter. The adversarial [pools] are node pools, used
    verbatim in the node part of the universe and mapped to their
    incident links in the link part. Each restart owns an equal slice
    of [budget] and a seed drawn from [rng] up front, runs greedy
    climbing over single-element swaps with SA escapes on its own
    incremental evaluator, and re-seeds from fresh random sets while
    its slice lasts; restarts execute on up to [jobs] domains (default
    [Domain.recommended_domain_count ()]) and merge in restart order,
    so the outcome is identical for every [jobs] value and
    deterministic for a given RNG state. Shrinking the final witness,
    over nodes and links together, costs at most [O(|witness|^2)]
    evaluations on top of the budget. *)

val shrink :
  Surviving.compiled ->
  witness:Surviving.fault_set ->
  Surviving.fault_set * Metrics.distance * int
(** [shrink c ~witness] greedily drops faults (vertices in increasing
    order, then links in edge-id order) while the surviving diameter
    stays at least the witness's own. Returns the smaller witness, the
    diameter it achieves (never below the original's) and the
    evaluations used. The result is locally minimal: dropping any
    single remaining fault strictly lowers the diameter below the
    returned one. {!search} shrinks its witness this way, whatever its
    universe. *)

(** {1 Sampled search at scale}

    {!search} compiles the route table, which materialises every
    route; a 10{^5}–10{^6}-node compact routing cannot afford that.
    The sampled variant scores a candidate fault set by probing a
    fixed set of sampled pairs with {!Surviving.probe_distance} (O(1)
    state per probe) and hill-climbs over single-node swaps. *)

type sampled_outcome = {
  s_worst : Metrics.distance;
      (** worst probed distance under the witness; [Infinite] means
          "> bound or probe budget exhausted" *)
  s_flagged : int;  (** sampled pairs pushed past [bound] by the witness *)
  s_witness : int list;  (** fault set found, sorted; greedily shrunk *)
  s_pair : (int * int) option;  (** a pair exhibiting [s_worst] *)
  s_probes : int;  (** pair probes scheduled ([pairs] per set scored) *)
  s_restarts_used : int;
}

val search_sampled :
  ?restarts:int ->
  ?steps:int ->
  ?jobs:int ->
  ?probe_budget:int ->
  rng:Random.State.t ->
  ?pools:int list list ->
  Routing.t ->
  f:int ->
  bound:int ->
  pairs:int ->
  sampled_outcome
(** Maximise (pairs flagged past [bound], capped probed-distance sum)
    over fault sets of size [min f (n - 2)]. [pairs] sampled ordered
    pairs are drawn from [rng] up front and fixed for the whole
    search; each of the [restarts] (default 4) restarts seeds from a
    pool prefix (its [f] lowest in-range members) or a uniform
    [f]-subset, then makes [steps] (default 60) single-node swap
    attempts, accepting improvements always and plateau moves half the
    time. Restart seeds are drawn before any evaluation and results
    merge in restart order, so the outcome is identical for every
    [jobs] value. Pairs with a faulty endpoint never count as flagged
    (tolerance quantifies over surviving pairs). [probe_budget]
    defaults to [2n + 1] as in {!Surviving.probe_distance}. *)

(** {1 Witness corpus}

    A discovered witness is a regression test waiting to happen: it
    costs one diameter evaluation to replay forever. Entries carry
    enough to rebuild their construction from the CLI vocabulary
    (graph spec, strategy name, build seed), so `ftr attack --replay`
    re-checks a whole corpus from scratch, and
    {!Tolerance.evaluate} replays matching fault sets before any
    fresh search. Files are JSON arrays, one file per attacked
    construction, under a corpus directory (conventionally
    [corpus/]). *)

module Corpus : sig
  type entry = {
    graph : string;  (** CLI graph spec, e.g. ["torus:5x5"] *)
    strategy : string;  (** CLI strategy name, e.g. ["kernel"] *)
    seed : int;  (** build seed the construction was made with *)
    n : int;  (** vertex count, as a staleness check *)
    f : int;  (** fault budget the search ran under *)
    faults : int list;  (** the witness's node faults, sorted *)
    edges : (int * int) list;
        (** the witness's link faults, normalised [(min, max)] pairs,
            sorted; [[]] for node-only witnesses and every legacy
            (version-less) entry *)
    diameter : Metrics.distance;  (** measured at discovery time *)
    bound : int option;
        (** the claim bound in force when [f] was within a claim's
            fault budget; [None] for beyond-budget exploration *)
    found_by : string;  (** provenance, e.g. ["attack(seed=48879)"] *)
  }

  val current_version : int
  (** The format version stamped on every written entry (currently
      2). Readers accept versions 1 (including legacy entries with no
      ["version"] field at all, which predate the stamp) through
      {!current_version}, and report anything else — like any other
      malformed entry — as a parse error, never an exception. *)

  val to_json : entry list -> string
  (** A JSON array, one entry object per line, each stamped with
      {!current_version}. *)

  val of_json : string -> (entry list, string) result
  (** Reads with [Ftr_json.Sjson.parse]. [Error] carries the codec's
      syntax error (with its byte offset) or the first malformed
      entry; fields the reader does not use are ignored. A [\uXXXX]
      escape of a code point at or above [0x80] decodes to ['?'], as
      everywhere in the codec. Never raises. *)

  val load_file : string -> (entry list, string) result

  val save_file : string -> entry list -> (unit, string) result
  (** [save_file path entries] writes {!to_json} to [path ^ ".tmp"],
      then renames it over [path], so a failed save leaves an existing
      file's bytes as they were. [Error] carries the system's message;
      never raises. *)

  val load_dir : string -> (string * (entry list, string) result) list
  (** [(path, parse result)] for every [*.json] directly in the
      directory, sorted by path; [[]] when the directory is missing. *)

  val add : entry list -> entry -> entry list * bool
  (** Append unless an entry with the same graph, strategy and fault
      set is already present; returns whether it was added. *)

  val replayable : entry list -> n:int -> f:int -> int list list
  (** The stored node-only fault sets valid on an [n]-vertex instance
      under fault budget [f] (every vertex in range, size at most [f]).
      Entries with link faults are skipped, because they do not belong
      in a node-fault verdict. Replay those with
      {!Tolerance.check_sets}, which takes node and link faults, or
      with [ftr attack --replay]. *)
end
