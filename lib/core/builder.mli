(** Property-driven construction selection.

    Given a graph, detect which of the paper's structural properties
    hold and build the routing with the best guaranteed bound:
    tri-circular (4) or unidirectional bipolar (4), then small
    tri-circular (5) or bidirectional bipolar (5), then circular (6),
    then the kernel fallback (max(2t, 4)). *)

open Ftr_graph

type strategy =
  | Tri_circular_full
  | Bipolar_uni
  | Tri_circular_small
  | Bipolar_bi
  | Circular
  | Kernel

val strategy_name : strategy -> string
(** The name [ftr --strategy] and the witness corpus use, e.g.
    ["tri-circular-small"] or ["bipolar-uni"]. *)

(** What to build: the best applicable strategy, or a fixed one. *)
type request = Auto | Fixed of strategy

val requests : (string * request) list
(** Every strategy name, [auto] first: auto, kernel, circular,
    tri-circular, tri-circular-small, bipolar-uni, bipolar-bi. This is
    the one table behind [--strategy] and corpus provenance. *)

val request_name : request -> string

type choice = {
  strategy : strategy;
  construction : Construction.t;
  t : int;  (** connectivity minus one *)
}

val auto :
  ?rng:Random.State.t ->
  ?prefer_bidirectional:bool ->
  Graph.t ->
  choice
(** Computes the vertex connectivity, searches for a neighborhood set
    (randomized-restart greedy when [rng] is given) and two-trees
    roots, and applies the best applicable construction. With
    [prefer_bidirectional] (default false) the unidirectional bipolar
    routing is skipped. Raises [Invalid_argument] on graphs with
    connectivity below 1 or on complete graphs (where no separating
    set exists for the kernel fallback). *)

val applicable : Graph.t -> t:int -> strategy list
(** Which strategies the graph's structure admits (always ends with
    [Kernel] for non-complete graphs). *)

val build : Graph.t -> request -> seed:int -> (Construction.t, string) result
(** The construction [ftr route -s NAME --seed SEED] builds, from an
    RNG seeded with [seed]: {!auto} for [Auto]; for [Fixed s], [s] at
    [t] = connectivity minus one, with a neighborhood set from 30
    randomized greedy restarts where [s] needs one. [Error] carries
    the reason a construction does not apply. *)

val build_named : Graph.t -> string -> seed:int -> (Construction.t, string) result
(** {!build} for a name in {!requests}; any other name is
    [Error "unknown strategy NAME"]. *)
