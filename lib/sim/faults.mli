(** Fault injection schedules for simulations.

    Events act on both halves of the mixed fault model: node crashes
    and recoveries, and link flaps ([`LinkDown]/[`LinkUp]). Schedule
    constructors return time-sorted lists; {!schedule_on} installs
    them into a simulator against a network's {!Ftr_core.Fault_model.t}. *)

open Ftr_graph

type action =
  [ `Crash of int  (** node goes down *)
  | `Recover of int  (** node comes back *)
  | `LinkDown of int * int  (** link goes down (either endpoint order) *)
  | `LinkUp of int * int  (** link comes back *)
  | `LinkDegrade of int * int * float
    (** gray failure: link stays up but traversals cost [factor]
        times the healthy hop latency *)
  | `LinkRestore of int * int  (** gray failure clears *) ]

type event = { at : float; action : action }

val crash_set_at : at:float -> int list -> event list

val link_set_at : at:float -> (int * int) list -> event list

val random_crashes :
  rng:Random.State.t -> n:int -> count:int -> window:float * float -> event list
(** [count] distinct nodes crash at uniform times within the
    window. *)

val churn :
  rng:Random.State.t ->
  n:int ->
  count:int ->
  window:float * float ->
  dwell:float ->
  event list
(** Like {!random_crashes}, but every crash is paired with a recovery
    [dwell] later, so nodes cycle out and back in. Events are sorted
    by time; recoveries may land after the window's end. *)

val random_link_flaps :
  rng:Random.State.t ->
  g:Graph.t ->
  count:int ->
  window:float * float ->
  dwell:float ->
  event list
(** [count] distinct links each go down at a uniform time within the
    window and come back [dwell] later. Events are sorted by time;
    recoveries may land after the window's end. *)

val gray_flaps :
  rng:Random.State.t ->
  g:Graph.t ->
  count:int ->
  window:float * float ->
  dwell:float ->
  factor:float ->
  event list
(** Gray-failure churn: [count] distinct links each degrade to
    [factor] times healthy latency at a uniform time within the
    window and restore [dwell] later. Routes are never cut — only
    slowed — so surviving-diameter verdicts are untouched while the
    latency distribution and the protocol's deadline machinery feel
    the slowdown. Factor must be finite and at least 1. *)

val region : Graph.t -> center:int -> radius:int -> int list
(** The BFS ball of the given radius around [center]: every node
    within [radius] hops, sorted. Radius 0 is just the center. *)

val region_links : Graph.t -> center:int -> radius:int -> (int * int) list
(** The links with both endpoints inside {!region} — the correlated
    blast area of a regional outage, as normalised sorted pairs. *)

val regional_waves :
  rng:Random.State.t ->
  g:Graph.t ->
  waves:int ->
  radius:int ->
  start:float ->
  dwell:float ->
  gap:float ->
  event list
(** Correlated regional failures: [waves] random epicenters, each
    taking down every link of its BFS ball wholesale ({!link_waves}
    timing — down at the wave start, up [dwell] later, next wave
    [gap] after that). This replaces i.i.d. link picks with
    neighborhood-correlated fault sets. *)

val mixed_churn :
  rng:Random.State.t ->
  g:Graph.t ->
  nodes:int ->
  links:int ->
  window:float * float ->
  dwell:float ->
  event list
(** Node churn and link flaps interleaved on one timeline: [nodes]
    crash/recover pairs and [links] down/up pairs, all with the same
    dwell, merged in time order. *)

val witness_waves :
  start:float -> dwell:float -> gap:float -> int list list -> event list
(** Deterministic churn driven by discovered fault sets: each witness
    crashes wholesale (one wave), stays down for [dwell], recovers,
    and the next wave starts [gap] later. This replays the attack
    engine's worst cases dynamically — the simulator exercises exactly
    the fault patterns the search proved nastiest. *)

val link_waves :
  start:float -> dwell:float -> gap:float -> (int * int) list list -> event list
(** {!witness_waves} for links: each wave of edges goes down wholesale,
    dwells, comes back up, and the next wave starts [gap] later (the
    soak harness replays attack witnesses this way). *)

val witness_links : Graph.t -> nodes:int list -> links:(int * int) list -> (int * int) list
(** Project a mixed node/link witness onto the link universe: listed
    links are kept (normalised), and each listed node becomes one
    incident link — the one to its smallest neighbour; isolated nodes
    contribute nothing. Sorted and deduplicated. The result has at
    most [|nodes| + |links|] links, so the paper's endpoint reduction
    keeps a within-budget witness within budget; the soak harnesses
    replay corpus witnesses as link waves through this. *)

val schedule_on : Sim.t -> Ftr_core.Fault_model.t -> event list -> unit
(** Install the schedule into the simulator. *)
