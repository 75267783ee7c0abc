(** Message forwarding over fixed routes, with rerouting through
    surviving routes (Section 1 of the paper).

    A message travels along a {e sequence of routes}: each route is
    traversed link by link ([hop_latency] per link) and incurs a fixed
    [endpoint_overhead] at its endpoint (the encryption / error
    correction processing the paper describes as dominating). When the
    fixed route between source and destination is dead, the sender
    pays [nack_latency] to discover it (one [retry]) and re-plans via
    a shortest sequence of surviving routes. *)

open Ftr_core

type config = {
  hop_latency : float;
  endpoint_overhead : float;
  nack_latency : float;
  deadline : float option;
      (** per-message delivery deadline, measured from [sent_at] and
          checked at every nack; a message past it becomes a
          {!Message.DeadLetter}. [None] disables the check. *)
  max_replans : int;
      (** re-plans allowed before the message becomes a dead letter *)
  backoff : float;
      (** exponential nack backoff: the k-th re-plan of a message waits
          [nack_latency * backoff^(k-1)]; [1.0] is a constant delay *)
}

val default_config : config
(** hop 1.0, endpoint 10.0, nack 5.0 — endpoint processing dominates,
    matching the paper's cost model. No deadline, unbounded re-plans,
    no backoff: under a static fault set the legacy behaviour. *)

val hardened_config : config
(** {!default_config} plus the churn hardening the soak harness runs
    with: deadline 500.0, at most 8 re-plans, backoff factor 2.0. *)

val send :
  Sim.t ->
  Fault_model.t ->
  config ->
  ?on_done:(Message.t -> unit) ->
  id:int ->
  src:int ->
  dst:int ->
  unit ->
  Message.t
(** Schedule the delivery of one message starting now. The returned
    record is filled in as the simulation runs; [on_done] fires at
    delivery or at the undeliverable verdict. Faults are read at each
    route boundary, so crashes occurring mid-flight are observed. *)

val send_queued :
  Sim.t ->
  Fault_model.t ->
  Queueing.t ->
  config ->
  ?on_done:(Message.t -> unit) ->
  id:int ->
  src:int ->
  dst:int ->
  unit ->
  Message.t
(** Like {!send} but endpoint processing goes through the shared
    per-node FIFO servers instead of costing a fixed
    [endpoint_overhead]: concurrent routes through a hot endpoint
    queue up behind each other. *)

val deliver_all_queued :
  Sim.t ->
  Fault_model.t ->
  Queueing.t ->
  config ->
  (float * int * int) list ->
  Message.t list

type broadcast_result = {
  reached : int;  (** non-faulty nodes that received the message *)
  rounds : int;
      (** largest route counter used; bounded by the surviving
          diameter (Section 1's table-rebuild argument) *)
}

val broadcast : Fault_model.t -> origin:int -> counter_bound:int -> broadcast_result
(** Route-counter flooding: every node that first receives the
    message with counter [c] forwards it along all of its surviving
    routes with counter [c + 1]; copies whose counter would exceed
    [counter_bound] are discarded. Synchronous-round abstraction. *)

type async_broadcast_result = {
  a_reached : int;
  a_copies : int;  (** total message copies transmitted *)
  a_finished_at : float;  (** virtual time of the last delivery *)
}

val broadcast_async :
  Sim.t -> Fault_model.t -> config -> origin:int -> counter_bound:int ->
  async_broadcast_result
(** The same protocol run as actual timed messages on the simulator:
    each forwarded copy pays its route's transit and endpoint costs,
    so arrival order depends on route lengths rather than rounds.
    Counters still bound the flooding exactly as in Section 1. *)

val deliver_all :
  Sim.t ->
  Fault_model.t ->
  config ->
  (float * int * int) list ->
  Message.t list
(** Schedule one send per [(time, src, dst)] triple, run the
    simulation to completion, and return the messages (in input
    order). *)
