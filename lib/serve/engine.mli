(** The serve daemon's warm routing engine.

    Wraps one {!Ftr_core.Fault_model.t}, which compiles the routing
    once at startup and holds the only copy of the fault state. Every
    fault delta is an incremental update of that model's evaluator —
    the daemon never recompiles under churn — and every route query
    is one BFS over its live bit matrix. The engine adds request
    validation, the delta counters, the detour fallback and the reply
    type. *)

open Ftr_core

type t

val create : Routing.t -> t
(** Compile the routing once ({!Ftr_core.Fault_model.create}) and
    start fault-free. *)

val routing : t -> Routing.t
val n : t -> int

val validate : t -> Wire.fault_action -> (unit, string) result
(** Would this delta be accepted? [Ok] for in-range nodes and
    existing links (including no-op repeats); [Error] otherwise.
    Callers journal between {!validate} and {!apply} so only
    appliable events are written ahead. *)

val apply : t -> Wire.fault_action -> (bool, string) result
(** Apply one delta. [Ok true] when the state changed, [Ok false]
    for an idempotent no-op (failing a node that is already down —
    live churn and journal replay may both be redundant), [Error]
    when {!validate} would have rejected it. *)

val replay : t -> Wire.fault_action list -> (int, string) result
(** Apply a journal in order; the count of state-changing events, or
    the first rejection. *)

val digest : t -> string
(** {!Ftr_core.Fault_model.digest} of the current fault state. *)

val node_faults : t -> int list
val link_faults : t -> (int * int) list

val degraded_links : t -> (int * int * float) list
(** Gray-failed links as normalised sorted [(min, max, factor)]
    triples. Degradation never changes a routing verdict — it is
    latency bookkeeping carried for the health/stats ops and the
    digest. *)

type reply =
  | Routed of {
      waypoints : int list;
      routes : int;  (** fixed routes traversed = [length waypoints - 1] *)
      hops : int;  (** underlying graph edges traversed *)
      degraded : bool;
          (** route survives but exceeds the proven diameter bound *)
    }
  | Detour of { path : int list; hops : int }
      (** The surviving route graph disconnects the pair but the
          underlying graph does not: a best-effort source route over
          live links, always reported degraded. *)
  | Unreachable
      (** The pair is disconnected even in the underlying graph minus
          faults — no routing could serve it. *)

val route : ?bound:int -> t -> src:int -> dst:int -> (reply, string) result
(** Answer one surviving-route query under the current fault state.
    [bound] is the proven [(d, f)] diameter bound in force; a
    surviving route longer than it is flagged [degraded] rather than
    dropped. [Error] when an endpoint is out of range or currently
    faulty. *)

val diameter : t -> Ftr_graph.Metrics.distance
(** Surviving diameter under the current fault state. Memoised: only
    a state-changing crisp delta (node or link fail/recover) clears
    the memo; gray [degrade]/[restore] deltas keep it, since they never
    touch the evaluator. *)
