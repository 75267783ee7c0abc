(** The serve daemon: request handling, admission, journaling, and
    the Unix-domain-socket event loop.

    The request core ({!create} / {!submit} / {!pump}) is pure of
    socket concerns, so the scenario runner ({!module:Scenario}) drives
    the very same admission, journaling and degraded-mode paths
    in-process with a virtual clock; only {!run} touches file
    descriptors. *)

type config = {
  max_queue : int;  (** admission queue budget (see {!Admission}) *)
  deadline : float;  (** per-request wait deadline, seconds; [<= 0.] none *)
  bound : int option;
      (** proven [(d, f)] diameter bound; surviving routes beyond it
          are answered but flagged ["degraded": true] *)
}

type t

val create :
  ?clock:(unit -> float) -> ?journal:Journal.t -> config -> Engine.t -> t
(** [clock] feeds the admission queue only (the daemon passes wall
    time; the scenario runner passes a virtual clock so its counters are
    schedule-independent), and is read only when [deadline > 0].
    Service latencies are always measured on the real clock. *)

val engine : t -> Engine.t

val set_engine : t -> Engine.t -> unit
(** Swap in a replacement engine (the scenario runner's kill/restart check
    rebuilds one from the journal and carries on). *)

val bound : t -> int option

val set_bound : t -> int option -> unit
(** Change the proven bound in force. The daemon sets it once from
    the construction's claims; the SLO soak moves it per churn wave to
    the tightest claim covering that wave's fault count
    ({!Ftr_core.Construction.bound_for}). *)

val draining : t -> bool

val request_drain : t -> unit
(** Same effect as a [drain] request or SIGTERM. *)

val queries : t -> int
val degraded : t -> int
val shed : t -> int
val unreachable : t -> int

val handle : t -> Wire.request -> Sjson.t
(** Execute one request immediately, bypassing admission. Route and
    diameter replies carry a ["service_ms"] field measured on the
    real clock and rounded to whole nanoseconds; a fault delta is
    committed to the journal (write-ahead, a group of one) before it
    is applied. Once a journal commit has failed, every later delta is
    answered [ok:false] with that ["journal: ..."] error and not
    applied; routes and the other ops are still served. *)

val submit : t -> Wire.request -> (string -> unit) -> unit
(** Admission-controlled entry: probes ([health]/[ready]) and
    [drain] are answered immediately (a load-shedding daemon must
    still answer its liveness checks); everything else passes through
    the admission queue and may be shed, with an explicit
    [{"ok":false,...,"shed":true}] response rather than silence.
    New work is refused (["draining"]) once a drain has started.
    The callback receives each response line (no trailing
    newline). *)

val pump : t -> unit
(** Serve everything currently admitted, expiring requests that
    out-waited their deadline. The whole batch is taken from admission
    first, against one clock reading (none for an empty queue); its
    validated deltas are then committed to the journal as
    one group (one fsync), and only after that is each request
    answered, in FIFO order. If the commit fails, every delta of the
    batch is refused (see {!handle}) and none is applied. The daemon
    calls this after every select round; the scenario runner calls it
    after every synthetic arrival, or once after a flash-crowd burst. *)

val stats_json : t -> Sjson.t
(** The [stats] reply: query/degraded/shed counts, fault digest, and
    p50/p99/p999 service latency over the recent-request window. *)

val run : t -> socket:string -> (unit, string) result
(** Bind the socket and serve until drained: accept clients, parse
    newline-delimited requests, admit, serve, respond. Replies are
    buffered per client and sent with one write per loop turn, after
    the pump, in the order they were produced. SIGTERM and
    SIGINT (and the [drain] op) trigger drain-then-exit: stop
    accepting, answer everything already queued, flush, close, unlink
    the socket. [Error] only for environment failures (bind/listen);
    per-client I/O errors just drop that client. *)
