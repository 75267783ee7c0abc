(** Zero-dependency observability: named monotonic counters, gauges
    and timing spans, with a deterministic JSON sink.

    The whole layer is process-global and cheap enough to leave
    compiled into the hot paths: every recording call starts with one
    atomic load of the enabled flag and is a no-op when disabled.
    Enabling costs a sharded atomic add per counter event, so the
    engine can run fully instrumented without serialising its domains
    on a single cache line.

    {b The determinism rule.} Counters are reserved for quantities
    that are a function of the work requested, never of how the
    scheduler interleaved it: the same command with the same seed must
    produce byte-identical {!counters_json} output for every [--jobs]
    value. Quantities that legitimately depend on scheduling (pool
    utilisation, per-domain task spreads, wall-clock) go into gauges
    and spans, which the determinism comparison excludes. *)

type counter
(** A named monotonic integer counter. Counters are registered once
    (at module initialisation time in the instrumented libraries) and
    persist for the life of the process; {!reset} zeroes their values
    but never unregisters them, so the set of emitted names is stable
    across runs. *)

type gauge
(** A named float cell for scheduling-dependent measurements
    (last-write or accumulate semantics; excluded from the
    deterministic counter output). *)

(** {1 Global switches} *)

val set_enabled : bool -> unit
(** Turn recording on or off (default: off). Safe to call from any
    domain; recording calls in flight on other domains may straddle
    the transition. *)

val enabled : unit -> bool

val set_trace : bool -> unit
(** When tracing is on (and recording is enabled), every completed
    {!with_span} also prints one human-readable line to [stderr]. *)

(** {1 Counters} *)

val counter : string -> counter
(** [counter name] registers (or retrieves) the counter called
    [name]. Idempotent and thread-safe; intended for top-level
    [let c = Obs.counter "engine.foo"] bindings. *)

val add : counter -> int -> unit
(** Add to a counter. No-op when disabled. Safe from any domain: each
    domain lands on its own shard, and shard totals commute. *)

val incr : counter -> unit

val value : counter -> int
(** Sum of all shards. Exact once the recording domains are
    quiescent. *)

(** {1 Gauges} *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val max_gauge : gauge -> float -> unit

(** {1 Spans} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] and accumulates the duration under
    [name] — count and total are aggregated, not stored per event.
    When disabled this is exactly [f ()]. Exceptions propagate; the
    span still records. The wall clock is not monotonic: if a clock
    step makes the measured duration negative it is clamped to zero
    (see {!record_span}), so span totals never decrease. *)

val record_span : string -> float -> unit
(** [record_span name seconds] folds one already-measured duration
    into [name]'s span aggregate — for callers that time work
    themselves (the serve daemon records per-request latencies this
    way). No-op when disabled. Negative durations (the non-monotonic
    wall clock stepped mid-measurement) are clamped to zero and each
    clamp is tallied on the ["obs.spans_clamped"] gauge — a gauge,
    not a counter, because clock steps are environment events and
    must stay out of the deterministic counter output. *)

(** {1 Reading and serialising} *)

val reset : unit -> unit
(** Zero every counter and gauge and drop all span aggregates.
    Registrations survive, so a later run emits the same counter
    names. *)

val counters : unit -> (string * int) list
(** All registered counters with their values, sorted by name. *)

val gauges : unit -> (string * float) list

val spans : unit -> (string * int * float) list
(** [(name, count, total_seconds)], sorted by name. *)

val counters_json : unit -> string
(** The deterministic subset only: one JSON object mapping counter
    name to value, keys sorted. This is the string the jobs-
    independence tests compare byte-for-byte. *)

val to_json : unit -> string
(** The full metrics document:
    {v
    { "schema": "ftr-metrics/1",
      "counters": { "attack.evals": 1234, ... },
      "gauges": { "par.pool_size": 7.0, ... },
      "spans": { "tolerance.certify": { "count": 2, "total_ms": 41.7 }, ... } }
    v}
    Counters are deterministic across [--jobs]; gauges and spans are
    not and must be excluded from any determinism comparison. *)
