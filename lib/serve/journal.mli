(** Crash-safe write-ahead fault journal.

    Every accepted fault delta is appended and fsynced {e before} it
    is applied to the engine (one fsync per group: {!commit}), so a
    daemon killed at any point can
    replay the journal on restart and land in byte-identical fault
    state ({!Ftr_core.Fault_model.digest} equality is the check the
    soak harness runs after a kill/restart).

    Format: a plain text file, one event per line, headed by a
    version line so a foreign file is rejected rather than
    misinterpreted:

    {v
    ftr-journal/1
    fail-node 3
    fail-link 2 5
    recover-node 3
    recover-link 2 5
    degrade-link 0 4 2.5
    restore-link 0 4
    v}

    Node and link fields are strict decimals ({!Ftr_core.Decimal}):
    [0x1F], [+2] and [1_0] are malformed lines, not deltas.
    Gray-failure factors print as [%.17g], so every finite double
    survives the write/replay round trip bit-exactly (the digest
    convergence check depends on it).

    Append-only; recovery events are recorded, not compacted away —
    replay is cheap (each event is an O(degree)-ish incremental
    delta) and the full history is itself useful forensics. *)

type t

val header : string
(** ["ftr-journal/1"]. *)

val create : string -> (t, string) result
(** Open [path] for appending, writing the header if the file is new
    or empty. A torn tail (bytes after the last newline, see {!load})
    is truncated first, so the next record starts on a line of its
    own. Fails (with a readable message) if the file exists but does
    not start with the header. *)

val commit : t -> Wire.fault_action list -> (unit, string) result
(** Group commit: write one event line per delta, in order, then one
    flush and one fsync for the whole group. Call this {e before}
    applying any of the deltas to the engine. [Ok ()] without touching
    the file for an empty group. [Error] carries the failed write,
    flush or fsync ([Sys_error] / [Unix_error] text); the group may
    then be partly on disk, but none of it may be applied. Counts one
    ["serve.journal.fsyncs"] per durable group. *)

val append : t -> Wire.fault_action -> (unit, string) result
(** [commit t [event]]. *)

val path : t -> string
val close : t -> unit

val load : string -> (Wire.fault_action list, string) result
(** Read a journal back for replay, in append order. A missing file
    is [Ok []] (a daemon that never saw a fault); a present file with
    a bad header or a malformed line is an error naming the line.
    Every record is committed with its newline, so an unterminated
    last line is the torn tail of a write cut short by a crash: it is
    skipped (a torn [fail-node 123] must not replay as [fail-node 12])
    and counted on ["serve.journal.torn_tails"]. *)
