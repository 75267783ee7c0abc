(** The scenario runner: scripted churn against the live serve stack,
    failing loudly on any broken promise of the routing.

    A scenario is a list of beats — query batches, fault and gray
    waves, a flash-crowd burst, bound changes, a kill/restart journal
    replay, and assertions on delivery and digests. One driver runs
    the beats through {!Server.submit}/{!Server.pump} (the request
    core the socket daemon runs). It owns:

    - the virtual admission clock, one tick per submission, so every
      count is a function of the inputs and the seed;
    - the write-ahead fault journal, in [journal_dir];
    - the one reply classifier: delivered (with its route count and
      degraded flag), unreachable, shed, or broken;
    - the violations, reported verbatim up to 8, then summarised;
    - the wall-clock service-latency samples.

    Two scenarios are built in:

    - {!slo}, the corpus SLO soak ([ftr serve --slo], artifact
      [ftr-slo/1]): per corpus construction, a baseline batch, an
      optional gray wave, then each witness as a wave — fail its nodes
      and links, query the alive pairs, recover, query again. While a
      proven [(d, f)] claim covers the wave's fault count, every query
      must be delivered within [d] routes, undegraded (a miss is a
      dropped in-budget query). At the last wave's deepest fault state
      the engine is rebuilt from the journal and must land on a
      byte-identical digest. The p99 gate applies to the worst
      construction and is not itself a violation.
    - {!chaos}, the five-beat chaos run ([ftr chaos], artifact
      [ftr-chaos/1]): a Zipf baseline on the healthy network; a gray
      wave that slows every link of a random BFS ball (all delivered,
      and the digest restored); a correlated regional outage of
      another ball (nothing shed, delivery above [min_delivery], and a
      journal replay at the deepest state); a flash crowd of [burst]
      hub-bound queries submitted before one pump (the excess must be
      shed, the rest delivered); convergence to the initial digest;
      and the p99 gate, recorded as a violation. Its artifact holds
      no wall-clock value, so it is byte-identical across [--jobs].

    With [certify], a claim is first re-proven exhaustively
    ({!Ftr_core.Tolerance.certify}, parallel over [jobs]), so
    "proven" means proven by this run. *)

open Ftr_core

type config = {
  queries : int;  (** route queries per query batch *)
  slo_p99_ms : float;  (** wall-clock p99 service-latency gate *)
  seed : int;  (** workload RNG seed *)
  jobs : int option;  (** parallelism for the certify pre-pass *)
  certify : bool;  (** re-prove the claim in force before the beats *)
  journal_dir : string;  (** existing directory for the fault journals *)
}

type chaos = {
  burst : int;  (** flash-crowd size; exceed [max_queue] to force sheds *)
  max_queue : int;  (** admission queue budget *)
  deadline_ticks : float;
      (** admission deadline in virtual ticks; [<= 0.] disables *)
  gray_factor : float;  (** latency factor for the gray wave; [>= 1.] *)
  radius : int;  (** BFS-ball radius for the gray and regional waves *)
  zipf_s : float;  (** Zipf exponent for pair popularity; [0.] = uniform *)
  min_delivery : float;
      (** delivery-rate floor for the regional outage, in [0, 1] *)
}
(** The settings only the chaos scenario has. *)

type counts = {
  requests : int;  (** route queries answered (or broken) *)
  delivered : int;  (** answered ok, degraded included *)
  degraded : int;
  unreachable : int;
  shed : int;
  dropped : int;
      (** in-budget queries shed, failed, degraded or over the bound
          (the SLO soak's promise; always 0 in chaos) *)
}

type phase = {
  name : string;
  counts : counts;  (** the queries since the previous phase *)
  digest : string;  (** engine fault digest when the phase was recorded *)
}

type run = {
  label : string;
  phases : phase list;
      (** chaos: baseline, gray, regional, crowd; the SLO soak: one per
          corpus wave, the first also holding the baseline and gray
          queries *)
  total : counts;  (** every query of the run *)
  virtual_ticks : int;
  journal_digest_ok : bool;  (** the kill/restart replay matched *)
  digest_converged : bool;  (** the last convergence check held *)
  certified : (int * int) option;  (** re-proven [(bound, f)] *)
  p50_ms : float option;  (** wall clock *)
  p99_ms : float option;
  p999_ms : float option;
  violations : string list;
  infra : string option;  (** set when the run could not start *)
}
(** One scenario against one construction. *)

type slo_report = {
  run : run;
  in_budget_waves : int;  (** waves whose fault count a claim covers *)
}

type slo_outcome = {
  reports : slo_report list;
  total_queries : int;
  p50_ms : float option;  (** worst per-construction p50 *)
  p99_ms : float option;  (** worst per-construction p99; the SLO gate *)
  p999_ms : float option;
  slo_breached : bool;
  dropped_in_budget : int;
  exit : Exit_code.t;
}

val slo :
  ?gray_factor:float ->
  build:
    (graph:string ->
    strategy:string ->
    seed:int ->
    (Construction.t, string) result) ->
  entries:Attack.Corpus.entry list ->
  config ->
  slo_outcome
(** The corpus SLO soak. Groups [entries] by (graph, strategy, seed),
    in sorted order, and runs one soak per group; [build] maps a
    corpus entry's provenance back to its construction. A build
    failure, a stale entry ([n] mismatch) or a journal that cannot be
    created makes that report [infra] and the outcome
    {!Exit_code.Infra}; a violation or a p99 over the gate makes it
    {!Exit_code.Breach}. With [gray_factor], a gray wave follows each
    baseline: the first two links degrade to that factor, the
    fault-free contract must still hold, and restoring them must
    return the digest to its initial bytes. *)

val slo_json : ?gray_factor:float -> config -> slo_outcome -> Sjson.t
(** The [ftr-slo/1] artifact: config echo, per-construction reports,
    the worst percentiles and the verdict. *)

type chaos_outcome = { run : run; slo_breached : bool; exit : Exit_code.t }

val chaos : ?label:string -> Construction.t -> config -> chaos -> chaos_outcome
(** The chaos scenario. [label] names the journal file inside
    [journal_dir] (default ["chaos"]). {!Exit_code.Breach} on any
    violation, {!Exit_code.Infra} when the run could not start (fewer
    than 3 nodes, or no journal). *)

val delivery_rate : run -> float
(** Delivered over all queries; [0.] for a run that answered none. *)

val chaos_json : config -> chaos -> chaos_outcome -> Sjson.t
(** The [ftr-chaos/1] artifact. Deterministic: byte-identical across
    [--jobs] for a fixed construction, configuration and seed. *)
