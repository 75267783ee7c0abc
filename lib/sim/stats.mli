(** Summary statistics for simulation measurements. *)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val percentile : float array -> float -> float
(** [percentile sorted p] is the nearest-rank [p]-th percentile of a
    sorted, non-empty array: element [ceil (p/100 * n)] (1-based),
    clamped into range. Exposed for oracle testing. *)

val summarize : float list -> summary option
(** [None] when no finite sample remains. Percentiles by the
    nearest-rank method. Non-finite samples (NaN, infinities) are
    dropped before sorting — they would otherwise poison every field —
    and tallied on the ["stats.non_finite_dropped"] counter. *)

val of_ints : int list -> summary option

val percentiles_of : ?len:int -> float array -> ps:float list -> float option list
(** Nearest-rank percentiles of the finite samples among the first
    [len] (default: all) of the array, one per element of [ps], each
    by a selection on one copy of them; [None] when no finite sample
    remains. The values are those {!percentile} reads from the sorted
    finite samples.
    Non-finite samples are dropped as in {!summarize} and tallied once
    per element of [ps]. The serve layer's latency SLOs read p50, p99
    and p999 through this — [summary] stops at p99, and tail SLOs need
    the deeper quantile without widening that record. The daemon's
    [stats] op reads them from a window of up to 65,536 samples. *)

val histogram : buckets:int -> float list -> (float * float * int) list
(** Equal-width buckets [(lo, hi, count)] spanning [min, max]; empty
    input gives []. Non-finite samples are ignored. *)

val pp_summary : Format.formatter -> summary -> unit

(** {1 Delivery reports}

    The soak harness's one-stop accounting over a batch of messages,
    including the churn-hardened protocol's dead-letter outcome. *)

type delivery = {
  sent : int;
  delivered : int;
  undeliverable : int;
  dead_letters : int;  (** re-plan budget or deadline exhausted *)
  pending : int;  (** still in flight when the simulation ended *)
  replans : int;  (** total re-plans across all messages *)
  latency : summary option;  (** over delivered messages *)
  replans_per_message : summary option;  (** over all messages *)
}

val delivery_report : Message.t list -> delivery

val delivery_rate : delivery -> float
(** [delivered / sent]; [1.0] for an empty batch. *)

val pp_delivery : Format.formatter -> delivery -> unit
