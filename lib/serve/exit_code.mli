(** Documented process exit codes shared by [ftr serve --slo],
    [ftr chaos] and [ftr soak], so CI can distinguish "the routing broke its promise"
    from "you invoked the tool wrong" from "the environment is
    broken".

    - [Clean] (0): every check passed.
    - [Breach] (1): an SLO or correctness promise was violated — a
      dropped in-budget query, a latency percentile over threshold, a
      dead-letter within budget, a journal replay divergence.
    - [Usage] (2): the invocation itself is invalid (bad flag values,
      negative durations). Matches the cmdliner convention of
      reserving small codes for caller error.
    - [Infra] (3): the inputs or environment are broken — unreadable
      or unparseable corpus, construction build failure, socket setup
      failure. Distinct from [Breach] so a corrupted artifact doesn't
      masquerade as a routing regression. *)

type t = Clean | Breach | Usage | Infra

val to_int : t -> int

val describe : t -> string
(** Short human label, e.g. ["slo-breach"]. *)

val worst : t -> t -> t
(** Combine two outcomes, keeping the more severe diagnosis.
    Severity order: [Infra] > [Usage] > [Breach] > [Clean] (an infra
    failure means breach verdicts are unreliable, so it wins). *)
