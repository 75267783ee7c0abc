(** The per-experiment index of DESIGN.md, executable.

    Each experiment id (E1-E20, F1-F3, S1-S2) regenerates one of the
    paper's quantitative claims (there are no tables in the paper; the
    theorems play that role) or one of its three figures. Running an
    experiment returns a {!Table.t}; figure experiments additionally
    write DOT files when the context carries an output directory. *)

type context = {
  seed : int;  (** every experiment derives its own PRNG from this *)
  quick : bool;  (** smaller testbeds and sampling budgets *)
  out_dir : string option;  (** where figure DOT files are written *)
  jobs : int;  (** worker domains for the evaluation engine *)
}

val default_context :
  ?seed:int -> ?quick:bool -> ?out_dir:string -> ?jobs:int -> unit -> context
(** [jobs] defaults to [Domain.recommended_domain_count ()]; every
    verdict is identical for any value of it (the engine merges
    deterministically), only the wall-clock changes. *)

val ids : string list
(** In presentation order. *)

val describe : string -> string
(** One-line description of an experiment id; raises a diagnostic
    [Invalid_argument] (naming the known ids) on unknown ids. *)

exception Write_failed of string
(** A file (its path) that could not be written; [cannot write PATH:
    ...] has already gone to stderr ({!Ftr_obs.Output.write_file}). *)

val ensure_dir : string -> unit
(** Create the directory unless it exists; a failure is left for the
    first write inside it to report. *)

val run : ?jobs:int -> context -> string -> Table.t
(** Raises a diagnostic [Invalid_argument] on unknown ids, and
    {!Write_failed} when a figure experiment cannot write its DOT
    file. [jobs] overrides the context's worker-domain count. *)

val all : ?jobs:int -> context -> (string * Table.t) list
