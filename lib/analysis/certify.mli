(** Static certification of routing artifacts (DESIGN.md section 10).

    [ftr lint-artifacts] and the tests use this module to certify the
    data the repo ships — witness-corpus JSON files and ftr-routing
    tables — without evaluating a single surviving diameter:

    - corpus entries are well-formed (version and fields via
      {!Ftr_core.Attack.Corpus}, graph spec builds, recorded [n]
      matches, node faults in-range / strictly sorted / within the
      searched budget, link faults normalised real edges);
    - every construction referenced by an entry is rebuilt once per
      distinct (graph, strategy, seed) triple by
      {!Ftr_core.Builder.build_named} and certified: the
      routing validates, separator constructions keep Lemma 1's
      vertex-disjoint tree routings, and all lemma-level properties
      hold fault-free;
    - routing files parse against their graph (a non-edge step is
      rejected with its line number) and validate. *)

open Ftr_graph
open Ftr_core

type problem = { artifact : string; where : string option; message : string }
(** One certification failure: the artifact (a file path or a
    construction label), an optional position ("entry 3"), and what is
    wrong. *)

type outcome = {
  files : int;  (** corpus files examined *)
  entries : int;  (** corpus entries checked *)
  constructions : int;  (** distinct constructions rebuilt and certified *)
  problems : problem list;
}

val pp_problem : Format.formatter -> problem -> unit
(** ["artifact: where: message"] — one line per problem. *)

val certify_construction : artifact:string -> Construction.t -> problem list
(** Certify a built construction: {!Ftr_core.Routing.validate}, the
    concentrator in range, vertex-disjoint [M]-avoiding tree routings
    for [Separator] structures (at least [max claimed faults + 1] per
    outside node), and every {!Ftr_core.Properties} report holding
    under the empty fault set. *)

val certify_corpus_files :
  (string * (Attack.Corpus.entry list, string) result) list -> outcome
(** Certify already-loaded corpus files, [(path, parse result)] as
    {!Ftr_core.Attack.Corpus.load_dir} returns them. *)

val certify_corpus_paths : string list -> outcome
(** Load and certify corpus files and/or directories of them. *)

val certify_routing_header : string -> (string, problem list) result
(** Graph-free certification of an ftr-routing file's header line.
    Versions 1 and 2 are recognised; for the version-2 compact header
    ([ftr-routing 2 <n> <kind> compact <spec>]) the spec must parse,
    its embedded vertex count must equal the header's [n], the kind
    tag must be known, and no non-blank rows may follow. Problems
    carry [where = Some "line 1"] so {!pp_problem} prints file:line.
    On success returns a short description of the header (e.g.
    ["v2 compact, n=16, bi"]). *)

val certify_routing_file : graph:Graph.t -> string -> int * problem list
(** Certify one ftr-routing file against its graph. Returns the number
    of routes certified and any problems; parse failures carry the
    offending line number in the message. *)
