(** Typedtree acquisition: prefer the [.cmt] files dune already wrote
    (verified against the source digest, so stale trees are refused),
    fall back to in-process typechecking for files outside the build
    graph (lint test fixtures, which must be self-contained). *)

type loaded = {
  structure : Typedtree.structure;
  resolve : Env.t -> Env.t;
      (** reconstructs usable environments from the summarised ones
          stored in [.cmt] files; the identity for freshly typed
          trees *)
  from_cmt : bool;
}

type error =
  | Parse of string
  | Typing of string

val default_cmt_root : unit -> string option
(** ["_build/default"] when it exists (the usual dune layout), else
    ["_build"], else [None]. *)

val load :
  cmt_root:string option -> file:string -> source:string ->
  (loaded, error) result
(** Find [file]'s typedtree under [cmt_root] (matched by
    [cmt_sourcefile] and confirmed by [cmt_source_digest]); when no
    current tree exists, parse and typecheck [source] against a
    stdlib-only environment. When that fallback fails to type a file
    that has no tree (or only a stale one) under an existing
    [cmt_root], the [Typing] message names [dune build @check], the
    build that writes trees for executables' modules too. *)
