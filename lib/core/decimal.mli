(** Strict decimal integers, for every text format the tools read:
    graph specs, route files and compact specs. *)

val parse : ?signed:bool -> string -> int option
(** Digits only, plus one leading ['-'] when [signed] (default
    [false]). Hex, octal and binary prefixes, underscores, a leading
    ['+'] and out-of-range values are all rejected. *)

val parse_list : ?signed:bool -> char -> string -> int list option
(** Every [sep]-separated part must pass {!parse}: one bad part rejects
    the whole list rather than being dropped. *)
