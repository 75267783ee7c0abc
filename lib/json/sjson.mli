(** The repo's one JSON codec: values, a single-line printer and a
    total parser.

    Every JSON document the repo reads or writes goes through it: the
    serve wire protocol ([Ftr_serve.Wire], newline-delimited, so the
    printer never emits a newline and the parser reads exactly one
    value per line), the witness corpus ([Ftr_core.Attack.Corpus]),
    the ftr-metrics/1 report ([Ftr_obs.Obs]) and the ftr-lint/2 report
    ([Ftr_lint.Diagnostic]). It has no dependencies, so every layer,
    [core] included, can use it.

    Both directions sit on the daemon's per-request path, so both are
    written for it: the parser is one pass over a position index, and
    the printer writes integers digit by digit and copies a string
    whole unless a byte of it needs escaping. Their output is pinned
    byte for byte: test/golden/ holds the replies to a fixed request
    stream, and the tests compare the parser and the float printer
    with the previous implementation kept as an oracle. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val write : spaced:bool -> Buffer.t -> t -> unit
(** [write ~spaced buf v] appends [v] to [buf] on one line. Array
    items and object fields are separated by [","] and keys followed
    by [":"], each with a space after it when [spaced]. The wire is
    compact ({!to_string}); the corpus entries, the metrics counters
    and the lint diagnostics are spaced. Numbers, strings and key
    order are as in {!to_string}. *)

val to_string : t -> string
(** [write ~spaced:false] to a fresh buffer: one line, no
    newline. Object keys keep their given order (the serve responses
    are byte-stable for a given request sequence).
    Non-finite floats serialise as [null] — JSON has no spelling for
    them and a NaN must never poison a metrics consumer. A finite
    float prints as the shorter of [%.12g] and [%.17g] that reads back
    to the same float. A float of at most six decimals between
    [10^-4] and [10^6] in magnitude (positive zero too) is written
    straight from its integer count of millionths, with the bytes
    [%.12g] would give; the serve layer's [service_ms] values, whole
    nanoseconds in ms, are all of that form. *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing
    garbage is an error). Never raises. A number with ['.'], ['e'] or
    ['E'] is a [Float]; any other is an [Int] under the strict
    decimal rule of [Ftr_core.Decimal.parse ~signed:true] (digits,
    one optional leading ['-'], within [int] range). An [Error]
    names what was expected and the byte offset where the scan
    stopped, e.g. ["expected ':' at offset 7"]. *)

(** {1 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing field or non-object. *)

val to_int : t -> int option

val to_float : t -> float option
(** Accepts [Int] too (JSON does not distinguish). *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

val int_pair : t -> (int * int) option
(** A two-element integer array, e.g. a link's endpoints. *)
