(* What the ftr subcommands and experiments.exe share: the common
   flags, the numeric-flag helper, the build helper, output files, the
   witness-corpus loader and the exit-code docs. One file per
   subcommand (cmd_*.ml) holds the rest; ftr.ml only groups them. *)

open Cmdliner
open Ftr_graph
open Ftr_core

let dist_cell = Format.asprintf "%a" Metrics.pp_distance
let ms_cell = function Some ms -> Printf.sprintf "%.3fms" ms | None -> "-"

(* ---------------- numeric flags ---------------- *)

(* Integers are strict decimals, as in every text format the tools
   read: [0x1], [1_0] and [+2] are rejected. *)
let int =
  Arg.conv' ~docv:"N"
    ( (fun s ->
        match Decimal.parse ~signed:true s with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "%S is not a decimal integer" s)),
      Format.pp_print_int )

(* What a flag's value must be, and the test for it. *)
type 'a range = string * ('a -> bool)

let positive = ("positive", fun n -> n > 0)
let non_negative = ("non-negative", fun n -> n >= 0)
let positive_float = ("finite and positive", fun x -> Float.is_finite x && x > 0.0)
let non_negative_float = ("finite and non-negative", fun x -> Float.is_finite x && x >= 0.0)

let finite_at_least lo =
  (Printf.sprintf "finite and >= %g" lo, fun x -> Float.is_finite x && x >= lo)

(* A value out of range fails the term, not the converter, so the
   message names the flag; {!main} makes it a usage error (exit 2),
   like a value that does not parse. *)
let in_range names cv ((what, ok) : _ range) v =
  let name = match names with name :: _ -> name | [] -> "" in
  if ok v then Ok v
  else
    Error
      (Format.asprintf "--%s must be %s (got %a)" name what (Arg.conv_printer cv) v)

let to_ret = function Ok v -> `Ok v | Error msg -> `Error (false, msg)

let flag ?(range = ("", fun _ -> true)) cv default ~names ~docv ~doc =
  let arg = Arg.(value & opt cv default & info names ~docv ~doc) in
  Term.(ret (const (fun v -> to_ret (in_range names cv range v)) $ arg))

let flag_opt ~range cv ~names ~docv ~doc =
  let arg = Arg.(value & opt (some cv) None & info names ~docv ~doc) in
  let check = function
    | None -> Ok None
    | Some v -> Result.map Option.some (in_range names cv range v)
  in
  Term.(ret (const (fun v -> to_ret (check v)) $ arg))

(* ---------------- shared flags ---------------- *)

let graph_conv = Arg.conv' Ftr_analysis.Graph_spec.conv

let graph =
  Arg.(
    required
    & pos 0 (some graph_conv) None
    & info [] ~docv:"GRAPH"
        ~doc:
          "Graph spec, e.g. torus:5x5, hypercube:4, ccc:3, cycle:12, petersen, \
           gnp:64:0.1:7, regular:24:4:7.")

(* [flag] paired with the graph, for a range that depends on it:
   [check g v] names what is wrong. *)
let with_graph check flag =
  let pair g v = match check g v with None -> `Ok (g, v) | Some msg -> `Error (false, msg) in
  Term.(ret (const pair $ graph $ flag))

let seed = flag int 0xBEEF ~names:[ "seed" ] ~docv:"N" ~doc:"PRNG seed."

let strategy =
  Arg.(
    value
    & opt (enum Builder.requests) Builder.Auto
    & info [ "strategy"; "s" ] ~docv:"STRATEGY"
        ~doc:("One of " ^ String.concat ", " (List.map fst Builder.requests) ^ "."))

let faults =
  flag_opt ~range:non_negative int ~names:[ "faults"; "f" ] ~docv:"F"
    ~doc:
      "Fault budget. Default: each claim's own f for $(b,tolerate), the \
       largest claimed f (at least 1) for $(b,attack), the strongest claim's \
       f for $(b,compact), and 1 for $(b,check)."

let jobs =
  flag_opt ~range:positive int ~names:[ "jobs"; "j" ] ~docv:"N"
    ~doc:
      "Worker domains for the evaluation engine (default: the number of \
       recommended domains). Verdicts are identical for every value; only \
       the wall-clock changes."

let universe =
  Arg.(
    value
    & opt
        (enum
           [
             ("nodes", Surviving.Nodes);
             ("links", Surviving.Links);
             ("mixed", Surviving.Mixed);
           ])
        Surviving.Nodes
    & info [ "universe" ] ~docv:"U"
        ~doc:
          "Fault universe: $(b,nodes) (default), $(b,links) (link faults \
           only), or $(b,mixed) (node and link faults drawn from one \
           budget).")

let engine =
  let engine_conv =
    Arg.enum [ ("sliced", Tolerance.Sliced); ("scalar", Tolerance.Scalar) ]
  in
  Arg.(
    value
    & opt (some engine_conv) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Evaluation engine for exact-diameter sweeps: $(b,sliced) (default; \
           packs up to 63 fault sets as bit lanes of one word-parallel BFS, \
           for graphs of any size) or $(b,scalar) (one BFS per fault set — the \
           reference path the property tests compare against). Verdicts are \
           identical either way.")

(* ---------------- output files ---------------- *)

module Output = Ftr_obs.Output

(* A failed [Output.write_file] has printed [cannot write PATH: ...];
   the command then exits [write_failed], the infra code 3. *)
let write_failed = Ftr_serve.Exit_code.(to_int Infra)
let write_exit = Cmd.Exit.info write_failed ~doc:"an output file could not be written"

(* Writes [contents ()] to [path] if the flag was given; [true] unless
   that write failed. [announce] prints the [saved PATH] line. *)
let write_opt ?(announce = false) path contents =
  match path with
  | None -> true
  | Some path ->
      let ok = Output.write_file path (contents ()) in
      if ok && announce then Printf.printf "saved               %s\n" path;
      ok

(* Cmdliner's default exit codes, with its command-line error (124)
   replaced by the usage code {!main} exits with. *)
let usage_error = 2

let exits =
  List.map
    (fun e ->
      if Cmd.Exit.info_code e = Cmd.Exit.cli_error then
        Cmd.Exit.info usage_error ~doc:"invalid flag values (usage error)"
      else e)
    Cmd.Exit.defaults

(* Evaluates [cmd] and exits with its code: the subcommand's own or
   Cmdliner's, except that a flag that does not parse (say [-f 0x1],
   Cmdliner's 124) and a value out of range (a term error) are both
   usage errors, exit 2. *)
let main cmd =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> usage_error
    | Error `Exn -> Cmd.Exit.internal_error)
[@@lint.allow
  "L8: this is Cmd.eval' with Cmdliner's parse error mapped to the usage \
   code; the code is the subcommand's own, as under Cmd.eval'"]

(* The soak-style gates (ftr soak, ftr serve --slo, ftr chaos, ftr
   query) share a documented exit-code contract so CI can tell a
   broken promise from a broken invocation from a broken
   environment. *)
let soak_exits =
  [
    Cmd.Exit.info 0 ~doc:"every check passed";
    Cmd.Exit.info 1
      ~doc:
        "a promise was breached: dead letters or dropped/degraded queries \
         within a proven (d, f) budget, a latency SLO miss, or a journal \
         replay divergence";
    Cmd.Exit.info usage_error ~doc:"invalid flag values (usage error)";
    Cmd.Exit.info 3
      ~doc:
        "environment or input failure: unreadable or unparseable corpus, a \
         construction that no longer builds, socket setup failure, an output \
         file that cannot be written";
  ]

(* ---------------- observability ---------------- *)

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write engine/attack/sim metrics (counters, gauges, span timings) as \
           JSON to $(docv) on exit. Counter values are a function of the \
           requested work alone: identical for every $(b,--jobs) value. If \
           $(docv) cannot be written, the command exits 3.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Print a timing line to stderr as each instrumented span completes.")

let enable_obs metrics trace =
  if metrics <> None || trace then begin
    Ftr_obs.Obs.set_enabled true;
    Ftr_obs.Obs.set_trace trace
  end

(* Instrumentation is off unless asked for; the metrics file is
   written even when the run fails, so a crashing invocation still
   leaves its partial counters behind for diagnosis. A metrics file
   that cannot be written turns the exit code into [write_failed]. *)
let with_obs metrics trace f =
  enable_obs metrics trace;
  let finish () = write_opt metrics Ftr_obs.Obs.to_json in
  match f () with
  | code -> if finish () then code else write_failed
  | exception e ->
      ignore (finish ());
      raise e

(* ---------------- constructions ---------------- *)

(* [Builder.build] for a subcommand: a construction that does not
   apply prints [cannot build: why] and gives [Error code]. *)
let build ?(code = 1) g strategy seed =
  Result.map_error
    (fun msg ->
      Printf.eprintf "cannot build: %s\n" msg;
      code)
    (Builder.build g strategy ~seed)

(* Corpus entries carry CLI provenance (graph spec, strategy name,
   seed); this rebuilds it as `ftr route` would. *)
let build_provenance ~graph ~strategy ~seed =
  match Ftr_analysis.Graph_spec.parse graph with
  | Error e -> Error ("bad graph spec: " ^ e)
  | Ok g -> Builder.build_named g strategy ~seed

(* One construction (and one compiled table) per distinct provenance
   triple, shared across its witnesses. *)
let construction_cache () =
  let cache = Hashtbl.create 8 in
  fun ((graph, strategy, seed) as key) ->
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
        let r =
          Result.map
            (fun c -> (c, Surviving.compile c.Construction.routing))
            (build_provenance ~graph ~strategy ~seed)
        in
        Hashtbl.add cache key r;
        r

(* The entries of every corpus file under [dir], for the commands that
   treat a broken corpus as a broken input: [Error 0] (nothing to do)
   when there is no corpus file, [Error 3] after printing each parse
   error. `attack --replay` counts a parse error as a failed witness
   instead. *)
let load_corpus dir =
  let files = Attack.Corpus.load_dir dir in
  let parse_errors =
    List.filter_map
      (fun (path, r) -> match r with Error e -> Some (path, e) | Ok _ -> None)
      files
  in
  if files = [] then begin
    Printf.printf "no corpus files under %s\n" dir;
    Error 0
  end
  else if parse_errors <> [] then begin
    List.iter
      (fun (path, e) -> Printf.eprintf "%s: PARSE ERROR: %s\n" path e)
      parse_errors;
    Error 3
  end
  else Ok (List.concat_map (fun (_, r) -> Result.get_ok r) files)
