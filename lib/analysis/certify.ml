(* Static certification of routing artifacts (DESIGN.md section 10).

   The lint (lib/lint) polices the code; this module polices the
   *data* the code ships and replays: witness-corpus JSON files and
   ftr-routing tables. Everything here is a static check — no
   diameter is ever evaluated — so certification is cheap enough to
   gate CI on every push:

   - corpus entries: the version and fields parse (delegated to
     {!Attack.Corpus}), the graph spec builds, the recorded vertex
     count matches, node faults are in-range / strictly sorted /
     within the searched budget, link faults are normalised real
     edges of the graph;
   - constructions referenced by entries are rebuilt once per
     distinct (graph, strategy, seed) triple and certified: the
     routing table validates (endpoints match keys, every route is a
     simple path over existing edges, bidirectional tables are
     symmetric), separator constructions keep the vertex-disjoint
     tree routings Lemma 1 needs, and every lemma-level property
     holds fault-free;
   - routing files: the ftr-routing format parses against the given
     graph (a non-edge step is rejected with its line number) and
     the loaded table validates. *)

open Ftr_graph
open Ftr_core

type problem = { artifact : string; where : string option; message : string }

type outcome = {
  files : int;
  entries : int;
  constructions : int;
  problems : problem list;
}

let problem ?where artifact fmt =
  Printf.ksprintf (fun message -> { artifact; where; message }) fmt

let pp_problem ppf p =
  match p.where with
  | None -> Fmt.pf ppf "%s: %s" p.artifact p.message
  | Some w -> Fmt.pf ppf "%s: %s: %s" p.artifact w p.message

(* ------------------------------------------------------------------ *)
(* Constructions                                                      *)
(* ------------------------------------------------------------------ *)

(* Lemma 1's shape, checked statically: each node outside the
   separator must reach at least [k] members by routes whose interiors
   avoid the separator and are pairwise vertex-disjoint, so no [k-1]
   faults can sever it from [M]. Unlike {!Tree_routing.verify} this
   accepts the direct-edge routes the kernel also installs: their
   interiors are empty, so they cannot break disjointness. *)
let separator_problems ~artifact g m routing ~k =
  let n = Graph.n g in
  let in_m = Bitset.of_list n m in
  let probs = ref [] in
  let add p = probs := p :: !probs in
  Graph.iter_vertices
    (fun x ->
      if not (Bitset.mem in_m x) then begin
        let targets = ref 0 in
        let interiors = Bitset.create n in
        List.iter
          (fun tgt ->
            match Routing.find routing x tgt with
            | None -> ()
            | Some p ->
                incr targets;
                List.iter
                  (fun v ->
                    if Bitset.mem in_m v then
                      add
                        (problem artifact
                           "route %d->%d passes through separator member %d" x
                           tgt v)
                    else if Bitset.mem interiors v then
                      add
                        (problem artifact
                           "tree routings from %d are not vertex-disjoint: \
                            interior node %d is shared"
                           x v)
                    else Bitset.add interiors v)
                  (Path.interior p))
          m;
        if !targets < k then
          add
            (problem artifact
               "node %d routes to only %d of the %d separator members Lemma 1 \
                needs"
               x !targets k)
      end)
    g;
  List.rev !probs

let certify_construction ~artifact (c : Construction.t) =
  let routing = c.Construction.routing in
  let g = Routing.graph routing in
  let n = Graph.n g in
  let probs = ref [] in
  let add p = probs := p :: !probs in
  (match Routing.validate routing with
  | Ok () -> ()
  | Error msg -> add (problem artifact "routing table invalid: %s" msg));
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        add (problem artifact "concentrator member %d out of range [0,%d)" v n))
    c.Construction.concentrator;
  if c.Construction.claims <> [] then begin
    (match c.Construction.structure with
    | Construction.Separator m ->
        let k = Construction.fault_budget c + 1 in
        List.iter add (separator_problems ~artifact g m routing ~k)
    | Construction.Neighborhood _ | Construction.Tri_rings _
    | Construction.Two_poles _ | Construction.Unstructured ->
        ());
    (* The paper's lemma-level properties must hold before any fault
       is injected; a construction bug that survives this is one the
       dynamic checks (tolerate/attack) are for. *)
    List.iter
      (fun (r : Properties.report) ->
        if not r.Properties.holds then
          add
            (problem artifact "property %s fails fault-free%s"
               r.Properties.property
               (match r.Properties.counterexample with
               | None -> ""
               | Some ce -> ": " ^ ce)))
      (Properties.check c ~faults:(Bitset.create n))
  end;
  List.rev !probs

(* ------------------------------------------------------------------ *)
(* Corpus entries                                                     *)
(* ------------------------------------------------------------------ *)

let rec strictly_sorted = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> a < b && strictly_sorted rest

let entry_problems ~artifact ~where g (e : Attack.Corpus.entry) =
  let n = Graph.n g in
  let probs = ref [] in
  let add fmt = Printf.ksprintf (fun message -> probs := { artifact; where = Some where; message } :: !probs) fmt in
  if e.Attack.Corpus.n <> n then
    add "records n=%d but %s has %d vertices" e.Attack.Corpus.n
      e.Attack.Corpus.graph n;
  if e.Attack.Corpus.f < 0 then add "negative fault budget f=%d" e.Attack.Corpus.f;
  List.iter
    (fun v ->
      if v < 0 || v >= n then add "node fault %d out of range [0,%d)" v n)
    e.Attack.Corpus.faults;
  if not (strictly_sorted e.Attack.Corpus.faults) then
    add "node faults are not sorted and distinct";
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        add "link fault (%d,%d) out of range [0,%d)" u v n
      else if u >= v then add "link fault (%d,%d) is not normalised (min,max)" u v
      else if not (Graph.mem_edge g u v) then
        add "link fault (%d,%d) is not an edge of %s" u v e.Attack.Corpus.graph)
    e.Attack.Corpus.edges;
  let size =
    List.length e.Attack.Corpus.faults + List.length e.Attack.Corpus.edges
  in
  if size > e.Attack.Corpus.f then
    add "witness has %d faults, more than the searched budget f=%d" size
      e.Attack.Corpus.f;
  (match e.Attack.Corpus.diameter with
  | Metrics.Finite d when d < 0 -> add "negative diameter %d" d
  | Metrics.Finite _ | Metrics.Infinite -> ());
  List.rev !probs

let certify_corpus_files files =
  let cache : (string * string * int, (Graph.t, string) result) Hashtbl.t =
    Hashtbl.create 8
  in
  let constructions = ref 0 in
  let entries = ref 0 in
  let problems = ref [] in
  let add ps = problems := List.rev_append ps !problems in
  (* Rebuild and certify each distinct construction once, no matter
     how many witnesses reference it. *)
  let graph_for ~artifact ~where (e : Attack.Corpus.entry) =
    let key = (e.Attack.Corpus.graph, e.Attack.Corpus.strategy, e.Attack.Corpus.seed) in
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
        let label =
          Printf.sprintf "construction %s/%s seed=%d" e.Attack.Corpus.graph
            e.Attack.Corpus.strategy e.Attack.Corpus.seed
        in
        let r =
          match Graph_spec.parse e.Attack.Corpus.graph with
          | Error msg ->
              Error (Printf.sprintf "bad graph spec %S: %s" e.Attack.Corpus.graph msg)
          | Ok g -> (
              match
                Builder.build_named g e.Attack.Corpus.strategy
                  ~seed:e.Attack.Corpus.seed
              with
              | Error msg -> Error (Printf.sprintf "%s: %s" label msg)
              | Ok c ->
                  incr constructions;
                  add (certify_construction ~artifact:label c);
                  Ok g)
        in
        Hashtbl.add cache key r;
        (match r with
        | Error msg -> add [ { artifact; where = Some where; message = msg } ]
        | Ok _ -> ());
        r
  in
  List.iter
    (fun (path, parsed) ->
      match parsed with
      | Error msg -> add [ { artifact = path; where = None; message = msg } ]
      | Ok es ->
          List.iteri
            (fun i e ->
              incr entries;
              let where = Printf.sprintf "entry %d" (i + 1) in
              match graph_for ~artifact:path ~where e with
              | Error _ -> ()
              | Ok g -> add (entry_problems ~artifact:path ~where g e))
            es)
    files;
  {
    files = List.length files;
    entries = !entries;
    constructions = !constructions;
    problems = List.rev !problems;
  }

let certify_corpus_paths paths =
  let loaded =
    List.concat_map
      (fun path ->
        if Sys.file_exists path && Sys.is_directory path then
          match Attack.Corpus.load_dir path with
          | [] -> [ (path, Error "no corpus files (*.json) found") ]
          | files -> files
        else [ (path, Attack.Corpus.load_file path) ])
      paths
  in
  certify_corpus_files loaded

(* ------------------------------------------------------------------ *)
(* Routing files                                                      *)
(* ------------------------------------------------------------------ *)

(* Header-only certification: everything line 1 promises that can be
   checked without the graph. For version-2 compact tables that is
   almost everything — the spec must parse, its embedded vertex count
   must agree with the header's [n], and nothing may follow the
   header. Per-edge validation still needs the graph and stays in
   [certify_routing_file]. *)
let certify_routing_header path =
  let fail ?where fmt =
    Printf.ksprintf (fun message -> Error [ { artifact = path; where; message } ]) fmt
  in
  let where = Some "line 1" in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> fail "%s" msg
  | text -> (
      match String.split_on_char '\n' (String.trim text) with
      | [] | [ "" ] -> fail "empty routing file"
      | header :: rest -> (
          let vertex_count n_str k =
            match Decimal.parse ~signed:true n_str with
            | None -> fail ?where "vertex count %S is not an integer" n_str
            | Some n when n < 0 -> fail ?where "negative vertex count %d" n
            | Some n -> k n
          in
          let kind kind_str k =
            match Routing_io.kind_of_tag kind_str with
            | None -> fail ?where "unknown kind %S (expected uni or bi)" kind_str
            | Some _ -> k ()
          in
          match String.split_on_char ' ' header with
          | [ "ftr-routing"; "2"; n_str; kind_str; "compact"; spec ] ->
              vertex_count n_str (fun n ->
                  kind kind_str (fun () ->
                      if List.exists (fun l -> String.trim l <> "") rest then
                        fail ?where
                          "compact routing file must be a single header line"
                      else
                        match Compact.of_spec ~n spec with
                        | Error e -> fail ?where "bad compact spec: %s" e
                        | Ok _ ->
                            Ok (Printf.sprintf "v2 compact, n=%d, %s" n kind_str)))
          | [ "ftr-routing"; "1"; n_str; kind_str ] ->
              vertex_count n_str (fun n ->
                  kind kind_str (fun () ->
                      Ok (Printf.sprintf "v1 rows, n=%d, %s" n kind_str)))
          | "ftr-routing" :: version :: _ ->
              fail ?where "unknown ftr-routing version %S" version
          | _ -> fail ?where "not an ftr-routing header"))

let certify_routing_file ~graph path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> (0, [ { artifact = path; where = None; message = msg } ])
  | text -> (
      match Routing_io.load graph text with
      | Error msg -> (0, [ { artifact = path; where = None; message = msg } ])
      | Ok routing ->
          let probs =
            match Routing.validate routing with
            | Ok () -> []
            | Error msg ->
                [ { artifact = path; where = None; message = "routing table invalid: " ^ msg } ]
          in
          (Routing.route_count routing, probs))
