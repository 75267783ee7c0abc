open Ftr_core
open Ftr_sim
open Ftr_obs

type config = {
  queries : int;
  slo_p99_ms : float;
  seed : int;
  jobs : int option;
  certify : bool;
  journal_dir : string;
  gray_factor : float option;
}

type report = {
  label : string;
  waves : int;
  in_budget_waves : int;
  queries : int;
  degraded : int;
  shed : int;
  dropped_in_budget : int;
  p50_ms : float option;
  p99_ms : float option;
  p999_ms : float option;
  journal_digest_ok : bool;
  certified : (int * int) option;
  violations : string list;
  infra : string option;
}

type outcome = {
  reports : report list;
  total_queries : int;
  p50_ms : float option;
  p99_ms : float option;
  p999_ms : float option;
  slo_breached : bool;
  dropped_in_budget : int;
  exit : Exit_code.t;
}

let c_waves = Obs.counter "serve.soak.waves"
let c_queries = Obs.counter "serve.soak.queries"
let c_violations = Obs.counter "serve.soak.violations"

(* Violations are reported verbatim up to a cap, then summarised — a
   badly broken run should not produce a megabyte of repeats. *)
let max_recorded_violations = 8

type tally = {
  mutable t_queries : int;
  mutable t_degraded : int;
  mutable t_shed : int;
  mutable t_dropped : int;
  mutable t_lats : float list;
  mutable t_violations : string list;  (* newest first *)
  mutable t_violation_count : int;
}

let new_tally () =
  {
    t_queries = 0;
    t_degraded = 0;
    t_shed = 0;
    t_dropped = 0;
    t_lats = [];
    t_violations = [];
    t_violation_count = 0;
  }

let violate tally msg =
  Obs.incr c_violations;
  tally.t_violation_count <- tally.t_violation_count + 1;
  if tally.t_violation_count <= max_recorded_violations then
    tally.t_violations <- msg :: tally.t_violations

let recorded_violations tally =
  let extra = tally.t_violation_count - max_recorded_violations in
  let shown = List.rev tally.t_violations in
  if extra > 0 then shown @ [ Printf.sprintf "(+%d more)" extra ] else shown

let bool_field name json =
  Option.value ~default:false (Option.bind (Sjson.member name json) Sjson.to_bool)

let int_field name json = Option.bind (Sjson.member name json) Sjson.to_int
let float_field name json = Option.bind (Sjson.member name json) Sjson.to_float
let str_field name json = Option.bind (Sjson.member name json) Sjson.to_str

(* Drive one request through admission and return its parsed
   response. The virtual clock ticks once per request. *)
let roundtrip srv vclock req =
  vclock := !vclock +. 1.0;
  let resp = ref None in
  Server.submit srv req (fun s -> resp := Some s);
  Server.pump srv;
  match !resp with
  | None -> Error "request vanished without a response"
  | Some line -> (
      match Sjson.parse line with
      | Ok json -> Ok json
      | Error msg -> Error (Printf.sprintf "unparseable response %S: %s" line msg))

let apply_wave srv vclock tally ~context actions =
  List.iter
    (fun action ->
      match roundtrip srv vclock (Wire.Fault action) with
      | Error msg -> violate tally (Printf.sprintf "%s: %s" context msg)
      | Ok json ->
          if not (bool_field "ok" json) then
            violate tally
              (Printf.sprintf "%s: fault delta rejected: %s" context
                 (Option.value ~default:"?" (str_field "error" json))))
    actions

let run_queries srv vclock tally rng ~context ~alive ~count ~in_budget ~bound =
  let pairs = Workload.query_pairs ~rng ~alive ~count in
  List.iter
    (fun (src, dst) ->
      Obs.incr c_queries;
      tally.t_queries <- tally.t_queries + 1;
      let where = Printf.sprintf "%s %d->%d" context src dst in
      match roundtrip srv vclock (Wire.Route { src; dst }) with
      | Error msg -> violate tally (Printf.sprintf "%s: %s" where msg)
      | Ok json -> (
          (match float_field "service_ms" json with
          | Some ms -> tally.t_lats <- ms :: tally.t_lats
          | None -> ());
          if bool_field "degraded" json then
            tally.t_degraded <- tally.t_degraded + 1;
          if bool_field "shed" json then begin
            tally.t_shed <- tally.t_shed + 1;
            if in_budget then begin
              tally.t_dropped <- tally.t_dropped + 1;
              violate tally (Printf.sprintf "%s: in-budget query shed" where)
            end
          end
          else if not (bool_field "ok" json) then begin
            if in_budget then begin
              tally.t_dropped <- tally.t_dropped + 1;
              violate tally
                (Printf.sprintf "%s: in-budget query failed: %s" where
                   (Option.value ~default:"?" (str_field "error" json)))
            end
          end
          else if in_budget then
            match (bound, int_field "routes" json) with
            | Some b, Some routes when routes <= b && not (bool_field "degraded" json)
              ->
                ()
            | Some b, Some routes ->
                tally.t_dropped <- tally.t_dropped + 1;
                violate tally
                  (Printf.sprintf "%s: %d routes exceeds proven bound %d" where
                     routes b)
            | _, None ->
                tally.t_dropped <- tally.t_dropped + 1;
                violate tally
                  (Printf.sprintf "%s: in-budget reply without a route count"
                     where)
            | None, _ -> ()))
    pairs

let sanitize label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    label

(* The strongest node-only in-budget witness of the group: certify at
   its fault count, against the bound in force there. *)
let certify_target c entries =
  List.fold_left
    (fun acc (e : Attack.Corpus.entry) ->
      if e.edges <> [] then acc
      else
        let k = List.length e.faults in
        match Construction.bound_for c ~f:k with
        | None -> acc
        | Some b -> (
            match acc with
            | Some (_, k') when k' >= k -> acc
            | _ -> Some (b, k)))
    None entries

let infra_report label msg =
  {
    label;
    waves = 0;
    in_budget_waves = 0;
    queries = 0;
    degraded = 0;
    shed = 0;
    dropped_in_budget = 0;
    p50_ms = None;
    p99_ms = None;
    p999_ms = None;
    journal_digest_ok = true;
    certified = None;
    violations = [];
    infra = Some msg;
  }

let run_group ~build cfg ((graph, strategy, seed), entries) =
  let label = Printf.sprintf "%s/%s seed=%d" graph strategy seed in
  match build ~graph ~strategy ~seed with
  | Error msg -> infra_report label (Printf.sprintf "build failed: %s" msg)
  | Ok (c : Construction.t) -> (
      let engine = Engine.create c.Construction.routing in
      let n = Engine.n engine in
      match
        List.find_opt (fun (e : Attack.Corpus.entry) -> e.n <> n) entries
      with
      | Some e ->
          infra_report label
            (Printf.sprintf "stale corpus entry: n=%d but the construction has %d"
               e.n n)
      | None -> (
          let journal_path =
            Filename.concat cfg.journal_dir (sanitize label ^ ".journal")
          in
          (try Sys.remove journal_path with Sys_error _ -> ());
          match Journal.create journal_path with
          | Error msg -> infra_report label ("journal: " ^ msg)
          | Ok journal ->
              let tally = new_tally () in
              let certified =
                match (cfg.certify, certify_target c entries) with
                | false, _ | true, None -> None
                | true, Some (b, k) ->
                    let cert =
                      Tolerance.certify ?jobs:cfg.jobs c.Construction.routing
                        ~f:k ~bound:b
                    in
                    if cert.Tolerance.holds then Some (b, k)
                    else begin
                      violate tally
                        (Printf.sprintf
                           "certify refuted the (%d,%d) claim (counterexample %s)"
                           b k
                           (match cert.Tolerance.counterexample with
                           | Some s ->
                               String.concat ","
                                 (List.map string_of_int s.nodes)
                           | None -> "?"));
                      None
                    end
              in
              let vclock = ref 0.0 in
              let b0 = Construction.bound_for c ~f:0 in
              let srv =
                Server.create
                  ~clock:(fun () -> !vclock)
                  ~journal
                  {
                    max_queue = Int.max 16 cfg.queries;
                    deadline = 0.0;
                    bound = b0;
                  }
                  engine
              in
              let rng = Random.State.make [| cfg.seed |] in
              let all_nodes = List.init n Fun.id in
              run_queries srv vclock tally rng ~context:(label ^ " baseline")
                ~alive:all_nodes ~count:cfg.queries
                ~in_budget:(Option.is_some b0) ~bound:b0;
              (* Gray-failure wave: degrade a couple of fixed links
                 (latency only — no route is cut), demand the full
                 fault-free in-budget contract still holds, restore,
                 and demand the digest returns to its pre-gray
                 bytes. *)
              (match cfg.gray_factor with
              | None -> ()
              | Some factor ->
                  let targets =
                    List.filteri
                      (fun i _ -> i < 2)
                      (Ftr_graph.Graph.edges
                         (Routing.graph c.Construction.routing))
                  in
                  let before_gray = Engine.digest (Server.engine srv) in
                  apply_wave srv vclock tally ~context:(label ^ " gray wave")
                    (List.map
                       (fun (u, v) -> Wire.Degrade_link (u, v, factor))
                       targets);
                  run_queries srv vclock tally rng
                    ~context:(label ^ " gray wave") ~alive:all_nodes
                    ~count:cfg.queries ~in_budget:(Option.is_some b0) ~bound:b0;
                  apply_wave srv vclock tally
                    ~context:(label ^ " gray restore")
                    (List.map (fun (u, v) -> Wire.Restore_link (u, v)) targets);
                  let after_gray = Engine.digest (Server.engine srv) in
                  if after_gray <> before_gray then
                    violate tally
                      (Printf.sprintf
                         "%s gray restore: digest did not converge: %S <> %S"
                         label after_gray before_gray));
              let waves = List.length entries in
              let journal_digest_ok = ref true in
              let in_budget_waves = ref 0 in
              List.iteri
                (fun i (e : Attack.Corpus.entry) ->
                  Obs.incr c_waves;
                  let k = List.length e.faults + List.length e.edges in
                  let b = Construction.bound_for c ~f:k in
                  let in_budget = Option.is_some b in
                  if in_budget then incr in_budget_waves;
                  let context = Printf.sprintf "%s wave %d" label i in
                  let downs =
                    List.map (fun v -> Wire.Fail_node v) e.faults
                    @ List.map (fun (u, v) -> Wire.Fail_link (u, v)) e.edges
                  in
                  Server.set_bound srv b;
                  apply_wave srv vclock tally ~context downs;
                  let alive =
                    List.filter (fun v -> not (List.mem v e.faults)) all_nodes
                  in
                  run_queries srv vclock tally rng ~context ~alive
                    ~count:cfg.queries ~in_budget ~bound:b;
                  (* Kill/restart at the deepest fault state of the
                     last wave: rebuild from the on-disk journal and
                     demand a byte-identical fault digest. *)
                  if i = waves - 1 then begin
                    let before = Engine.digest (Server.engine srv) in
                    match Journal.load journal_path with
                    | Error msg ->
                        journal_digest_ok := false;
                        violate tally (Printf.sprintf "%s: reload: %s" context msg)
                    | Ok events -> (
                        let fresh = Engine.create c.Construction.routing in
                        match Engine.replay fresh events with
                        | Error msg ->
                            journal_digest_ok := false;
                            violate tally
                              (Printf.sprintf "%s: replay: %s" context msg)
                        | Ok _ ->
                            let after = Engine.digest fresh in
                            if after <> before then begin
                              journal_digest_ok := false;
                              violate tally
                                (Printf.sprintf
                                   "%s: journal replay diverged: %S <> %S"
                                   context after before)
                            end
                            else Server.set_engine srv fresh)
                  end;
                  let ups =
                    List.map (fun v -> Wire.Recover_node v) e.faults
                    @ List.map (fun (u, v) -> Wire.Recover_link (u, v)) e.edges
                  in
                  apply_wave srv vclock tally ~context:(context ^ " recovery") ups;
                  Server.set_bound srv b0;
                  run_queries srv vclock tally rng
                    ~context:(context ^ " recovered") ~alive:all_nodes
                    ~count:cfg.queries ~in_budget:(Option.is_some b0) ~bound:b0)
                entries;
              (* All waves recovered, so the fault state must be empty
                 again. *)
              (if
                 Engine.node_faults (Server.engine srv) <> []
                 || Engine.link_faults (Server.engine srv) <> []
               then
                 violate tally
                   (label ^ ": fault state not empty after full recovery"));
              Journal.close journal;
              let p50_ms, p99_ms, p999_ms =
                match
                  Stats.percentiles_of (Array.of_list tally.t_lats) ~ps:[ 50.0; 99.0; 99.9 ]
                with
                | [ a; b; c ] -> (a, b, c)
                | _ -> assert false
              in
              {
                label;
                waves;
                in_budget_waves = !in_budget_waves;
                queries = tally.t_queries;
                degraded = tally.t_degraded;
                shed = tally.t_shed;
                dropped_in_budget = tally.t_dropped;
                p50_ms;
                p99_ms;
                p999_ms;
                journal_digest_ok = !journal_digest_ok;
                certified;
                violations = recorded_violations tally;
                infra = None;
              }))

let run ~build ~entries cfg =
  let keys =
    List.sort_uniq compare
      (List.map
         (fun (e : Attack.Corpus.entry) -> (e.graph, e.strategy, e.seed))
         entries)
  in
  let groups =
    List.map
      (fun key ->
        ( key,
          List.filter
            (fun (e : Attack.Corpus.entry) ->
              (e.graph, e.strategy, e.seed) = key)
            entries ))
      keys
  in
  let reports = List.map (run_group ~build cfg) groups in
  let total_queries = List.fold_left (fun a r -> a + r.queries) 0 reports in
  let dropped_in_budget =
    List.fold_left (fun a (r : report) -> a + r.dropped_in_budget) 0 reports
  in
  let worst_p pick =
    List.fold_left
      (fun acc r ->
        match (acc, pick r) with
        | None, v -> v
        | v, None -> v
        | Some a, Some b -> Some (Float.max a b))
      None reports
  in
  let p50_ms = worst_p (fun r -> r.p50_ms) in
  let p99_ms = worst_p (fun r -> r.p99_ms) in
  let p999_ms = worst_p (fun r -> r.p999_ms) in
  let slo_breached =
    match p99_ms with Some p -> p > cfg.slo_p99_ms | None -> false
  in
  let any_infra = List.exists (fun r -> r.infra <> None) reports in
  let any_violation =
    List.exists
      (fun r -> r.violations <> [] || not r.journal_digest_ok)
      reports
  in
  let exit =
    if any_infra then Exit_code.Infra
    else if slo_breached || dropped_in_budget > 0 || any_violation then
      Exit_code.Breach
    else Exit_code.Clean
  in
  {
    reports;
    total_queries;
    p50_ms;
    p99_ms;
    p999_ms;
    slo_breached;
    dropped_in_budget;
    exit;
  }

let opt_float = function Some f -> Sjson.Float f | None -> Sjson.Null

let report_json r =
  let open Sjson in
  Obj
    [
      ("label", Str r.label);
      ("waves", Int r.waves);
      ("in_budget_waves", Int r.in_budget_waves);
      ("queries", Int r.queries);
      ("degraded", Int r.degraded);
      ("shed", Int r.shed);
      ("dropped_in_budget", Int r.dropped_in_budget);
      ("p50_ms", opt_float r.p50_ms);
      ("p99_ms", opt_float r.p99_ms);
      ("p999_ms", opt_float r.p999_ms);
      ("journal_digest_ok", Bool r.journal_digest_ok);
      ( "certified",
        match r.certified with
        | Some (b, k) -> Obj [ ("bound", Int b); ("faults", Int k) ]
        | None -> Null );
      ("violations", Arr (List.map (fun v -> Str v) r.violations));
      ("infra", match r.infra with Some m -> Str m | None -> Null);
    ]

let to_json (cfg : config) outcome =
  let open Sjson in
  Obj
    [
      ("version", Str "ftr-slo/1");
      ( "config",
        Obj
          [
            ("queries", Int cfg.queries);
            ("slo_p99_ms", Float cfg.slo_p99_ms);
            ("seed", Int cfg.seed);
            ("certify", Bool cfg.certify);
            ( "gray_factor",
              match cfg.gray_factor with Some f -> Float f | None -> Null );
          ] );
      ("constructions", Arr (List.map report_json outcome.reports));
      ("total_queries", Int outcome.total_queries);
      ("p50_ms", opt_float outcome.p50_ms);
      ("p99_ms", opt_float outcome.p99_ms);
      ("p999_ms", opt_float outcome.p999_ms);
      ("slo_breached", Bool outcome.slo_breached);
      ("dropped_in_budget", Int outcome.dropped_in_budget);
      ("exit", Str (Exit_code.describe outcome.exit));
      ("exit_code", Int (Exit_code.to_int outcome.exit));
    ]
