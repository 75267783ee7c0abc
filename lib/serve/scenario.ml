open Ftr_graph
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
}

type chaos = {
  burst : int;
  max_queue : int;
  deadline_ticks : float;
  gray_factor : float;
  radius : int;
  zipf_s : float;
  min_delivery : float;
}

type counts = {
  requests : int;
  delivered : int;
  degraded : int;
  unreachable : int;
  shed : int;
  dropped : int;
}

type phase = { name : string; counts : counts; digest : string }

type run = {
  label : string;
  phases : phase list;
  total : counts;
  virtual_ticks : int;
  journal_digest_ok : bool;
  digest_converged : bool;
  certified : (int * int) option;
  p50_ms : float option;
  p99_ms : float option;
  p999_ms : float option;
  violations : string list;
  infra : string option;
}

type slo_report = { run : run; in_budget_waves : int }

type slo_outcome = {
  reports : slo_report list;
  total_queries : int;
  p50_ms : float option;
  p99_ms : float option;
  p999_ms : float option;
  slo_breached : bool;
  dropped_in_budget : int;
  exit : Exit_code.t;
}

type chaos_outcome = { run : run; slo_breached : bool; exit : Exit_code.t }

let c_phases = Obs.counter "serve.scenario.phases"
let c_requests = Obs.counter "serve.scenario.requests"
let c_violations = Obs.counter "serve.scenario.violations"

(* Violations are reported verbatim up to a cap, then summarised — a
   badly broken run should not produce a megabyte of repeats. *)
let max_recorded_violations = 8

let no_counts =
  { requests = 0; delivered = 0; degraded = 0; unreachable = 0; shed = 0; dropped = 0 }

(* ---------------- the driver ---------------- *)

type reply =
  | Delivered of { routes : int option; degraded : bool }
  | Unreachable
  | Shed  (** admission sheds and the draining refusal *)
  | Broken of string  (** no reply, an unparseable one, or another error *)

(* Pair and fault lists are thunks, drawn when their beat runs: the
   draws from the scenario's one RNG happen in beat order. *)
type beat =
  | Queries of string * (unit -> (int * int) list)
      (** submit and pump each route query in turn *)
  | Burst of string * (unit -> (int * int) list)
      (** submit every route query, then pump once *)
  | Wave of string * (unit -> Wire.fault_action list)
  | Bound of int option  (** the proven bound in force from here on *)
  | Replay of string
      (** rebuild the engine from the on-disk journal; it must land on
          the live digest, and then replaces the live engine *)
  | Expect of (counts -> string option)
      (** a check on the queries since the last [Record] *)
  | Converged of string  (** the digest must be back to its initial bytes *)
  | Slo of float  (** the p99 so far must not exceed this many ms *)
  | Record of string  (** close the current phase under this name *)

type driver = {
  srv : Server.t;
  routing : Routing.t;
  journal_path : string;
  clock : float ref;
  judged : bool;
      (* hold every query to the bound in force, when there is one *)
  initial : string;
  mutable phase : counts;
  mutable total : counts;
  mutable phases : phase list;  (* newest first *)
  mutable lats : float list;
  mutable violations : string list;  (* newest first *)
  mutable violation_count : int;
  mutable journal_ok : bool;
  mutable converged : bool;
}

let violate d msg =
  Obs.incr c_violations;
  d.violation_count <- d.violation_count + 1;
  if d.violation_count <= max_recorded_violations then
    d.violations <- msg :: d.violations

let field name read json = Option.bind (Sjson.member name json) read
let flag name json = field name Sjson.to_bool json = Some true

(* Samples the reply's service time, then classifies it. *)
let receive d = function
  | None -> Broken "request vanished without a response"
  | Some line -> (
      match Sjson.parse line with
      | Error msg -> Broken (Printf.sprintf "unparseable response %S: %s" line msg)
      | Ok json -> (
          Option.iter
            (fun ms -> d.lats <- ms :: d.lats)
            (field "service_ms" Sjson.to_float json);
          if flag "shed" json then Shed
          else if flag "ok" json then
            Delivered
              { routes = field "routes" Sjson.to_int json; degraded = flag "degraded" json }
          else
            match field "error" Sjson.to_str json with
            | Some "unreachable" -> Unreachable
            | e -> Broken ("error: " ^ Option.value ~default:"?" e)))

let submit d req respond =
  d.clock := !(d.clock) +. 1.0;
  Server.submit d.srv req respond

let roundtrip d req =
  let reply = ref None in
  submit d req (fun line -> reply := Some line);
  Server.pump d.srv;
  receive d !reply

(* The in-budget promise under bound [b]: delivered undegraded within
   [b] routes. *)
let promise b = function
  | Delivered { routes = Some r; degraded = false } when r <= b -> None
  | Delivered { routes = Some r; _ } ->
      Some (Printf.sprintf "%d routes exceeds proven bound %d" r b)
  | Delivered { routes = None; _ } -> Some "in-budget reply without a route count"
  | Shed -> Some "in-budget query shed"
  | Unreachable -> Some "in-budget query failed: unreachable"
  | Broken msg -> Some msg

let account d ~where reply =
  Obs.incr c_requests;
  let bump f =
    d.phase <- f d.phase;
    d.total <- f d.total
  in
  bump (fun c -> { c with requests = c.requests + 1 });
  (match reply with
  | Delivered { degraded; _ } ->
      bump (fun c ->
          { c with delivered = c.delivered + 1; degraded = c.degraded + Bool.to_int degraded })
  | Unreachable -> bump (fun c -> { c with unreachable = c.unreachable + 1 })
  | Shed -> bump (fun c -> { c with shed = c.shed + 1 })
  | Broken _ -> ());
  match (Server.bound d.srv, reply) with
  | Some b, _ when d.judged ->
      Option.iter
        (fun msg ->
          bump (fun c -> { c with dropped = c.dropped + 1 });
          violate d (where ^ ": " ^ msg))
        (promise b reply)
  | _, Broken msg -> violate d (where ^ ": " ^ msg)
  | _ -> ()

let digest d = Engine.digest (Server.engine d.srv)

let percentiles lats =
  match Stats.percentiles_of (Array.of_list lats) ~ps:[ 50.0; 99.0; 99.9 ] with
  | [ a; b; c ] -> (a, b, c)
  | _ -> assert false

let over gate = function Some p -> p > gate | None -> false

let replay d context =
  let live = digest d in
  let fail msg =
    d.journal_ok <- false;
    violate d (context ^ ": " ^ msg)
  in
  match Journal.load d.journal_path with
  | Error msg -> fail ("journal reload: " ^ msg)
  | Ok events -> (
      let fresh = Engine.create d.routing in
      match Engine.replay fresh events with
      | Error msg -> fail ("journal replay: " ^ msg)
      | Ok _ ->
          let rebuilt = Engine.digest fresh in
          if rebuilt <> live then
            fail (Printf.sprintf "journal replay diverged: %S <> %S" rebuilt live)
          else Server.set_engine d.srv fresh)

let beat d = function
  | Queries (context, pairs) ->
      List.iter
        (fun (src, dst) ->
          account d
            ~where:(Printf.sprintf "%s %d->%d" context src dst)
            (roundtrip d (Wire.Route { src; dst })))
        (pairs ())
  | Burst (context, pairs) ->
      let replies = ref [] in
      List.iter
        (fun (src, dst) ->
          let where = Printf.sprintf "%s %d->%d" context src dst in
          submit d (Wire.Route { src; dst }) (fun line ->
              replies := (where, line) :: !replies))
        (pairs ());
      Server.pump d.srv;
      List.iter
        (fun (where, line) -> account d ~where (receive d (Some line)))
        (List.rev !replies)
  | Wave (context, actions) ->
      List.iter
        (fun action ->
          match roundtrip d (Wire.Fault action) with
          | Delivered _ -> ()
          | Broken msg ->
              violate d (Printf.sprintf "%s: fault delta rejected: %s" context msg)
          | Shed | Unreachable -> violate d (context ^ ": fault delta not applied"))
        (actions ())
  | Bound b -> Server.set_bound d.srv b
  | Replay context -> replay d context
  | Expect check -> Option.iter (violate d) (check d.phase)
  | Converged context ->
      let now = digest d in
      d.converged <- now = d.initial;
      if not d.converged then
        violate d
          (Printf.sprintf "%s: digest did not converge: %S <> %S" context now d.initial)
  | Slo gate ->
      let _, p99, _ = percentiles d.lats in
      if over gate p99 then
        violate d
          (Printf.sprintf "p99 %.3fms over the %.3fms SLO"
             (Option.value ~default:0.0 p99) gate)
  | Record name ->
      Obs.incr c_phases;
      d.phases <- { name; counts = d.phase; digest = digest d } :: d.phases;
      d.phase <- no_counts

let infra label msg =
  {
    label;
    phases = [];
    total = no_counts;
    virtual_ticks = 0;
    journal_digest_ok = true;
    digest_converged = true;
    certified = None;
    p50_ms = None;
    p99_ms = None;
    p999_ms = None;
    violations = [];
    infra = Some msg;
  }

(* Opens a fresh journal named after [label], re-proves [claim] when
   the config asks for it, runs [beats] and closes the journal. *)
let play ~label ~server ~judged ~claim cfg routing beats =
  let journal_path =
    Filename.concat cfg.journal_dir (Output.safe_name label ^ ".journal")
  in
  (try Sys.remove journal_path with Sys_error _ -> ());
  match Journal.create journal_path with
  | Error msg -> infra label ("journal: " ^ msg)
  | Ok journal ->
      let engine = Engine.create routing in
      let clock = ref 0.0 in
      let d =
        {
          srv = Server.create ~clock:(fun () -> !clock) ~journal server engine;
          routing;
          journal_path;
          clock;
          judged;
          initial = Engine.digest engine;
          phase = no_counts;
          total = no_counts;
          phases = [];
          lats = [];
          violations = [];
          violation_count = 0;
          journal_ok = true;
          converged = true;
        }
      in
      let certified =
        match claim with
        | Some (b, k) when cfg.certify ->
            let cert = Tolerance.certify ?jobs:cfg.jobs routing ~f:k ~bound:b in
            if cert.Tolerance.holds then Some (b, k)
            else begin
              violate d
                (Printf.sprintf "certify refuted the (%d,%d) claim (counterexample %s)" b
                   k
                   (match cert.Tolerance.counterexample with
                   | Some s -> String.concat "," (List.map string_of_int s.nodes)
                   | None -> "?"));
              None
            end
        | _ -> None
      in
      List.iter (beat d) beats;
      Journal.close journal;
      let p50_ms, p99_ms, p999_ms = percentiles d.lats in
      let extra = d.violation_count - max_recorded_violations in
      {
        label;
        phases = List.rev d.phases;
        total = d.total;
        virtual_ticks = int_of_float !clock;
        journal_digest_ok = d.journal_ok;
        digest_converged = d.converged;
        certified;
        p50_ms;
        p99_ms;
        p999_ms;
        violations =
          (List.rev d.violations
          @ if extra > 0 then [ Printf.sprintf "(+%d more)" extra ] else []);
        infra = None;
      }

let verdict (r : run) =
  if r.infra <> None then Exit_code.Infra
  else if r.violations <> [] then Exit_code.Breach
  else Exit_code.Clean

let delivery_rate (r : run) =
  if r.total.requests = 0 then 0.0
  else float_of_int r.total.delivered /. float_of_int r.total.requests

(* ---------------- the corpus SLO soak ---------------- *)

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
            match acc with Some (_, k') when k' >= k -> acc | _ -> Some (b, k)))
    None entries

let slo_group ?gray_factor ~build cfg ((graph, strategy, seed), entries) =
  let label = Printf.sprintf "%s/%s seed=%d" graph strategy seed in
  let broken msg = { run = infra label msg; in_budget_waves = 0 } in
  match build ~graph ~strategy ~seed with
  | Error msg -> broken ("build failed: " ^ msg)
  | Ok (c : Construction.t) -> (
      let routing = c.Construction.routing in
      let g = Routing.graph routing in
      let n = Graph.n g in
      match List.find_opt (fun (e : Attack.Corpus.entry) -> e.n <> n) entries with
      | Some e ->
          broken
            (Printf.sprintf "stale corpus entry: n=%d but the construction has %d" e.n n)
      | None ->
          let bound_at (e : Attack.Corpus.entry) =
            Construction.bound_for c ~f:(List.length e.faults + List.length e.edges)
          in
          let b0 = Construction.bound_for c ~f:0 in
          let rng = Random.State.make [| cfg.seed |] in
          let all = List.init n Fun.id in
          let queries context alive =
            Queries
              (label ^ context, fun () -> Workload.query_pairs ~rng ~alive ~count:cfg.queries)
          in
          let gray =
            match gray_factor with
            | None -> []
            | Some factor ->
                let links = List.filteri (fun i _ -> i < 2) (Graph.edges g) in
                [
                  Wave
                    ( label ^ " gray wave",
                      fun () ->
                        List.map (fun (u, v) -> Wire.Degrade_link (u, v, factor)) links );
                  queries " gray wave" all;
                  Wave
                    ( label ^ " gray restore",
                      fun () -> List.map (fun (u, v) -> Wire.Restore_link (u, v)) links );
                  Converged (label ^ " gray restore");
                ]
          in
          let last = List.length entries - 1 in
          let wave i (e : Attack.Corpus.entry) =
            let context = Printf.sprintf " wave %d" i in
            [
              Bound (bound_at e);
              Wave
                ( label ^ context,
                  fun () ->
                    List.map (fun v -> Wire.Fail_node v) e.faults
                    @ List.map (fun (u, v) -> Wire.Fail_link (u, v)) e.edges );
              queries context (List.filter (fun v -> not (List.mem v e.faults)) all);
            ]
            @ (if i = last then [ Replay (label ^ context) ] else [])
            @ [
                Wave
                  ( label ^ context ^ " recovery",
                    fun () ->
                      List.map (fun v -> Wire.Recover_node v) e.faults
                      @ List.map (fun (u, v) -> Wire.Recover_link (u, v)) e.edges );
                Bound b0;
                queries (context ^ " recovered") all;
                Record (label ^ context);
              ]
          in
          let run =
            play ~label
              ~server:{ Server.max_queue = Int.max 16 cfg.queries; deadline = 0.0; bound = b0 }
              ~judged:true ~claim:(certify_target c entries) cfg routing
              ((queries " baseline" all :: gray)
              @ List.concat (List.mapi wave entries)
              @ [ Converged (label ^ " recovery") ])
          in
          {
            run;
            in_budget_waves = List.length (List.filter (fun e -> bound_at e <> None) entries);
          })

let slo ?gray_factor ~build ~entries cfg =
  let key (e : Attack.Corpus.entry) = (e.graph, e.strategy, e.seed) in
  let groups =
    List.map
      (fun k -> (k, List.filter (fun e -> key e = k) entries))
      (List.sort_uniq compare (List.map key entries))
  in
  let reports = List.map (slo_group ?gray_factor ~build cfg) groups in
  let runs = List.map (fun (r : slo_report) -> r.run) reports in
  let sum pick = List.fold_left (fun a (r : run) -> a + pick r.total) 0 runs in
  let worst pick =
    List.fold_left
      (fun acc r ->
        match (acc, pick r) with
        | None, v | v, None -> v
        | Some a, Some b -> Some (Float.max a b))
      None runs
  in
  let p99_ms = worst (fun r -> r.p99_ms) in
  let slo_breached = over cfg.slo_p99_ms p99_ms in
  {
    reports;
    total_queries = sum (fun c -> c.requests);
    p50_ms = worst (fun r -> r.p50_ms);
    p99_ms;
    p999_ms = worst (fun r -> r.p999_ms);
    slo_breached;
    dropped_in_budget = sum (fun c -> c.dropped);
    exit =
      List.fold_left
        (fun e r -> Exit_code.worst e (verdict r))
        (if slo_breached then Exit_code.Breach else Exit_code.Clean)
        runs;
  }

(* ---------------- the chaos scenario ---------------- *)

let chaos ?(label = "chaos") (c : Construction.t) cfg x =
  let routing = c.Construction.routing in
  let g = Routing.graph routing in
  let n = Graph.n g in
  let run =
    if n < 3 then infra label "chaos: need a graph with at least 3 nodes"
    else
      let b0 = Construction.bound_for c ~f:0 in
      let rng = Random.State.make [| cfg.seed |] in
      let all = List.init n Fun.id in
      let zipf context =
        Queries
          ( label ^ " " ^ context,
            fun () -> Workload.zipf_pairs ~rng ~alive:all ~s:x.zipf_s ~count:cfg.queries )
      in
      let ball () = Faults.region_links g ~center:(Random.State.int rng n) ~radius:x.radius in
      let gray = lazy (ball ()) and regional = lazy (ball ()) in
      let wave context links action =
        Wave (label ^ " " ^ context, fun () -> List.map action (Lazy.force links))
      in
      let expect cond msg = Expect (fun k -> if cond k then Some (msg k) else None) in
      play ~label
        ~server:{ Server.max_queue = x.max_queue; deadline = x.deadline_ticks; bound = b0 }
        ~judged:false
        ~claim:(Option.map (fun b -> (b, 1)) b0)
        cfg routing
        [
          (* Heavy-tailed pair popularity on the healthy network:
             everything is delivered. *)
          zipf "baseline";
          expect
            (fun k -> k.delivered <> k.requests)
            (fun k -> Printf.sprintf "baseline: only %d/%d delivered" k.delivered k.requests);
          Record "baseline";
          (* Every link of a random BFS ball slows; none drops. *)
          wave "gray inject" gray (fun (u, v) -> Wire.Degrade_link (u, v, x.gray_factor));
          zipf "gray";
          expect
            (fun k -> k.delivered <> k.requests)
            (fun k ->
              Printf.sprintf
                "gray wave: only %d/%d delivered (gray failures must slow, never cut)"
                k.delivered k.requests);
          Record "gray";
          wave "gray restore" gray (fun (u, v) -> Wire.Restore_link (u, v));
          Converged (label ^ " gray restore");
          (* Every link of another ball fails: unreachable is legitimate
             while the area is cut off, shedding is not. *)
          wave "regional inject" regional (fun (u, v) -> Wire.Fail_link (u, v));
          zipf "regional";
          expect
            (fun k -> k.shed > 0)
            (fun k ->
              Printf.sprintf "regional wave: %d queries shed under plain load" k.shed);
          expect
            (fun k ->
              k.requests > 0
              && float_of_int k.delivered /. float_of_int k.requests < x.min_delivery)
            (fun k ->
              Printf.sprintf "regional wave: delivery %d/%d below the %g floor" k.delivered
                k.requests x.min_delivery);
          Record "regional";
          Replay (label ^ " regional");
          wave "regional recovery" regional (fun (u, v) -> Wire.Recover_link (u, v));
          (* Hub-bound queries arrive faster than the pump drains:
             admission sheds the excess and every served query is
             delivered. *)
          Burst
            ( label ^ " crowd",
              fun () ->
                let hub = Random.State.int rng n in
                List.map
                  (fun (src, _) -> (src, hub))
                  (Workload.zipf_pairs ~rng
                     ~alive:(List.filter (fun v -> v <> hub) all)
                     ~s:0.0 ~count:x.burst) );
          expect
            (fun k -> k.requests <> x.burst)
            (fun k -> Printf.sprintf "crowd: %d/%d responses arrived" k.requests x.burst);
          expect
            (fun k -> x.burst > x.max_queue && k.shed = 0)
            (fun _ -> "crowd: burst exceeded the queue budget but nothing shed");
          expect
            (fun k -> k.delivered + k.shed <> k.requests)
            (fun k ->
              Printf.sprintf
                "crowd: %d requests neither delivered nor shed on a healthy network"
                (k.requests - k.delivered - k.shed));
          Record "crowd";
          Converged (label ^ " final");
          Slo cfg.slo_p99_ms;
        ]
  in
  { run; slo_breached = over cfg.slo_p99_ms run.p99_ms; exit = verdict run }

(* ---------------- artifacts ---------------- *)

let opt_float = function Some f -> Sjson.Float f | None -> Sjson.Null

let certified_json = function
  | Some (b, k) -> Sjson.Obj [ ("bound", Sjson.Int b); ("faults", Sjson.Int k) ]
  | None -> Sjson.Null

let violation_fields (r : run) =
  let open Sjson in
  [
    ("violations", Arr (List.map (fun v -> Str v) r.violations));
    ("infra", match r.infra with Some m -> Str m | None -> Null);
  ]

let exit_fields e =
  [ ("exit", Sjson.Str (Exit_code.describe e)); ("exit_code", Sjson.Int (Exit_code.to_int e)) ]

let slo_json ?gray_factor cfg (o : slo_outcome) =
  let open Sjson in
  let report { run = r; in_budget_waves } =
    Obj
      ([
         ("label", Str r.label);
         ("waves", Int (List.length r.phases));
         ("in_budget_waves", Int in_budget_waves);
         ("queries", Int r.total.requests);
         ("degraded", Int r.total.degraded);
         ("shed", Int r.total.shed);
         ("dropped_in_budget", Int r.total.dropped);
         ("p50_ms", opt_float r.p50_ms);
         ("p99_ms", opt_float r.p99_ms);
         ("p999_ms", opt_float r.p999_ms);
         ("journal_digest_ok", Bool r.journal_digest_ok);
         ("certified", certified_json r.certified);
       ]
      @ violation_fields r)
  in
  Obj
    ([
       ("version", Str "ftr-slo/1");
       ( "config",
         Obj
           [
             ("queries", Int cfg.queries);
             ("slo_p99_ms", Float cfg.slo_p99_ms);
             ("seed", Int cfg.seed);
             ("certify", Bool cfg.certify);
             ("gray_factor", opt_float gray_factor);
           ] );
       ("constructions", Arr (List.map report o.reports));
       ("total_queries", Int o.total_queries);
       ("p50_ms", opt_float o.p50_ms);
       ("p99_ms", opt_float o.p99_ms);
       ("p999_ms", opt_float o.p999_ms);
       ("slo_breached", Bool o.slo_breached);
       ("dropped_in_budget", Int o.dropped_in_budget);
     ]
    @ exit_fields o.exit)

(* Every field is a function of (construction, config) alone: the
   wall-clock percentiles go to stdout, only the SLO verdict is
   here. *)
let chaos_json cfg x (o : chaos_outcome) =
  let open Sjson in
  let r = o.run in
  let phase p =
    Obj
      [
        ("name", Str p.name);
        ("requests", Int p.counts.requests);
        ("delivered", Int p.counts.delivered);
        ("degraded", Int p.counts.degraded);
        ("unreachable", Int p.counts.unreachable);
        ("shed", Int p.counts.shed);
        ("digest", Str p.digest);
      ]
  in
  Obj
    ([
       ("version", Str "ftr-chaos/1");
       ( "config",
         Obj
           [
             ("queries", Int cfg.queries);
             ("burst", Int x.burst);
             ("max_queue", Int x.max_queue);
             ("deadline_ticks", Float x.deadline_ticks);
             ("gray_factor", Float x.gray_factor);
             ("radius", Int x.radius);
             ("zipf_s", Float x.zipf_s);
             ("min_delivery", Float x.min_delivery);
             ("seed", Int cfg.seed);
             ("certify", Bool cfg.certify);
           ] );
       ("phases", Arr (List.map phase r.phases));
       ("total_requests", Int r.total.requests);
       ("delivered", Int r.total.delivered);
       ("shed", Int r.total.shed);
       ("delivery_rate", Float (delivery_rate r));
       ("virtual_ticks", Int r.virtual_ticks);
       ("journal_digest_ok", Bool r.journal_digest_ok);
       ("digest_converged", Bool r.digest_converged);
       ("certified", certified_json r.certified);
       ("slo_breached", Bool o.slo_breached);
     ]
    @ violation_fields r @ exit_fields o.exit)
