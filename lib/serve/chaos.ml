open Ftr_graph
open Ftr_core
open Ftr_sim
open Ftr_obs

type config = {
  queries : int;
  burst : int;
  max_queue : int;
  deadline_ticks : float;
  gray_factor : float;
  radius : int;
  zipf_s : float;
  slo_p99_ms : float;
  min_delivery : float;
  seed : int;
  jobs : int option;
  certify : bool;
  journal_dir : string;
}

type phase = {
  name : string;
  requests : int;
  delivered : int;
  degraded : int;
  unreachable : int;
  shed : int;
  digest : string;  (** engine fault digest at the end of the phase *)
}

type outcome = {
  phases : phase list;
  total_requests : int;
  delivered : int;
  shed : int;
  delivery_rate : float;
  virtual_ticks : int;
  journal_digest_ok : bool;
  digest_converged : bool;
  certified : (int * int) option;
  slo_breached : bool;
  p50_ms : float option;
  p99_ms : float option;
  violations : string list;
  infra : string option;
  exit : Exit_code.t;
}

let c_phases = Obs.counter "serve.chaos.phases"
let c_requests = Obs.counter "serve.chaos.requests"
let c_violations = Obs.counter "serve.chaos.violations"

let max_recorded_violations = 8

(* Wall-clock latencies stay out of the artifact (they are not a
   function of the requested work); they feed the stdout summary and
   the SLO gate only. *)
type tally = {
  mutable lats : float list;
  mutable violations : string list;  (* newest first *)
  mutable violation_count : int;
}

let violate tally msg =
  Obs.incr c_violations;
  tally.violation_count <- tally.violation_count + 1;
  if tally.violation_count <= max_recorded_violations then
    tally.violations <- msg :: tally.violations

let recorded_violations tally =
  let extra = tally.violation_count - max_recorded_violations in
  let shown = List.rev tally.violations in
  if extra > 0 then shown @ [ Printf.sprintf "(+%d more)" extra ] else shown

let bool_field name json =
  Option.value ~default:false (Option.bind (Sjson.member name json) Sjson.to_bool)

let float_field name json = Option.bind (Sjson.member name json) Sjson.to_float
let str_field name json = Option.bind (Sjson.member name json) Sjson.to_str

(* One response, classified. [`Shed] covers both admission sheds
   (queue full, deadline expired) and the draining refusal. *)
let classify line =
  match Sjson.parse line with
  | Error msg -> `Broken (Printf.sprintf "unparseable response: %s" msg)
  | Ok json ->
      if bool_field "shed" json then `Shed
      else if bool_field "ok" json then
        if bool_field "degraded" json then `Degraded else `Delivered
      else if str_field "error" json = Some "unreachable" then `Unreachable
      else
        `Broken
          (Printf.sprintf "error: %s"
             (Option.value ~default:"?" (str_field "error" json)))

type phase_tally = {
  mutable p_requests : int;
  mutable p_delivered : int;
  mutable p_degraded : int;
  mutable p_unreachable : int;
  mutable p_shed : int;
}

let new_phase_tally () =
  { p_requests = 0; p_delivered = 0; p_degraded = 0; p_unreachable = 0; p_shed = 0 }

let account tally pt ~context line =
  pt.p_requests <- pt.p_requests + 1;
  Obs.incr c_requests;
  (match Option.bind (Sjson.parse line |> Result.to_option) (float_field "service_ms")
   with
  | Some ms -> tally.lats <- ms :: tally.lats
  | None -> ());
  match classify line with
  | `Delivered -> pt.p_delivered <- pt.p_delivered + 1
  | `Degraded ->
      pt.p_delivered <- pt.p_delivered + 1;
      pt.p_degraded <- pt.p_degraded + 1
  | `Unreachable -> pt.p_unreachable <- pt.p_unreachable + 1
  | `Shed -> pt.p_shed <- pt.p_shed + 1
  | `Broken msg -> violate tally (Printf.sprintf "%s: %s" context msg)

(* Submit one request and pump immediately: the steady-state drive.
   The virtual clock ticks once per submission. *)
let roundtrip srv vclock req =
  vclock := !vclock +. 1.0;
  let resp = ref None in
  Server.submit srv req (fun s -> resp := Some s);
  Server.pump srv;
  !resp

let run_pairs srv vclock tally pt ~context pairs =
  List.iter
    (fun (src, dst) ->
      match roundtrip srv vclock (Wire.Route { src; dst }) with
      | None -> violate tally (context ^ ": request vanished without a response")
      | Some line -> account tally pt ~context line)
    pairs

let apply_actions srv vclock tally ~context actions =
  List.iter
    (fun action ->
      match roundtrip srv vclock (Wire.Fault action) with
      | None -> violate tally (context ^ ": fault delta vanished")
      | Some line -> (
          match Sjson.parse line with
          | Error msg -> violate tally (Printf.sprintf "%s: %s" context msg)
          | Ok json ->
              if not (bool_field "ok" json) then
                violate tally
                  (Printf.sprintf "%s: fault delta rejected: %s" context
                     (Option.value ~default:"?" (str_field "error" json)))))
    actions

let finish_phase srv name pt =
  Obs.incr c_phases;
  {
    name;
    requests = pt.p_requests;
    delivered = pt.p_delivered;
    degraded = pt.p_degraded;
    unreachable = pt.p_unreachable;
    shed = pt.p_shed;
    digest = Engine.digest (Server.engine srv);
  }

let infra_outcome msg =
  {
    phases = [];
    total_requests = 0;
    delivered = 0;
    shed = 0;
    delivery_rate = 0.0;
    virtual_ticks = 0;
    journal_digest_ok = true;
    digest_converged = true;
    certified = None;
    slo_breached = false;
    p50_ms = None;
    p99_ms = None;
    violations = [];
    infra = Some msg;
    exit = Exit_code.Infra;
  }

let sanitize label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    label

let run ?(label = "chaos") (c : Construction.t) cfg =
  let routing = c.Construction.routing in
  let g = Routing.graph routing in
  let n = Graph.n g in
  if n < 3 then infra_outcome "chaos: need a graph with at least 3 nodes"
  else begin
    let journal_path =
      Filename.concat cfg.journal_dir (sanitize label ^ ".journal")
    in
    (try Sys.remove journal_path with Sys_error _ -> ());
    match Journal.create journal_path with
    | Error msg -> infra_outcome ("journal: " ^ msg)
    | Ok journal ->
        let engine = Engine.create routing in
        let tally = { lats = []; violations = []; violation_count = 0 } in
        let b0 = Construction.bound_for c ~f:0 in
        let certified =
          match (cfg.certify, b0) with
          | false, _ | true, None -> None
          | true, Some b ->
              (* Re-prove the fault-free claim the degraded flag is
                 judged against; ~jobs makes the chaos run double as a
                 determinism check — the artifact must not move. *)
              let cert = Tolerance.certify ?jobs:cfg.jobs routing ~f:1 ~bound:b in
              if cert.Tolerance.holds then Some (b, 1)
              else begin
                violate tally
                  (Printf.sprintf "certify refuted the (%d,1) claim" b);
                None
              end
        in
        let vclock = ref 0.0 in
        let srv =
          Server.create
            ~clock:(fun () -> !vclock)
            ~journal
            {
              max_queue = cfg.max_queue;
              deadline = cfg.deadline_ticks;
              bound = b0;
            }
            engine
        in
        let rng = Random.State.make [| cfg.seed |] in
        let all_nodes = List.init n Fun.id in
        let initial_digest = Engine.digest engine in
        (* Phase 1 — baseline: heavy-tailed (Zipf) pair popularity on
           the healthy network. Everything must be delivered. *)
        let pt = new_phase_tally () in
        run_pairs srv vclock tally pt ~context:(label ^ " baseline")
          (Workload.zipf_pairs ~rng ~alive:all_nodes ~s:cfg.zipf_s
             ~count:cfg.queries);
        if pt.p_delivered <> pt.p_requests then
          violate tally
            (Printf.sprintf "baseline: only %d/%d delivered" pt.p_delivered
               pt.p_requests);
        let baseline = finish_phase srv "baseline" pt in
        (* Phase 2 — gray wave: every link of a random BFS ball
           degrades (delays, never drops). The full baseline contract
           must still hold: same delivery, no new unreachables. *)
        let gray_center = Random.State.int rng n in
        let gray_links = Faults.region_links g ~center:gray_center ~radius:cfg.radius in
        apply_actions srv vclock tally ~context:(label ^ " gray inject")
          (List.map
             (fun (u, v) -> Wire.Degrade_link (u, v, cfg.gray_factor))
             gray_links);
        let pt = new_phase_tally () in
        run_pairs srv vclock tally pt ~context:(label ^ " gray")
          (Workload.zipf_pairs ~rng ~alive:all_nodes ~s:cfg.zipf_s
             ~count:cfg.queries);
        if pt.p_delivered <> pt.p_requests then
          violate tally
            (Printf.sprintf
               "gray wave: only %d/%d delivered (gray failures must slow, never cut)"
               pt.p_delivered pt.p_requests);
        let gray = finish_phase srv "gray" pt in
        apply_actions srv vclock tally ~context:(label ^ " gray restore")
          (List.map (fun (u, v) -> Wire.Restore_link (u, v)) gray_links);
        if Engine.digest (Server.engine srv) <> initial_digest then
          violate tally "gray restore: digest did not return to baseline";
        (* Phase 3 — correlated regional outage: all links of another
           BFS ball fail wholesale. Queries must still be answered
           (shedding is a breach); unreachable is legitimate while the
           blast area is cut off, bounded by the delivery-rate gate. *)
        let reg_center = Random.State.int rng n in
        let reg_links = Faults.region_links g ~center:reg_center ~radius:cfg.radius in
        apply_actions srv vclock tally ~context:(label ^ " regional inject")
          (List.map (fun (u, v) -> Wire.Fail_link (u, v)) reg_links);
        let pt = new_phase_tally () in
        run_pairs srv vclock tally pt ~context:(label ^ " regional")
          (Workload.zipf_pairs ~rng ~alive:all_nodes ~s:cfg.zipf_s
             ~count:cfg.queries);
        if pt.p_shed > 0 then
          violate tally
            (Printf.sprintf "regional wave: %d queries shed under plain load"
               pt.p_shed);
        if
          pt.p_requests > 0
          && float_of_int pt.p_delivered /. float_of_int pt.p_requests
             < cfg.min_delivery
        then
          violate tally
            (Printf.sprintf "regional wave: delivery %d/%d below the %g floor"
               pt.p_delivered pt.p_requests cfg.min_delivery);
        let regional = finish_phase srv "regional" pt in
        (* Kill/restart at the deepest fault state: a fresh engine
           replaying the on-disk journal must land byte-identical. *)
        let journal_digest_ok = ref true in
        let deepest = Engine.digest (Server.engine srv) in
        (match Journal.load journal_path with
        | Error msg ->
            journal_digest_ok := false;
            violate tally ("journal reload: " ^ msg)
        | Ok events -> (
            let fresh = Engine.create routing in
            match Engine.replay fresh events with
            | Error msg ->
                journal_digest_ok := false;
                violate tally ("journal replay: " ^ msg)
            | Ok _ ->
                if Engine.digest fresh <> deepest then begin
                  journal_digest_ok := false;
                  violate tally "journal replay diverged from the live digest"
                end
                else Server.set_engine srv fresh));
        apply_actions srv vclock tally ~context:(label ^ " regional recovery")
          (List.map (fun (u, v) -> Wire.Recover_link (u, v)) reg_links);
        (* Phase 4 — flash crowd: a burst of hub-bound queries arrives
           faster than the pump drains. Admission must shed the excess
           (queue budget + queued-too-long deadlines) and serve the
           rest; on the healthy network every served query must be
           delivered. *)
        let hub = Random.State.int rng n in
        let crowd =
          Workload.zipf_pairs ~rng
            ~alive:(List.filter (fun v -> v <> hub) all_nodes)
            ~s:0.0 ~count:cfg.burst
        in
        let pt = new_phase_tally () in
        let responses = ref [] in
        List.iter
          (fun (src, _) ->
            vclock := !vclock +. 1.0;
            Server.submit srv
              (Wire.Route { src; dst = hub })
              (fun s -> responses := s :: !responses))
          crowd;
        Server.pump srv;
        List.iter
          (fun line -> account tally pt ~context:(label ^ " crowd") line)
          (List.rev !responses);
        if pt.p_requests <> cfg.burst then
          violate tally
            (Printf.sprintf "crowd: %d/%d responses arrived" pt.p_requests
               cfg.burst);
        if cfg.burst > cfg.max_queue && pt.p_shed = 0 then
          violate tally "crowd: burst exceeded the queue budget but nothing shed";
        if pt.p_delivered + pt.p_shed <> pt.p_requests then
          violate tally
            (Printf.sprintf
               "crowd: %d requests neither delivered nor shed on a healthy network"
               (pt.p_requests - pt.p_delivered - pt.p_shed));
        let crowd_phase = finish_phase srv "crowd" pt in
        (* Phase 5 — convergence: all faults recovered above, so the
           digest must be back to its initial bytes. *)
        let digest_converged = Engine.digest (Server.engine srv) = initial_digest in
        if not digest_converged then
          violate tally "final digest did not converge to the initial state";
        Journal.close journal;
        let phases = [ baseline; gray; regional; crowd_phase ] in
        let total_requests =
          List.fold_left (fun a (p : phase) -> a + p.requests) 0 phases
        in
        let delivered =
          List.fold_left (fun a (p : phase) -> a + p.delivered) 0 phases
        in
        let shed = List.fold_left (fun a (p : phase) -> a + p.shed) 0 phases in
        let delivery_rate =
          if total_requests = 0 then 1.0
          else float_of_int delivered /. float_of_int total_requests
        in
        let p50_ms, p99_ms =
          match Stats.percentiles_of (Array.of_list tally.lats) ~ps:[ 50.0; 99.0 ] with
          | [ a; b ] -> (a, b)
          | _ -> assert false
        in
        let slo_breached =
          match p99_ms with Some v -> v > cfg.slo_p99_ms | None -> false
        in
        if slo_breached then
          violate tally
            (Printf.sprintf "p99 %.3fms over the %.3fms SLO"
               (Option.value ~default:0.0 p99_ms)
               cfg.slo_p99_ms);
        let violations = recorded_violations tally in
        let exit =
          if violations <> [] || not !journal_digest_ok || not digest_converged
          then Exit_code.Breach
          else Exit_code.Clean
        in
        {
          phases;
          total_requests;
          delivered;
          shed;
          delivery_rate;
          virtual_ticks = int_of_float !vclock;
          journal_digest_ok = !journal_digest_ok;
          digest_converged;
          certified;
          slo_breached;
          p50_ms;
          p99_ms;
          violations;
          infra = None;
          exit;
        }
  end

let phase_json p =
  let open Sjson in
  Obj
    [
      ("name", Str p.name);
      ("requests", Int p.requests);
      ("delivered", Int p.delivered);
      ("degraded", Int p.degraded);
      ("unreachable", Int p.unreachable);
      ("shed", Int p.shed);
      ("digest", Str p.digest);
    ]

(* The artifact is deterministic by construction: every field is a
   function of (construction, config) alone. Wall-clock percentiles
   are deliberately absent — the SLO verdict boolean is carried, the
   raw milliseconds go to stdout. *)
let to_json (cfg : config) o =
  let open Sjson in
  Obj
    [
      ("version", Str "ftr-chaos/1");
      ( "config",
        Obj
          [
            ("queries", Int cfg.queries);
            ("burst", Int cfg.burst);
            ("max_queue", Int cfg.max_queue);
            ("deadline_ticks", Float cfg.deadline_ticks);
            ("gray_factor", Float cfg.gray_factor);
            ("radius", Int cfg.radius);
            ("zipf_s", Float cfg.zipf_s);
            ("min_delivery", Float cfg.min_delivery);
            ("seed", Int cfg.seed);
            ("certify", Bool cfg.certify);
          ] );
      ("phases", Arr (List.map phase_json o.phases));
      ("total_requests", Int o.total_requests);
      ("delivered", Int o.delivered);
      ("shed", Int o.shed);
      ("delivery_rate", Float o.delivery_rate);
      ("virtual_ticks", Int o.virtual_ticks);
      ("journal_digest_ok", Bool o.journal_digest_ok);
      ("digest_converged", Bool o.digest_converged);
      ( "certified",
        match o.certified with
        | Some (b, k) -> Obj [ ("bound", Int b); ("faults", Int k) ]
        | None -> Null );
      ("slo_breached", Bool o.slo_breached);
      ("violations", Arr (List.map (fun v -> Str v) o.violations));
      ("infra", match o.infra with Some m -> Str m | None -> Null);
      ("exit", Str (Exit_code.describe o.exit));
      ("exit_code", Int (Exit_code.to_int o.exit));
    ]
