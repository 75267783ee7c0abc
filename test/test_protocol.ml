open Ftr_graph
open Ftr_core
open Ftr_sim

let edge_net () =
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Bidirectional in
  Routing.add_edge_routes r;
  Fault_model.create r

let config = Protocol.default_config

let test_direct_delivery () =
  let net = edge_net () in
  let sim = Sim.create () in
  let msg = Protocol.send sim net config ~id:0 ~src:0 ~dst:1 () in
  Sim.run sim;
  Alcotest.(check bool) "delivered" true (msg.Message.status = Message.Delivered);
  Alcotest.(check int) "one route" 1 msg.Message.routes_traversed;
  Alcotest.(check int) "one hop" 1 msg.Message.hops;
  Alcotest.(check int) "no retries" 0 msg.Message.retries;
  (match Message.latency msg with
  | Some l -> Alcotest.(check (float 1e-9)) "endpoint + hop" 11.0 l
  | None -> Alcotest.fail "no latency")

let test_multihop_delivery () =
  let net = edge_net () in
  let sim = Sim.create () in
  let msg = Protocol.send sim net config ~id:0 ~src:0 ~dst:3 () in
  Sim.run sim;
  Alcotest.(check bool) "delivered" true (msg.Message.status = Message.Delivered);
  Alcotest.(check int) "three routes (edge routing)" 3 msg.Message.routes_traversed;
  Alcotest.(check int) "three hops" 3 msg.Message.hops

let test_self_delivery () =
  let net = edge_net () in
  let sim = Sim.create () in
  let msg = Protocol.send sim net config ~id:0 ~src:2 ~dst:2 () in
  Alcotest.(check bool) "instant" true (msg.Message.status = Message.Delivered);
  Alcotest.(check int) "no routes" 0 msg.Message.routes_traversed

let test_faulty_source_undeliverable () =
  let net = edge_net () in
  Fault_model.fail_node net 0;
  let sim = Sim.create () in
  let msg = Protocol.send sim net config ~id:0 ~src:0 ~dst:3 () in
  Sim.run sim;
  Alcotest.(check bool) "undeliverable" true (msg.Message.status = Message.Undeliverable)

let test_faulty_destination_undeliverable () =
  let net = edge_net () in
  Fault_model.fail_node net 3;
  let sim = Sim.create () in
  let msg = Protocol.send sim net config ~id:0 ~src:0 ~dst:3 () in
  Sim.run sim;
  Alcotest.(check bool) "undeliverable" true (msg.Message.status = Message.Undeliverable)

let test_reroute_around_fault () =
  (* Routing with a long fixed route 0->2 via 1; kill 1: the sender
     pays a retry, then re-plans via surviving edge routes. *)
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Bidirectional in
  Routing.add r (Path.of_list [ 0; 1; 2 ]);
  Routing.add_edge_routes r;
  let net = Fault_model.create r in
  Fault_model.fail_node net 1;
  let sim = Sim.create () in
  let msg = Protocol.send sim net config ~id:0 ~src:0 ~dst:2 () in
  Sim.run sim;
  Alcotest.(check bool) "delivered" true (msg.Message.status = Message.Delivered);
  Alcotest.(check int) "one retry" 1 msg.Message.retries;
  Alcotest.(check int) "long way: 4 routes" 4 msg.Message.routes_traversed

let test_mid_flight_crash () =
  (* Crash a node while the message is in transit: the next boundary
     check catches it. *)
  let net = edge_net () in
  let sim = Sim.create () in
  (* message 0 -> 3 via 1, 2; crash 2 just after the first hop *)
  let msg = Protocol.send sim net config ~id:0 ~src:0 ~dst:3 () in
  Sim.schedule sim ~delay:12.0 (fun () -> Fault_model.fail_node net 2);
  Sim.run sim;
  Alcotest.(check bool) "delivered anyway" true (msg.Message.status = Message.Delivered);
  Alcotest.(check bool) "made a detour" true (msg.Message.retries >= 1)

(* ---------------- churn hardening ---------------- *)

(* Fixed route 0->2 via a crashed node 1: the sender pays one nack and
   re-plans. With a zero re-plan budget that nack is a dead letter. *)
let stale_route_net () =
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Bidirectional in
  Routing.add r (Path.of_list [ 0; 1; 2 ]);
  Routing.add_edge_routes r;
  let net = Fault_model.create r in
  Fault_model.fail_node net 1;
  net

let test_replan_budget_dead_letter () =
  let net = stale_route_net () in
  let sim = Sim.create () in
  let msg =
    Protocol.send sim net { config with Protocol.max_replans = 0 } ~id:0 ~src:0
      ~dst:2 ()
  in
  Sim.run sim;
  Alcotest.(check bool) "dead letter" true
    (msg.Message.status = Message.DeadLetter);
  Alcotest.(check int) "no re-plan was granted" 0 msg.Message.retries;
  (* one more re-plan in the budget is enough to deliver *)
  let sim = Sim.create () in
  let msg =
    Protocol.send sim net { config with Protocol.max_replans = 1 } ~id:1 ~src:0
      ~dst:2 ()
  in
  Sim.run sim;
  Alcotest.(check bool) "budget of one delivers" true
    (msg.Message.status = Message.Delivered)

let test_deadline_dead_letter () =
  let net = stale_route_net () in
  let sim = Sim.create () in
  let msg =
    Protocol.send sim net { config with Protocol.deadline = Some 0.0 } ~id:0
      ~src:0 ~dst:2 ()
  in
  Sim.run sim;
  Alcotest.(check bool) "expired at the first nack" true
    (msg.Message.status = Message.DeadLetter)

(* Two nacks with churn: crash 1 up front (nack at send), then crash 5
   mid-flight while recovering 1 (nack at the boundary), so the second
   re-plan succeeds through 1. The second nack delay is where the
   exponential backoff shows. *)
let double_nack_latency ~backoff ~deadline =
  let net = stale_route_net () in
  let sim = Sim.create () in
  Sim.schedule sim ~delay:10.0 (fun () ->
      Fault_model.fail_node net 5;
      Fault_model.recover_node net 1);
  let msg =
    Protocol.send sim net
      { config with Protocol.backoff; deadline }
      ~id:0 ~src:0 ~dst:2 ()
  in
  Sim.run sim;
  msg

let test_exponential_backoff () =
  let legacy = double_nack_latency ~backoff:1.0 ~deadline:None in
  let backed = double_nack_latency ~backoff:2.0 ~deadline:None in
  Alcotest.(check bool) "both delivered" true
    (legacy.Message.status = Message.Delivered
    && backed.Message.status = Message.Delivered);
  Alcotest.(check int) "two re-plans (legacy)" 2 legacy.Message.retries;
  Alcotest.(check int) "two re-plans (backed off)" 2 backed.Message.retries;
  let lat m = Option.get (Message.latency m) in
  (* the only difference is the second nack: nack * (2^1 - 1^1) *)
  Alcotest.(check (float 1e-9))
    "backoff adds exactly one extra nack_latency" 5.0
    (lat backed -. lat legacy)

let test_deadline_cuts_thrashing () =
  (* Same churn, but a deadline between the first and second nack: the
     second nack finds the message expired. *)
  let msg = double_nack_latency ~backoff:1.0 ~deadline:(Some 10.0) in
  Alcotest.(check bool) "dead letter under churn" true
    (msg.Message.status = Message.DeadLetter);
  Alcotest.(check int) "only the first re-plan ran" 1 msg.Message.retries

(* The same double-nack churn, with the full config in the caller's
   hands (the helper above only varies backoff and deadline). *)
let double_nack_msg config =
  let net = stale_route_net () in
  let sim = Sim.create () in
  Sim.schedule sim ~delay:10.0 (fun () ->
      Fault_model.fail_node net 5;
      Fault_model.recover_node net 1);
  let msg = Protocol.send sim net config ~id:0 ~src:0 ~dst:2 () in
  Sim.run sim;
  msg

let test_replan_budget_binds_exactly () =
  (* Two nacks are needed. A budget of exactly two delivers, and the
     backoff applied at the last permitted re-plan stays the finite
     nack_latency * backoff^(retries - 1) — with factor 4 the second
     nack waits 20 instead of 5, so exactly +15 latency. *)
  let lat m = Option.get (Message.latency m) in
  let backed =
    double_nack_msg { config with Protocol.max_replans = 2; backoff = 4.0 }
  in
  let flat =
    double_nack_msg { config with Protocol.max_replans = 2; backoff = 1.0 }
  in
  Alcotest.(check bool) "budget of two delivers (both)" true
    (backed.Message.status = Message.Delivered
    && flat.Message.status = Message.Delivered);
  Alcotest.(check int) "the whole budget was spent" 2 backed.Message.retries;
  Alcotest.(check (float 1e-9))
    "backoff at the bound is exactly one quadrupled nack" 15.0
    (lat backed -. lat flat);
  (* One re-plan fewer: the second nack exhausts the budget and the
     message dead-letters instead of backing off forever. *)
  let short =
    double_nack_msg { config with Protocol.max_replans = 1; backoff = 4.0 }
  in
  Alcotest.(check bool) "budget of one dead-letters" true
    (short.Message.status = Message.DeadLetter);
  Alcotest.(check int) "no re-plan beyond the bound" 1 short.Message.retries

let test_deadline_exact_boundaries () =
  (* The deadline is checked at nacks only, never on the delivery
     path: a message arriving exactly at its deadline with no nack is
     Delivered, not a dead letter. *)
  let net = edge_net () in
  let sim = Sim.create () in
  let msg =
    Protocol.send sim net
      { config with Protocol.deadline = Some 11.0 }
      ~id:0 ~src:0 ~dst:1 ()
  in
  Sim.run sim;
  Alcotest.(check bool) "exact-deadline arrival is delivered" true
    (msg.Message.status = Message.Delivered);
  Alcotest.(check (float 1e-9)) "arrived exactly at the deadline" 11.0
    (Option.get (Message.latency msg));
  (* A nack landing exactly on the deadline expires (>= binds): the
     double-nack scenario's second nack fires at t = 16. *)
  let at_nack = double_nack_msg { config with Protocol.deadline = Some 16.0 } in
  Alcotest.(check bool) "nack exactly at the deadline expires" true
    (at_nack.Message.status = Message.DeadLetter);
  Alcotest.(check int) "only the first re-plan ran" 1 at_nack.Message.retries;
  let past_nack =
    double_nack_msg { config with Protocol.deadline = Some 16.5 }
  in
  Alcotest.(check bool) "a hair later and it delivers" true
    (past_nack.Message.status = Message.Delivered)

let test_hardened_matches_legacy_under_static_faults () =
  (* One nack, re-plan, delivered: the hardened limits never bind, so
     timings and counters agree with the legacy config. *)
  let run config =
    let net = stale_route_net () in
    let sim = Sim.create () in
    let msg = Protocol.send sim net config ~id:0 ~src:0 ~dst:2 () in
    Sim.run sim;
    msg
  in
  let legacy = run Protocol.default_config in
  let hard = run Protocol.hardened_config in
  Alcotest.(check bool) "both delivered" true
    (legacy.Message.status = Message.Delivered
    && hard.Message.status = Message.Delivered);
  Alcotest.(check int) "same retries" legacy.Message.retries hard.Message.retries;
  Alcotest.(check (float 1e-9))
    "same latency"
    (Option.get (Message.latency legacy))
    (Option.get (Message.latency hard))

let test_deliver_all_order () =
  let net = edge_net () in
  let sim = Sim.create () in
  let msgs =
    Protocol.deliver_all sim net config [ (0.0, 0, 1); (5.0, 1, 2); (10.0, 2, 3) ]
  in
  Alcotest.(check int) "three" 3 (List.length msgs);
  List.iteri (fun i m -> Alcotest.(check int) "ids in order" i m.Message.id) msgs;
  Alcotest.(check bool) "all delivered" true
    (List.for_all (fun m -> m.Message.status = Message.Delivered) msgs)

let test_broadcast_full () =
  let net = edge_net () in
  let r = Protocol.broadcast net ~origin:0 ~counter_bound:10 in
  Alcotest.(check int) "reaches all" 6 r.Protocol.reached;
  Alcotest.(check int) "rounds = eccentricity" 3 r.Protocol.rounds

let test_broadcast_counter_bound () =
  let net = edge_net () in
  let r = Protocol.broadcast net ~origin:0 ~counter_bound:1 in
  Alcotest.(check int) "one round" 3 r.Protocol.reached;
  Alcotest.(check int) "rounds capped" 1 r.Protocol.rounds

let test_broadcast_with_faults_bounded_by_diameter () =
  let net = edge_net () in
  Fault_model.fail_node net 1;
  let diam =
    match Fault_model.diameter net with
    | Metrics.Finite d -> d
    | Metrics.Infinite -> Alcotest.fail "should stay connected"
  in
  let r = Protocol.broadcast net ~origin:0 ~counter_bound:diam in
  Alcotest.(check int) "reaches all survivors" 5 r.Protocol.reached;
  Alcotest.(check bool) "rounds <= diameter" true (r.Protocol.rounds <= diam)

let test_broadcast_faulty_origin_rejected () =
  let net = edge_net () in
  Fault_model.fail_node net 0;
  Alcotest.check_raises "faulty origin" (Invalid_argument "Protocol.broadcast: faulty origin")
    (fun () -> ignore (Protocol.broadcast net ~origin:0 ~counter_bound:3))

let test_broadcast_async_reaches_all () =
  let net = edge_net () in
  let sim = Sim.create () in
  let r = Protocol.broadcast_async sim net config ~origin:0 ~counter_bound:10 in
  Alcotest.(check int) "reached" 6 r.Protocol.a_reached;
  Alcotest.(check bool) "copies sent" true (r.Protocol.a_copies > 0);
  Alcotest.(check bool) "takes time" true (r.Protocol.a_finished_at > 0.0)

let test_broadcast_async_counter_cuts () =
  let net = edge_net () in
  let sim = Sim.create () in
  let r = Protocol.broadcast_async sim net config ~origin:0 ~counter_bound:1 in
  (* one forwarding step from the origin: the origin plus its two
     route successors *)
  Alcotest.(check int) "origin + neighbors" 3 r.Protocol.a_reached

let test_broadcast_async_under_faults () =
  let net = edge_net () in
  Fault_model.fail_node net 1;
  let sim = Sim.create () in
  let r = Protocol.broadcast_async sim net config ~origin:0 ~counter_bound:10 in
  Alcotest.(check int) "reaches the 5 survivors" 5 r.Protocol.a_reached

let test_broadcast_async_faulty_origin () =
  let net = edge_net () in
  Fault_model.fail_node net 0;
  let sim = Sim.create () in
  Alcotest.check_raises "faulty origin"
    (Invalid_argument "Protocol.broadcast_async: faulty origin") (fun () ->
      ignore (Protocol.broadcast_async sim net config ~origin:0 ~counter_bound:3))

(* ---------------- gray failures ---------------- *)

let test_degraded_link_slows_delivery () =
  let net = edge_net () in
  Fault_model.degrade_edge net 0 1 ~factor:4.0;
  let sim = Sim.create () in
  let msg = Protocol.send sim net config ~id:0 ~src:0 ~dst:1 () in
  Sim.run sim;
  Alcotest.(check bool) "still delivered" true
    (msg.Message.status = Message.Delivered);
  Alcotest.(check int) "no retries: slowed, not cut" 0 msg.Message.retries;
  (match Message.latency msg with
  (* endpoint 10 + hop 1 * factor 4 *)
  | Some l -> Alcotest.(check (float 1e-9)) "4x transit" 14.0 l
  | None -> Alcotest.fail "no latency")

let test_degraded_transit_is_per_route_mean () =
  let net = edge_net () in
  Fault_model.degrade_edge net 1 2 ~factor:4.0;
  let sim = Sim.create () in
  let msg = Protocol.send sim net config ~id:0 ~src:0 ~dst:3 () in
  Sim.run sim;
  Alcotest.(check bool) "delivered" true (msg.Message.status = Message.Delivered);
  (match Message.latency msg with
  (* three single-hop edge routes: 3 endpoints + transits 1, 4, 1 *)
  | Some l -> Alcotest.(check (float 1e-9)) "one slow hop" 36.0 l
  | None -> Alcotest.fail "no latency");
  Fault_model.restore_edge net 1 2;
  let sim = Sim.create () in
  let msg = Protocol.send sim net config ~id:1 ~src:0 ~dst:3 () in
  Sim.run sim;
  match Message.latency msg with
  | Some l -> Alcotest.(check (float 1e-9)) "healthy again" 33.0 l
  | None -> Alcotest.fail "no latency"

let test_degraded_network_reports_no_faults () =
  let net = edge_net () in
  Fault_model.degrade_edge net 0 1 ~factor:16.0;
  Fault_model.degrade_edge net 2 3 ~factor:2.0;
  Alcotest.(check int) "no hard faults" 0 (Fault_model.node_fault_count net);
  Alcotest.(check bool) "link not faulty" false (Fault_model.edge_failed net 0 1);
  Alcotest.(check int) "two degraded" 2 (Fault_model.degraded_edge_count net);
  Alcotest.(check (list (pair (pair int int) (float 0.0))))
    "sorted inventory"
    [ ((0, 1), 16.0); ((2, 3), 2.0) ]
    (List.map (fun (u, v, f) -> ((u, v), f)) (Fault_model.degraded_edges net))

let () =
  Alcotest.run "protocol"
    [
      ( "protocol",
        [
          Alcotest.test_case "direct delivery" `Quick test_direct_delivery;
          Alcotest.test_case "multihop delivery" `Quick test_multihop_delivery;
          Alcotest.test_case "self delivery" `Quick test_self_delivery;
          Alcotest.test_case "faulty source" `Quick test_faulty_source_undeliverable;
          Alcotest.test_case "faulty destination" `Quick test_faulty_destination_undeliverable;
          Alcotest.test_case "reroute around fault" `Quick test_reroute_around_fault;
          Alcotest.test_case "mid-flight crash" `Quick test_mid_flight_crash;
          Alcotest.test_case "deliver_all" `Quick test_deliver_all_order;
          Alcotest.test_case "re-plan budget dead letter" `Quick
            test_replan_budget_dead_letter;
          Alcotest.test_case "deadline dead letter" `Quick test_deadline_dead_letter;
          Alcotest.test_case "exponential backoff" `Quick test_exponential_backoff;
          Alcotest.test_case "deadline cuts thrashing" `Quick
            test_deadline_cuts_thrashing;
          Alcotest.test_case "re-plan budget binds exactly" `Quick
            test_replan_budget_binds_exactly;
          Alcotest.test_case "exact deadline boundaries" `Quick
            test_deadline_exact_boundaries;
          Alcotest.test_case "hardened = legacy under static faults" `Quick
            test_hardened_matches_legacy_under_static_faults;
          Alcotest.test_case "broadcast full" `Quick test_broadcast_full;
          Alcotest.test_case "broadcast counter bound" `Quick test_broadcast_counter_bound;
          Alcotest.test_case "broadcast under faults" `Quick test_broadcast_with_faults_bounded_by_diameter;
          Alcotest.test_case "broadcast faulty origin" `Quick test_broadcast_faulty_origin_rejected;
          Alcotest.test_case "async broadcast" `Quick test_broadcast_async_reaches_all;
          Alcotest.test_case "async counter bound" `Quick test_broadcast_async_counter_cuts;
          Alcotest.test_case "async under faults" `Quick test_broadcast_async_under_faults;
          Alcotest.test_case "async faulty origin" `Quick test_broadcast_async_faulty_origin;
          Alcotest.test_case "degraded link slows delivery" `Quick
            test_degraded_link_slows_delivery;
          Alcotest.test_case "degraded transit per-route mean" `Quick
            test_degraded_transit_is_per_route_mean;
          Alcotest.test_case "degraded network has no faults" `Quick
            test_degraded_network_reports_no_faults;
        ] );
    ]
