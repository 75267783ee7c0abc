open Ftr_graph
open Ftr_core
open Ftr_sim

let test_single_job () =
  let sim = Sim.create () in
  let q = Queueing.create ~n:4 ~service_time:10.0 in
  let done_at = ref nan in
  Queueing.enqueue q sim ~node:2 (fun () -> done_at := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "service time" 10.0 !done_at;
  Alcotest.(check int) "served" 1 (Queueing.served q);
  Alcotest.(check (float 1e-9)) "no wait" 0.0 (Queueing.total_wait q)

let test_fifo_queueing () =
  let sim = Sim.create () in
  let q = Queueing.create ~n:2 ~service_time:10.0 in
  let finishes = ref [] in
  (* three simultaneous jobs on node 0: finish at 10, 20, 30 *)
  for i = 1 to 3 do
    Queueing.enqueue q sim ~node:0 (fun () -> finishes := (i, Sim.now sim) :: !finishes)
  done;
  Sim.run sim;
  Alcotest.(check (list (pair int (float 1e-9))))
    "staggered" [ (1, 10.0); (2, 20.0); (3, 30.0) ] (List.rev !finishes);
  (* second waited 10, third waited 20 *)
  Alcotest.(check (float 1e-9)) "total wait" 30.0 (Queueing.total_wait q)

let test_parallel_nodes_independent () =
  let sim = Sim.create () in
  let q = Queueing.create ~n:2 ~service_time:10.0 in
  let times = ref [] in
  Queueing.enqueue q sim ~node:0 (fun () -> times := Sim.now sim :: !times);
  Queueing.enqueue q sim ~node:1 (fun () -> times := Sim.now sim :: !times);
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "both at 10" [ 10.0; 10.0 ] !times

let test_server_drains () =
  let sim = Sim.create () in
  let q = Queueing.create ~n:1 ~service_time:5.0 in
  Queueing.enqueue q sim ~node:0 ignore;
  Sim.run sim;
  (* a job arriving after the server idles starts immediately *)
  Sim.schedule sim ~delay:20.0 (fun () -> Queueing.enqueue q sim ~node:0 ignore);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "no second wait" 0.0 (Queueing.total_wait q);
  Alcotest.(check (option (pair int int))) "busiest" (Some (0, 2)) (Queueing.busiest q)

let test_busiest_empty_network () =
  (* n = 0 used to index served.(0) and raise Invalid_argument. *)
  let q = Queueing.create ~n:0 ~service_time:1.0 in
  Alcotest.(check (option (pair int int))) "no servers" None (Queueing.busiest q);
  Alcotest.(check int) "served" 0 (Queueing.served q)

let test_send_queued_hotspot_slower () =
  (* Two workloads on the same fabric: spread vs all-to-one. The
     hotspot one must have strictly larger total latency. *)
  let g = Families.torus 5 5 in
  let c = Kernel.make g ~t:3 in
  let run entries =
    let net = Fault_model.create c.Construction.routing in
    let sim = Sim.create () in
    let servers = Queueing.create ~n:25 ~service_time:10.0 in
    let msgs =
      Protocol.deliver_all_queued sim net servers Protocol.default_config entries
    in
    List.fold_left
      (fun acc m -> acc +. Option.value ~default:0.0 (Message.latency m))
      0.0 msgs
  in
  let spread = List.init 20 (fun i -> (0.0, (i + 1) mod 25, (i + 5) mod 25)) in
  let hotspot = List.init 20 (fun i -> (0.0, (i + 1) mod 24 + 1, 0)) in
  Alcotest.(check bool) "hotspot slower" true (run hotspot > run spread)

let test_send_queued_matches_fixed_when_idle () =
  (* A single message sees no queueing: same delivery time as the
     fixed-overhead model. *)
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Bidirectional in
  Routing.add_edge_routes r;
  let run queued =
    let net = Fault_model.create r in
    let sim = Sim.create () in
    let msg =
      if queued then
        let servers = Queueing.create ~n:6 ~service_time:10.0 in
        Protocol.send_queued sim net servers Protocol.default_config ~id:0 ~src:0 ~dst:2 ()
      else Protocol.send sim net Protocol.default_config ~id:0 ~src:0 ~dst:2 ()
    in
    Sim.run sim;
    Option.get (Message.latency msg)
  in
  Alcotest.(check (float 1e-9)) "same latency" (run false) (run true)

let test_send_queued_reroutes_around_fault () =
  (* Queueing and fault re-planning compose: kill a node mid-fabric
     and check queued delivery still routes around it. *)
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Bidirectional in
  Routing.add r (Path.of_list [ 0; 1; 2 ]);
  Routing.add_edge_routes r;
  let net = Fault_model.create r in
  Fault_model.fail_node net 1;
  let sim = Sim.create () in
  let servers = Queueing.create ~n:6 ~service_time:10.0 in
  let msg =
    Protocol.send_queued sim net servers Protocol.default_config ~id:0 ~src:0 ~dst:2 ()
  in
  Sim.run sim;
  Alcotest.(check bool) "delivered" true (msg.Message.status = Message.Delivered);
  Alcotest.(check int) "detour: 4 routes" 4 msg.Message.routes_traversed;
  Alcotest.(check int) "one retry" 1 msg.Message.retries

let test_negative_service_rejected () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Queueing.create: negative service time") (fun () ->
      ignore (Queueing.create ~n:1 ~service_time:(-1.0)))

let () =
  Alcotest.run "queueing"
    [
      ( "queueing",
        [
          Alcotest.test_case "single job" `Quick test_single_job;
          Alcotest.test_case "FIFO" `Quick test_fifo_queueing;
          Alcotest.test_case "parallel nodes" `Quick test_parallel_nodes_independent;
          Alcotest.test_case "drains" `Quick test_server_drains;
          Alcotest.test_case "busiest on empty network" `Quick test_busiest_empty_network;
          Alcotest.test_case "hotspot slower" `Quick test_send_queued_hotspot_slower;
          Alcotest.test_case "idle matches fixed" `Quick test_send_queued_matches_fixed_when_idle;
          Alcotest.test_case "queued reroute" `Quick test_send_queued_reroutes_around_fault;
          Alcotest.test_case "validation" `Quick test_negative_service_rejected;
        ] );
    ]
