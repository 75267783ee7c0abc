open Ftr_graph
open Ftr_core
open Ftr_sim

let edge_net () =
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Bidirectional in
  Routing.add_edge_routes r;
  Fault_model.create r

let crashes es =
  List.filter_map
    (fun e -> match e.Faults.action with `Crash v -> Some (e.Faults.at, v) | _ -> None)
    es

let recoveries es =
  List.filter_map
    (fun e -> match e.Faults.action with `Recover v -> Some (e.Faults.at, v) | _ -> None)
    es

let downs es =
  List.filter_map
    (fun e ->
      match e.Faults.action with `LinkDown (u, v) -> Some (e.Faults.at, (u, v)) | _ -> None)
    es

let ups es =
  List.filter_map
    (fun e ->
      match e.Faults.action with `LinkUp (u, v) -> Some (e.Faults.at, (u, v)) | _ -> None)
    es

let sorted_by_time es =
  let times = List.map (fun e -> e.Faults.at) es in
  List.sort compare times = times

let test_crash_set_at () =
  let events = Faults.crash_set_at ~at:5.0 [ 1; 2 ] in
  Alcotest.(check int) "two events" 2 (List.length events);
  List.iter (fun e -> Alcotest.(check (float 0.0)) "time" 5.0 e.Faults.at) events;
  Alcotest.(check (list (pair (float 0.0) int))) "all crashes" [ (5.0, 1); (5.0, 2) ]
    (crashes events)

let test_link_set_at () =
  let events = Faults.link_set_at ~at:3.0 [ (0, 1); (4, 5) ] in
  Alcotest.(check int) "two events" 2 (List.length events);
  Alcotest.(check (list (pair (float 0.0) (pair int int))))
    "all downs"
    [ (3.0, (0, 1)); (3.0, (4, 5)) ]
    (downs events)

let test_random_crashes_distinct () =
  let rng = Random.State.make [| 4 |] in
  let events = Faults.random_crashes ~rng ~n:10 ~count:5 ~window:(1.0, 2.0) in
  Alcotest.(check int) "five" 5 (List.length events);
  let nodes = List.map snd (crashes events) in
  Alcotest.(check int) "distinct nodes" 5 (List.length (List.sort_uniq compare nodes));
  List.iter
    (fun e ->
      Alcotest.(check bool) "in window" true (e.Faults.at >= 1.0 && e.Faults.at <= 2.0))
    events

let test_random_crashes_bounds () =
  let rng = Random.State.make [| 4 |] in
  Alcotest.check_raises "count > n" (Invalid_argument "Faults.random_crashes: count > n")
    (fun () -> ignore (Faults.random_crashes ~rng ~n:3 ~count:4 ~window:(0.0, 1.0)))

let test_churn_pairs () =
  let rng = Random.State.make [| 4 |] in
  let events = Faults.churn ~rng ~n:10 ~count:4 ~window:(1.0, 2.0) ~dwell:0.5 in
  Alcotest.(check int) "a crash and a recovery per node" 8 (List.length events);
  let cs = crashes events and rs = recoveries events in
  Alcotest.(check int) "four crashes" 4 (List.length cs);
  List.iter
    (fun (at, v) ->
      let rat, _ = List.find (fun (_, rv) -> rv = v) rs in
      Alcotest.(check (float 1e-9)) "recovery after dwell" (at +. 0.5) rat;
      Alcotest.(check bool) "crash in window" true (at >= 1.0 && at <= 2.0))
    cs;
  Alcotest.(check bool) "sorted by time" true (sorted_by_time events);
  Alcotest.check_raises "count > n" (Invalid_argument "Faults.churn: count > n")
    (fun () -> ignore (Faults.churn ~rng ~n:3 ~count:4 ~window:(0.0, 1.0) ~dwell:1.0))

let test_churn_recovery_past_window_end () =
  (* A dwell longer than the window pushes every recovery past the
     window's end; the schedule must keep them (sorted), and a full
     run must still heal completely. *)
  let rng = Random.State.make [| 11 |] in
  let events = Faults.churn ~rng ~n:6 ~count:3 ~window:(1.0, 2.0) ~dwell:10.0 in
  let rs = recoveries events in
  Alcotest.(check int) "three recoveries" 3 (List.length rs);
  List.iter
    (fun (at, _) ->
      Alcotest.(check bool) "recovery lands past the window end" true (at > 2.0))
    rs;
  Alcotest.(check bool) "sorted by time" true (sorted_by_time events);
  let net = edge_net () in
  let sim = Sim.create () in
  Faults.schedule_on sim net events;
  Sim.run ~until:2.0 sim;
  Alcotest.(check int) "all three down inside the window" 3 (Fault_model.node_fault_count net);
  Sim.run sim;
  Alcotest.(check int) "healed past the window" 0 (Fault_model.node_fault_count net)

let test_churn_applies_and_heals () =
  let net = edge_net () in
  let sim = Sim.create () in
  let rng = Random.State.make [| 9 |] in
  Faults.schedule_on sim net
    (Faults.churn ~rng ~n:6 ~count:3 ~window:(1.0, 2.0) ~dwell:1.0);
  Sim.run sim;
  Alcotest.(check int) "everyone recovered" 0 (Fault_model.node_fault_count net)

let test_random_link_flaps () =
  let g = Families.cycle 6 in
  let rng = Random.State.make [| 7 |] in
  let events = Faults.random_link_flaps ~rng ~g ~count:3 ~window:(1.0, 2.0) ~dwell:0.5 in
  Alcotest.(check int) "a down and an up per link" 6 (List.length events);
  let ds = downs events and us = ups events in
  Alcotest.(check int) "three downs" 3 (List.length ds);
  Alcotest.(check int) "distinct links" 3
    (List.length (List.sort_uniq compare (List.map snd ds)));
  List.iter
    (fun (at, e) ->
      let uat, _ = List.find (fun (_, ue) -> ue = e) us in
      Alcotest.(check (float 1e-9)) "up after dwell" (at +. 0.5) uat;
      Alcotest.(check bool) "down in window" true (at >= 1.0 && at <= 2.0))
    ds;
  Alcotest.(check bool) "sorted by time" true (sorted_by_time events);
  Alcotest.check_raises "count > m"
    (Invalid_argument "Faults.random_link_flaps: count > edge count") (fun () ->
      ignore (Faults.random_link_flaps ~rng ~g ~count:7 ~window:(0.0, 1.0) ~dwell:1.0))

let test_mixed_churn_schedule () =
  let g = Families.cycle 6 in
  let rng = Random.State.make [| 21 |] in
  let events = Faults.mixed_churn ~rng ~g ~nodes:2 ~links:2 ~window:(1.0, 2.0) ~dwell:0.5 in
  Alcotest.(check int) "two events per fault" 8 (List.length events);
  Alcotest.(check int) "two crashes" 2 (List.length (crashes events));
  Alcotest.(check int) "two link downs" 2 (List.length (downs events));
  Alcotest.(check bool) "sorted by time" true (sorted_by_time events);
  (* Install on a network: both kinds of fault must show up and then
     heal completely. *)
  let net = edge_net () in
  let sim = Sim.create () in
  Faults.schedule_on sim net events;
  Sim.run ~until:2.0 sim;
  Alcotest.(check bool) "some fault applied inside the window" true
    (Fault_model.node_fault_count net + Fault_model.edge_fault_count net > 0);
  Sim.run sim;
  Alcotest.(check int) "nodes healed" 0 (Fault_model.node_fault_count net);
  Alcotest.(check int) "links healed" 0 (Fault_model.edge_fault_count net)

let test_witness_waves () =
  let events =
    Faults.witness_waves ~start:10.0 ~dwell:5.0 ~gap:2.0 [ [ 1; 2 ]; [ 4 ] ]
  in
  Alcotest.(check int) "two events per fault" 6 (List.length events);
  let crash_at v = fst (List.find (fun (_, cv) -> cv = v) (crashes events)) in
  let recover_at v = fst (List.find (fun (_, rv) -> rv = v) (recoveries events)) in
  Alcotest.(check (float 1e-9)) "wave 1 crashes at start" 10.0 (crash_at 1);
  Alcotest.(check (float 1e-9)) "wave 1 recovers after dwell" 15.0 (recover_at 2);
  Alcotest.(check (float 1e-9)) "wave 2 starts after the gap" 17.0 (crash_at 4);
  Alcotest.(check (float 1e-9)) "wave 2 recovers" 22.0 (recover_at 4);
  (* Driving the simulator with a wave schedule ends fully healed. *)
  let net = edge_net () in
  let sim = Sim.create () in
  Faults.schedule_on sim net events;
  Sim.run ~until:12.0 sim;
  Alcotest.(check int) "wave 1 down" 2 (Fault_model.node_fault_count net);
  Sim.run sim;
  Alcotest.(check int) "all recovered" 0 (Fault_model.node_fault_count net)

let test_link_waves () =
  let events = Faults.link_waves ~start:10.0 ~dwell:5.0 ~gap:2.0 [ [ (1, 0); (2, 3) ]; [ (4, 5) ] ] in
  Alcotest.(check int) "two events per link" 6 (List.length events);
  let down_at e = fst (List.find (fun (_, de) -> de = e) (downs events)) in
  let up_at e = fst (List.find (fun (_, ue) -> ue = e) (ups events)) in
  Alcotest.(check (float 1e-9)) "wave 1 down at start (normalised)" 10.0 (down_at (0, 1));
  Alcotest.(check (float 1e-9)) "wave 1 up after dwell" 15.0 (up_at (2, 3));
  Alcotest.(check (float 1e-9)) "wave 2 down after the gap" 17.0 (down_at (4, 5));
  let net = edge_net () in
  let sim = Sim.create () in
  Faults.schedule_on sim net events;
  Sim.run ~until:12.0 sim;
  Alcotest.(check int) "wave 1 links down" 2 (Fault_model.edge_fault_count net);
  Alcotest.(check int) "no node faults" 0 (Fault_model.node_fault_count net);
  Sim.run sim;
  Alcotest.(check int) "all links back" 0 (Fault_model.edge_fault_count net)

let test_schedule_applies () =
  let net = edge_net () in
  let sim = Sim.create () in
  Faults.schedule_on sim net
    [
      { Faults.at = 1.0; action = `Crash 2 };
      { Faults.at = 2.0; action = `Recover 2 };
      { Faults.at = 3.0; action = `Crash 4 };
      { Faults.at = 3.0; action = `LinkDown (0, 1) };
    ];
  Sim.run ~until:1.5 sim;
  Alcotest.(check bool) "crashed at 1" true (Fault_model.is_faulty net 2);
  Sim.run ~until:2.5 sim;
  Alcotest.(check bool) "recovered at 2" false (Fault_model.is_faulty net 2);
  Sim.run sim;
  Alcotest.(check bool) "4 down at end" true (Fault_model.is_faulty net 4);
  Alcotest.(check int) "one node fault" 1 (Fault_model.node_fault_count net);
  Alcotest.(check bool) "link down at end" true (Fault_model.edge_failed net 1 0)

let degrades es =
  List.filter_map
    (fun e ->
      match e.Faults.action with
      | `LinkDegrade (u, v, f) -> Some (e.Faults.at, (u, v), f)
      | _ -> None)
    es

let restores es =
  List.filter_map
    (fun e ->
      match e.Faults.action with
      | `LinkRestore (u, v) -> Some (e.Faults.at, (u, v))
      | _ -> None)
    es

let test_gray_flaps () =
  let rng = Random.State.make [| 11 |] in
  let g = Families.cycle 6 in
  let events =
    Faults.gray_flaps ~rng ~g ~count:3 ~window:(1.0, 2.0) ~dwell:0.5 ~factor:4.0
  in
  Alcotest.(check int) "degrade/restore pairs" 6 (List.length events);
  Alcotest.(check bool) "sorted" true (sorted_by_time events);
  let d = degrades events and r = restores events in
  Alcotest.(check int) "three degrades" 3 (List.length d);
  let d_links = List.sort compare (List.map (fun (_, l, _) -> l) d) in
  let r_links = List.sort compare (List.map snd r) in
  Alcotest.(check int) "distinct links" 3
    (List.length (List.sort_uniq compare d_links));
  Alcotest.(check bool) "every degrade restored" true (d_links = r_links);
  List.iter
    (fun (at, _, f) ->
      Alcotest.(check (float 0.0)) "factor carried" 4.0 f;
      Alcotest.(check bool) "in window" true (at >= 1.0 && at <= 2.0))
    d

let test_region () =
  let g = Families.cycle 6 in
  Alcotest.(check (list int)) "radius 0" [ 2 ] (Faults.region g ~center:2 ~radius:0);
  Alcotest.(check (list int)) "radius 1" [ 1; 2; 3 ]
    (Faults.region g ~center:2 ~radius:1);
  Alcotest.(check (list int)) "radius covers all" [ 0; 1; 2; 3; 4; 5 ]
    (Faults.region g ~center:2 ~radius:3);
  Alcotest.(check (list (pair int int))) "ball links" [ (1, 2); (2, 3) ]
    (Faults.region_links g ~center:2 ~radius:1)

let test_regional_waves () =
  let rng = Random.State.make [| 5 |] in
  let g = Families.torus 4 4 in
  let events =
    Faults.regional_waves ~rng ~g ~waves:2 ~radius:1 ~start:1.0 ~dwell:2.0
      ~gap:1.0
  in
  Alcotest.(check bool) "sorted" true (sorted_by_time events);
  let d = downs events and u = ups events in
  Alcotest.(check bool) "downs match ups" true
    (List.sort compare (List.map snd d) = List.sort compare (List.map snd u));
  (* wave 1 drops at t=1, recovers at t=3; wave 2 at t=4/6 *)
  let wave1 = List.filter (fun (at, _) -> at = 1.0) d in
  let wave2 = List.filter (fun (at, _) -> at = 4.0) d in
  Alcotest.(check int) "two wave fronts" (List.length d)
    (List.length wave1 + List.length wave2);
  (* a radius-1 ball in the 4x4 torus contains the 4 spokes *)
  Alcotest.(check bool) "correlated blast area" true (List.length wave1 >= 4)

let test_gray_schedule_applies () =
  let net = edge_net () in
  let sim = Sim.create () in
  Faults.schedule_on sim net
    [
      { Faults.at = 1.0; action = `LinkDegrade (0, 1, 8.0) };
      { Faults.at = 2.0; action = `LinkRestore (0, 1) };
    ];
  Sim.run ~until:1.5 sim;
  Alcotest.(check (float 0.0)) "degraded at 1" 8.0
    (Fault_model.edge_degradation net 0 1);
  Alcotest.(check bool) "but never faulty" false
    (Fault_model.edge_failed net 0 1);
  Sim.run sim;
  Alcotest.(check (float 0.0)) "restored at 2" 1.0
    (Fault_model.edge_degradation net 0 1)

let () =
  Alcotest.run "faults"
    [
      ( "faults",
        [
          Alcotest.test_case "crash_set_at" `Quick test_crash_set_at;
          Alcotest.test_case "link_set_at" `Quick test_link_set_at;
          Alcotest.test_case "random distinct" `Quick test_random_crashes_distinct;
          Alcotest.test_case "bounds" `Quick test_random_crashes_bounds;
          Alcotest.test_case "churn pairs crash/recover" `Quick test_churn_pairs;
          Alcotest.test_case "churn recovery past window end" `Quick
            test_churn_recovery_past_window_end;
          Alcotest.test_case "churn applies and heals" `Quick
            test_churn_applies_and_heals;
          Alcotest.test_case "random link flaps" `Quick test_random_link_flaps;
          Alcotest.test_case "mixed node/link schedule" `Quick test_mixed_churn_schedule;
          Alcotest.test_case "witness waves" `Quick test_witness_waves;
          Alcotest.test_case "link waves" `Quick test_link_waves;
          Alcotest.test_case "schedule applies" `Quick test_schedule_applies;
          Alcotest.test_case "gray flaps" `Quick test_gray_flaps;
          Alcotest.test_case "region + region links" `Quick test_region;
          Alcotest.test_case "regional waves" `Quick test_regional_waves;
          Alcotest.test_case "gray schedule applies" `Quick
            test_gray_schedule_applies;
        ] );
    ]
