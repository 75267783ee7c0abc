(* A message-level story: a 49-node torus fabric carries steady
   traffic to a storage hotspot while three switches die mid-run. The
   paper's cost model says transmission time is dominated by per-route
   endpoint processing (encryption, error correction), so what matters
   is how many routes each message traverses - which the theorems
   bound by a constant.

   Run with:  dune exec examples/datacenter_sim.exe *)

open Ftr_graph
open Ftr_core
open Ftr_sim

let () =
  let g = Families.torus 7 7 in
  let t = 3 in
  let c = Kernel.make g ~t in
  let claim = List.hd c.Construction.claims in
  Printf.printf "fabric: torus 7x7 (49 switches), kernel routing, claim (%d, %d)\n"
    claim.Construction.diameter_bound claim.Construction.max_faults;

  let rng = Random.State.make [| 2026 |] in
  let net = Fault_model.create c.Construction.routing in
  let sim = Sim.create () in

  (* Three switches die at t=100, 150, 200. *)
  Faults.schedule_on sim net
    [
      { Faults.at = 100.0; action = `Crash 24 };
      { Faults.at = 150.0; action = `Crash 10 };
      { Faults.at = 200.0; action = `Crash 38 };
    ];

  (* Hotspot workload: 30% of traffic goes to the storage node 0. *)
  let entries =
    Workload.hotspot ~rng ~n:49 ~hub:0 ~fraction:0.3 ~count:600 ~horizon:400.0
  in
  let messages = Protocol.deliver_all sim net Protocol.default_config entries in

  let delivered = List.filter (fun m -> m.Message.status = Message.Delivered) messages in
  let lost = List.length messages - List.length delivered in
  Printf.printf "delivered %d/%d (%d had a dead endpoint)\n" (List.length delivered)
    (List.length messages) lost;

  (match Stats.of_ints (List.map (fun m -> m.Message.routes_traversed) delivered) with
  | Some s -> Format.printf "routes traversed per message: %a@." Stats.pp_summary s
  | None -> ());
  (match Stats.summarize (List.filter_map Message.latency delivered) with
  | Some s -> Format.printf "latency:                      %a@." Stats.pp_summary s
  | None -> ());
  let retried = List.length (List.filter (fun m -> m.Message.retries > 0) delivered) in
  Printf.printf "messages that hit a dead route and re-planned: %d\n" retried;

  (* After the dust settles: the surviving route graph and the
     broadcast-based route-table rebuild of Section 1. *)
  let diam = Fault_model.diameter net in
  Format.printf "surviving route graph diameter: %a (theorem bound %d)@."
    Metrics.pp_distance diam claim.Construction.diameter_bound;
  let bound = match diam with Metrics.Finite d -> d | Metrics.Infinite -> 49 in
  let b = Protocol.broadcast net ~origin:0 ~counter_bound:bound in
  Printf.printf
    "route-counter broadcast from node 0: reached %d survivors in %d rounds\n"
    b.Protocol.reached b.Protocol.rounds;

  (* The same protocol as real timed messages instead of synchronous
     rounds (copies race along routes of different lengths). *)
  let sim2 = Sim.create () in
  let ba = Protocol.broadcast_async sim2 net Protocol.default_config ~origin:0
             ~counter_bound:(bound + 1) in
  Printf.printf
    "asynchronous rebuild: %d survivors reached with %d message copies in %.0f time \
     units\n"
    ba.Protocol.a_reached ba.Protocol.a_copies ba.Protocol.a_finished_at
