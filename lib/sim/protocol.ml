open Ftr_graph
open Ftr_core
module Obs = Ftr_obs.Obs

(* The simulation is single-threaded and event-ordered by the sim
   clock, so these counts are a function of the scenario alone. *)
let c_messages = Obs.counter "sim.messages"
let c_delivered = Obs.counter "sim.delivered"
let c_undeliverable = Obs.counter "sim.undeliverable"
let c_dead_letters = Obs.counter "sim.dead_letters"
(* Counts route-plan computations (initial fallback plans included),
   not nack retries — those are [sim.backoff_waits]. *)
let c_replans = Obs.counter "sim.route_plans"
let c_backoff_waits = Obs.counter "sim.backoff_waits"

type config = {
  hop_latency : float;
  endpoint_overhead : float;
  nack_latency : float;
  deadline : float option;
  max_replans : int;
  backoff : float;
}

let default_config =
  {
    hop_latency = 1.0;
    endpoint_overhead = 10.0;
    nack_latency = 5.0;
    deadline = None;
    max_replans = max_int;
    backoff = 1.0;
  }

let hardened_config =
  { default_config with deadline = Some 500.0; max_replans = 8; backoff = 2.0 }

let finish sim msg status on_done =
  msg.Message.status <- status;
  (match status with
  | Message.Delivered -> Obs.incr c_delivered
  | Message.Undeliverable -> Obs.incr c_undeliverable
  | Message.DeadLetter -> Obs.incr c_dead_letters
  | Message.Pending -> ());
  if status = Message.Delivered then msg.Message.delivered_at <- Sim.now sim;
  match on_done with Some f -> f msg | None -> ()

(* Endpoint processing model: a fixed per-route overhead, or a shared
   FIFO server per node (the queued variant). *)
type endpoint = Fixed | Queued of Queueing.t

let process endpoint sim config ~node k =
  match endpoint with
  | Fixed -> Sim.schedule sim ~delay:config.endpoint_overhead k
  | Queued servers -> Queueing.enqueue servers sim ~node k

(* Traverse the remaining waypoint list; each step re-reads the fault
   state, so crashes that happen mid-flight force a re-plan. A message
   sitting at a node that crashed is lost; the sender's end-to-end
   timeout retransmits from the source.

   Every nack goes through [nack]: the churn hardening lives there.
   The retry counter bounds re-plans ([max_replans]; the default
   [max_int] never triggers), the nack delay backs off exponentially
   ([nack_latency * backoff^(retries - 1)]; the default factor 1.0 is
   the legacy constant delay), and a [deadline] (measured from
   [sent_at], checked at each nack — a message already at its
   destination is delivered) turns a message that would otherwise
   thrash through churn into a dead letter. *)
let rec traverse sim net endpoint config msg waypoints on_done =
  match waypoints with
  | [] -> finish sim msg Message.Delivered on_done
  | a :: _ when Fault_model.is_faulty net a ->
      nack sim net endpoint config msg ~from:msg.Message.src on_done
  | [ _ ] -> finish sim msg Message.Delivered on_done
  | a :: (b :: _ as rest) -> (
      match Routing.find (Fault_model.routing net) a b with
      | Some p when not (Fault_model.affects net p) ->
          msg.Message.routes_traversed <- msg.Message.routes_traversed + 1;
          msg.Message.hops <- msg.Message.hops + Path.length p;
          (* Gray failures slow the transit without cutting the
             route: the healthy transit time scales by the mean
             per-hop delay factor (1.0 on a clean path). *)
          let transit =
            config.hop_latency *. float_of_int (Path.length p)
            *. Fault_model.path_delay_factor net p
          in
          Sim.schedule sim ~delay:transit (fun () ->
              process endpoint sim config ~node:b (fun () ->
                  traverse sim net endpoint config msg rest on_done))
      | _ ->
          (* Route died under us (or the table has none for the pair):
             pay the detection cost and re-plan from the current
             node. *)
          nack sim net endpoint config msg ~from:a on_done)

and nack sim net endpoint config msg ~from on_done =
  let deadline_passed =
    match config.deadline with
    | None -> false
    | Some d -> Sim.now sim -. msg.Message.sent_at >= d
  in
  if deadline_passed || msg.Message.retries >= config.max_replans then
    finish sim msg Message.DeadLetter on_done
  else begin
    msg.Message.retries <- msg.Message.retries + 1;
    Obs.incr c_backoff_waits;
    let delay =
      config.nack_latency
      *. (config.backoff ** float_of_int (msg.Message.retries - 1))
    in
    Sim.schedule sim ~delay (fun () ->
        replan sim net endpoint config msg ~from on_done)
  end

and replan sim net endpoint config msg ~from on_done =
  Obs.incr c_replans;
  if Fault_model.is_faulty net from || Fault_model.is_faulty net msg.Message.dst then
    finish sim msg Message.Undeliverable on_done
  else
    match Fault_model.route net ~src:from ~dst:msg.Message.dst with
    | None -> finish sim msg Message.Undeliverable on_done
    | Some (waypoints, _) -> traverse sim net endpoint config msg waypoints on_done

let send_with sim net endpoint config ?on_done ~id ~src ~dst () =
  Obs.incr c_messages;
  let msg = Message.make ~id ~src ~dst ~sent_at:(Sim.now sim) in
  if Fault_model.is_faulty net src then begin
    finish sim msg Message.Undeliverable on_done;
    msg
  end
  else if src = dst then begin
    finish sim msg Message.Delivered on_done;
    msg
  end
  else begin
    (* Optimistically try the fixed direct route first; otherwise we
       pay one failed attempt before re-planning, as a sender with a
       stale table would. *)
    (match Routing.find (Fault_model.routing net) src dst with
    | Some p when not (Fault_model.affects net p) ->
        traverse sim net endpoint config msg [ src; dst ] on_done
    | Some _ -> nack sim net endpoint config msg ~from:src on_done
    | None -> replan sim net endpoint config msg ~from:src on_done);
    msg
  end

let send sim net config ?on_done ~id ~src ~dst () =
  send_with sim net Fixed config ?on_done ~id ~src ~dst ()

let send_queued sim net servers config ?on_done ~id ~src ~dst () =
  send_with sim net (Queued servers) config ?on_done ~id ~src ~dst ()

type broadcast_result = { reached : int; rounds : int }

let broadcast net ~origin ~counter_bound =
  if Fault_model.is_faulty net origin then invalid_arg "Protocol.broadcast: faulty origin";
  let routing = Fault_model.routing net in
  let n = Graph.n (Routing.graph routing) in
  let dg =
    Surviving.graph ~links:(Fault_model.edge_faults net) routing
      ~faults:(Bitset.of_list n (Fault_model.node_faults net))
  in
  let counter = Array.make n (-1) in
  counter.(origin) <- 0;
  let frontier = ref [ origin ] in
  let rounds = ref 0 in
  (* Synchronous flooding rounds: every holder forwards along all of
     its surviving routes; the route counter is the round number. *)
  while !frontier <> [] && !rounds < counter_bound do
    incr rounds;
    let next = ref [] in
    List.iter
      (fun u ->
        Array.iter
          (fun v ->
            if counter.(v) < 0 && not (Fault_model.is_faulty net v) then begin
              counter.(v) <- !rounds;
              next := v :: !next
            end)
          (Digraph.succ dg u))
      !frontier;
    if !next = [] then decr rounds (* last round reached nobody new *);
    frontier := !next
  done;
  let reached = Array.fold_left (fun acc c -> if c >= 0 then acc + 1 else acc) 0 counter in
  { reached; rounds = !rounds }

type async_broadcast_result = {
  a_reached : int;
  a_copies : int;
  a_finished_at : float;
}

let broadcast_async sim net config ~origin ~counter_bound =
  if Fault_model.is_faulty net origin then
    invalid_arg "Protocol.broadcast_async: faulty origin";
  let n = Graph.n (Routing.graph (Fault_model.routing net)) in
  let received = Array.make n false in
  let copies = ref 0 in
  let finished_at = ref (Sim.now sim) in
  let rec arrive node counter =
    if (not (Fault_model.is_faulty net node)) && not received.(node) then begin
      received.(node) <- true;
      finished_at := Sim.now sim;
      if counter < counter_bound then
        (* Forward along every surviving fixed route out of this node;
           each copy pays the route's transit plus endpoint cost. *)
        Routing.iter
          (fun src dst p ->
            if src = node && not (Fault_model.affects net p) then begin
              incr copies;
              let cost =
                config.endpoint_overhead
                +. (config.hop_latency *. float_of_int (Path.length p)
                   *. Fault_model.path_delay_factor net p)
              in
              Sim.schedule sim ~delay:cost (fun () -> arrive dst (counter + 1))
            end)
          (Fault_model.routing net)
    end
  in
  arrive origin 0;
  Sim.run sim;
  {
    a_reached = Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 received;
    a_copies = !copies;
    a_finished_at = !finished_at;
  }

let deliver_all_with sender sim entries =
  let acc = ref [] in
  List.iteri
    (fun id (time, src, dst) ->
      Sim.at sim ~time (fun () ->
          let msg = sender ~id ~src ~dst () in
          acc := msg :: !acc))
    entries;
  Sim.run sim;
  List.sort (fun a b -> compare a.Message.id b.Message.id) !acc

let deliver_all sim net config entries =
  deliver_all_with (fun ~id ~src ~dst () -> send sim net config ~id ~src ~dst ()) sim entries

let deliver_all_queued sim net servers config entries =
  deliver_all_with
    (fun ~id ~src ~dst () -> send_queued sim net servers config ~id ~src ~dst ())
    sim entries
