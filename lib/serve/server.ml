open Ftr_sim
open Ftr_obs

type config = { max_queue : int; deadline : float; bound : int option }

(* Latencies kept for the stats op: a fixed window of the most recent
   requests, so a long-lived daemon's percentiles track current
   behaviour and memory stays bounded. *)
let latency_window = 65536

type t = {
  cfg : config;
  mutable bound : int option;
  clock : unit -> float;
  mutable engine : Engine.t;
  journal : Journal.t option;
  mutable journal_error : string option;
      (** set by the first failed commit: every later delta is refused *)
  adm : (Wire.request * (string -> unit)) Admission.t;
  mutable pending : int;
      (** taken from admission by {!pump} but not yet answered *)
  mutable draining : bool;
  mutable queries : int;
  mutable degraded : int;
  mutable unreachable : int;
  mutable shed : int;
  mutable deltas : int;
  started_at : float;
  lat : float array;
  mutable lat_len : int;
  mutable lat_pos : int;
}

let c_queries = Obs.counter "serve.queries"
let c_degraded = Obs.counter "serve.degraded"
let c_unreachable = Obs.counter "serve.unreachable"
let c_shed = Obs.counter "serve.shed"
let c_deltas = Obs.counter "serve.deltas"

let create ?clock ?journal cfg engine =
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  {
    cfg;
    bound = cfg.bound;
    clock;
    engine;
    journal;
    journal_error = None;
    adm = Admission.create { max_queue = cfg.max_queue; deadline = cfg.deadline };
    pending = 0;
    draining = false;
    queries = 0;
    degraded = 0;
    unreachable = 0;
    shed = 0;
    deltas = 0;
    started_at = Unix.gettimeofday ();
    lat = Array.make latency_window 0.0;
    lat_len = 0;
    lat_pos = 0;
  }

let engine t = t.engine
let set_engine t e = t.engine <- e
let bound t = t.bound
let set_bound t b = t.bound <- b
let draining t = t.draining
let request_drain t = t.draining <- true
let queries t = t.queries
let degraded t = t.degraded
let shed t = t.shed
let unreachable t = t.unreachable

let push_latency t ms =
  t.lat.(t.lat_pos) <- ms;
  t.lat_pos <- (t.lat_pos + 1) mod latency_window;
  if t.lat_len < latency_window then t.lat_len <- t.lat_len + 1

(* Requests admitted but not yet answered, whether still queued or
   already taken into the batch {!pump} is working through. *)
let queue_length t = Admission.length t.adm + t.pending

(* Service time since [t0], in ms rounded to whole nanoseconds where it
   is measured: at most 12 significant digits, so {!Sjson} prints it
   from the integer count of nanoseconds, without the [%.12g] probe. *)
let service_ms t0 =
  Float.round (Float.max 0.0 (Unix.gettimeofday () -. t0) *. 1e9) /. 1e6

open Sjson

let ok_fields fields = Obj (("ok", Bool true) :: fields)
let err_fields msg fields = Obj (("ok", Bool false) :: ("error", Str msg) :: fields)

let int_list l = Arr (List.map (fun i -> Int i) l)

(* p50, p99 and p999 of the latency window, read in place. *)
let percentile_fields t =
  List.map2
    (fun name v -> (name, match v with Some v -> Float v | None -> Null))
    [ "p50_ms"; "p99_ms"; "p999_ms" ]
    (Stats.percentiles_of ~len:t.lat_len t.lat ~ps:[ 50.0; 99.0; 99.9 ])

let stats_json t =
  ok_fields
    ([
       ("queries", Int t.queries);
       ("degraded", Int t.degraded);
       ("unreachable", Int t.unreachable);
       ("shed", Int t.shed);
       ("deltas", Int t.deltas);
       ("queue", Int (queue_length t));
       ("digest", Str (Engine.digest t.engine));
     ]
    @ percentile_fields t)

(* Write-ahead for a group of validated deltas: one {!Journal.commit}
   (one fsync) before any of them is applied. The first failure is
   sticky, so a daemon that cannot make deltas durable refuses them
   all from then on while it keeps answering routes. *)
let commit t actions =
  match (actions, t.journal, t.journal_error) with
  | [], _, _ | _, None, _ -> Ok ()
  | _, Some _, Some msg -> Error msg
  | _, Some j, None -> (
      match Journal.commit j actions with
      | Ok () -> Ok ()
      | Error msg ->
          let msg = "journal: " ^ msg in
          t.journal_error <- Some msg;
          Error msg)

let deltas t reqs =
  List.filter_map
    (function
      | Wire.Fault a when Engine.validate t.engine a = Ok () -> Some a
      | _ -> None)
    reqs

(* Answer one request whose group's deltas were committed with result
   [durable]. *)
let answer t ~durable (req : Wire.request) : Sjson.t =
  match req with
  | Wire.Health ->
      ok_fields
        [
          ("uptime_ms", Float ((Unix.gettimeofday () -. t.started_at) *. 1000.0));
          ("draining", Bool t.draining);
          ("queue", Int (queue_length t));
          ("shed", Int t.shed);
          ("node_faults", int_list (Engine.node_faults t.engine));
          ( "link_faults",
            Arr
              (List.map
                 (fun (u, v) -> Arr [ Int u; Int v ])
                 (Engine.link_faults t.engine)) );
          ( "degraded_links",
            Arr
              (List.map
                 (fun (u, v, f) -> Arr [ Int u; Int v; Float f ])
                 (Engine.degraded_links t.engine)) );
        ]
  | Wire.Ready -> ok_fields [ ("ready", Bool (not t.draining)) ]
  | Wire.Stats -> stats_json t
  | Wire.Drain ->
      t.draining <- true;
      ok_fields [ ("draining", Bool true) ]
  | Wire.Diameter ->
      let t0 = Unix.gettimeofday () in
      let d = Engine.diameter t.engine in
      let ms = service_ms t0 in
      Obs.record_span "serve.diameter" (ms /. 1000.0);
      let dj =
        match d with
        | Ftr_graph.Metrics.Finite d -> Int d
        | Ftr_graph.Metrics.Infinite -> Str "inf"
      in
      ok_fields [ ("diameter", dj); ("service_ms", Float ms) ]
  | Wire.Route { src; dst } -> (
      let t0 = Unix.gettimeofday () in
      let result = Engine.route ?bound:t.bound t.engine ~src ~dst in
      let ms = service_ms t0 in
      Obs.record_span "serve.route" (ms /. 1000.0);
      push_latency t ms;
      t.queries <- t.queries + 1;
      Obs.incr c_queries;
      match result with
      | Error msg -> err_fields msg [ ("service_ms", Float ms) ]
      | Ok (Engine.Routed { waypoints; routes; hops; degraded }) ->
          if degraded then begin
            t.degraded <- t.degraded + 1;
            Obs.incr c_degraded
          end;
          ok_fields
            [
              ("degraded", Bool degraded);
              ("mode", Str "routed");
              ("routes", Int routes);
              ("hops", Int hops);
              ("path", int_list waypoints);
              ("service_ms", Float ms);
            ]
      | Ok (Engine.Detour { path; hops }) ->
          t.degraded <- t.degraded + 1;
          Obs.incr c_degraded;
          ok_fields
            [
              ("degraded", Bool true);
              ("mode", Str "detour");
              ("hops", Int hops);
              ("path", int_list path);
              ("service_ms", Float ms);
            ]
      | Ok Engine.Unreachable ->
          t.unreachable <- t.unreachable + 1;
          Obs.incr c_unreachable;
          err_fields "unreachable" [ ("service_ms", Float ms) ])
  | Wire.Fault action -> (
      match Engine.validate t.engine action with
      | Error msg -> err_fields msg []
      | Ok () -> (
          (* Write-ahead: the engine acts on the delta only once its
             group is durable, so a crash between the two replays to
             a state at least as faulted as the engine ever saw. *)
          match Result.bind durable (fun () -> Engine.apply t.engine action) with
          | Error msg -> err_fields msg []
          | Ok changed ->
              t.deltas <- t.deltas + 1;
              Obs.incr c_deltas;
              ok_fields
                [
                  ("applied", Bool changed);
                  ("digest", Str (Engine.digest t.engine));
                ]))
[@@lint.allow
  "L6: wire responses are live telemetry (uptime_ms, service_ms), not \
   replayable artifacts; the deterministic surface is the engine digest, \
   which is time-free"]

let handle t req = answer t ~durable:(commit t (deltas t [ req ])) req

(* The admission clock matters only to a deadline: without one, the
   queue's timestamps are never compared and the clock is not read. *)
let admission_now t = if t.cfg.deadline > 0.0 then t.clock () else 0.0

let shed_line reason =
  Sjson.to_string
    (Obj [ ("ok", Bool false); ("error", Str reason); ("shed", Bool true) ])

let submit t req respond =
  match req with
  | Wire.Health | Wire.Ready | Wire.Drain ->
      respond (Sjson.to_string (handle t req))
  | Wire.Route _ | Wire.Diameter | Wire.Fault _ | Wire.Stats ->
      if t.draining then respond (shed_line "draining")
      else if Admission.offer t.adm ~now:(admission_now t) (req, respond) then ()
      else begin
        t.shed <- t.shed + 1;
        Obs.incr c_shed;
        respond (shed_line "queue full")
      end
[@@lint.allow
  "L6: serialises [answer] responses, which carry live timing telemetry by \
   design (see the allowance on [answer])"]

let pump t =
  (* One clock reading per batch, none for an empty queue: the loop
     pumps on every turn. *)
  let rec take now acc =
    match Admission.take t.adm ~now with
    | None -> List.rev acc
    | Some item -> take now (item :: acc)
  in
  let batch = if Admission.length t.adm = 0 then [] else take (admission_now t) [] in
  let served =
    List.filter_map (function `Serve (req, _) -> Some req | `Expired _ -> None) batch
  in
  let durable = commit t (deltas t served) in
  t.pending <- List.length batch;
  List.iter
    (fun item ->
      t.pending <- t.pending - 1;
      match item with
      | `Serve (req, respond) -> respond (Sjson.to_string (answer t ~durable req))
      | `Expired (_, respond) ->
          t.shed <- t.shed + 1;
          Obs.incr c_shed;
          respond (shed_line "deadline expired"))
    batch
[@@lint.allow
  "L6: serialises [answer] responses, which carry live timing telemetry by \
   design (see the allowance on [answer])"]

(* ---------------------------------------------------------------- *)
(* The socket event loop                                             *)

(* [partial] holds the start of a line whose newline has not arrived
   yet; [out] collects a client's replies during one loop turn, and
   [flush_client] sends them with one write. *)
type client = {
  fd : Unix.file_descr;
  partial : Buffer.t;
  out : Buffer.t;
  mutable alive : bool;
}

let add_reply c line =
  if c.alive then begin
    Buffer.add_string c.out line;
    Buffer.add_char c.out '\n'
  end

let close_client c =
  c.alive <- false;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let flush_client c =
  if c.alive && Buffer.length c.out > 0 then begin
    let bytes = Buffer.to_bytes c.out in
    Buffer.clear c.out;
    let len = Bytes.length bytes in
    let pos = ref 0 in
    try
      while !pos < len do
        pos := !pos + Unix.write c.fd bytes !pos (len - !pos)
      done
    with Unix.Unix_error _ -> close_client c
  end

let feed_line t client line =
  match Wire.request_of_line line with
  | Error msg -> add_reply client (Wire.error_line msg)
  | Ok req -> submit t req (fun s -> add_reply client s)

(* First newline in [buf.[i, n)], or [-1]. *)
let rec newline buf i n =
  if i >= n then -1 else if Bytes.get buf i = '\n' then i else newline buf (i + 1) n

(* Frame the [n] bytes just read into [buf]: every complete line goes
   to the wire parser as one string, copied once out of [buf]; the
   bytes after the last newline wait in the client's [partial] buffer
   for the rest of their line. Blank lines are skipped. *)
let feed t client buf n =
  let rec lines start =
    let nl = newline buf start n in
    if nl < 0 then Buffer.add_subbytes client.partial buf start (n - start)
    else begin
      let line =
        if Buffer.length client.partial = 0 then Bytes.sub_string buf start (nl - start)
        else begin
          Buffer.add_subbytes client.partial buf start (nl - start);
          let line = Buffer.contents client.partial in
          Buffer.clear client.partial;
          line
        end
      in
      if String.trim line <> "" then feed_line t client line;
      lines (nl + 1)
    end
  in
  lines 0

let run t ~socket =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_term _ = t.draining <- true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_term);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_term);
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  match
    let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind lfd (Unix.ADDR_UNIX socket);
    Unix.listen lfd 64;
    lfd
  with
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s (%s)" socket (Unix.error_message e) fn)
  | lfd ->
      let clients = ref [] in
      let readbuf = Bytes.create 65536 in
      let stop = ref false in
      while not !stop do
        if t.draining then begin
          (* Drain: stop accepting, answer everything queued, flush,
             then leave — connected clients are closed, not waited
             out. *)
          pump t;
          List.iter flush_client !clients;
          List.iter close_client !clients;
          clients := [];
          stop := true
        end
        else begin
          let fds = lfd :: List.map (fun c -> c.fd) !clients in
          match Unix.select fds [] [] 0.2 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ ->
              if List.mem lfd ready then begin
                match Unix.accept lfd with
                | exception Unix.Unix_error _ -> ()
                | fd, _ ->
                    clients :=
                      {
                        fd;
                        partial = Buffer.create 256;
                        out = Buffer.create 4096;
                        alive = true;
                      }
                      :: !clients
              end;
              List.iter
                (fun c ->
                  if List.mem c.fd ready then begin
                    match Unix.read c.fd readbuf 0 (Bytes.length readbuf) with
                    | exception Unix.Unix_error _ -> close_client c
                    | 0 -> close_client c
                    | n ->
                        feed t c readbuf n
                  end)
                !clients;
              (* One reply write per client per turn: everything this
                 turn answered, at submit time or in the pump, in
                 order. *)
              pump t;
              List.iter flush_client !clients;
              clients := List.filter (fun c -> c.alive) !clients
        end
      done;
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      (match t.journal with Some j -> Journal.close j | None -> ());
      Ok ()
