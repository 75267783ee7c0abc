(* The benchmark for the repo's two canonical paths.

   bench --workload W --seed N --seconds S --trace 0|1 --ftr PATH

   Query workloads drive the real `ftr serve` daemon over its Unix
   socket, one connection, closed loop; sweep workloads call
   Tolerance.exhaustive in-process. Every response or verdict is
   checked (see Check and the sweep checks below). Every reported time
   is scaled to a nominal host pace (see Pace). With --trace 0 the
   result carries the end-to-end metrics; with --trace 1 it carries
   the per-layer metrics, timed from outside by calling each module's
   public functions, plus the tracing overhead and the stage
   reconciliation. The last stdout line is the JSON result; the lines
   before it print every metric by name with its unit. Temporary files
   live under .bench_tmp/ in the working directory. *)

open Ftr_graph
open Ftr_core
open Perfbench
module Serve = Ftr_serve
module Sjson = Serve.Sjson
module Wire = Serve.Wire
module Obs = Ftr_obs.Obs
module Samples = Stat.Samples

(* The daemon and every in-process twin build the same construction. *)
let builder_seed = 0xBEEF
let query_spec = "hypercube:6"
let sweep_f = 3
let batch_size = 2048
let transport_probes = 4000
let layer_sample = 20000

type workload =
  | Query of { kind : Gen.kind; inflight : int }
  | Sweep of { spec : string; jobs : int }

let workloads =
  [
    ("query_read", Query { kind = Gen.Read; inflight = 1 });
    ("query_churn", Query { kind = Gen.Churn; inflight = 8 });
    ("sweep_small", Sweep { spec = "torus:7x7"; jobs = 1 });
    ("sweep_wide", Sweep { spec = query_spec; jobs = 2 });
  ]

let e2e_metrics =
  [
    ("setup_s", "s");
    ("p50_us", "us");
    ("tail_us", "us");
    ("work_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let layer_metrics =
  [
    ("server.transport_p50_us", "us");
    ("server.transport_p99_us", "us");
    ("server.handle_self_ns", "ns");
    ("wire.parse_ns", "ns");
    ("admission.wait_p50_us", "us");
    ("admission.depth_max", "count");
    ("engine.route_p50_ns", "ns");
    ("engine.route_p99_ns", "ns");
    ("engine.apply_us", "us");
    ("engine.diameter_us", "us");
    ("serve.engine.detours_per_op", "count");
    ("serve.engine.deltas_noop_per_op", "count");
    ("engine.apply_node.routes_touched_per_op", "count");
    ("engine.apply_edge.routes_touched_per_op", "count");
    ("journal.append_p50_us", "us");
    ("journal.append_p99_us", "us");
    ("sjson.encode_ns", "ns");
    ("builder.build_ms", "ms");
    ("surviving.compile_ms", "ms");
    ("sliced.pack_us", "us");
    ("sliced.bfs_us", "us");
    ("sliced.lane_fill", "ratio");
    ("evaluator.swap_us", "us");
    ("evaluator.diameter_us", "us");
    ("engine.bfs.word_ops_per_set", "count");
    ("par.speedup", "ratio");
    ("par.tasks_max_min", "ratio");
    ("tolerance.enumerate_ms", "ms");
    ("tolerance.other_frac", "ratio");
    ("route_p99_us", "us");
    ("delta_p50_us", "us");
    ("delta_p99_us", "us");
    ("diameter_p50_us", "us");
    ("trace.overhead_frac", "ratio");
    ("reconcile.gap_frac", "ratio");
    ("reconcile.checked", "count");
    ("reconcile.failed", "count");
  ]

(* Per-layer metrics of the other path, whose layers do no work on a
   workload: they are reported as 0 by name, not by default. *)
let sweep_only =
  [
    "sliced.pack_us";
    "sliced.bfs_us";
    "sliced.lane_fill";
    "evaluator.swap_us";
    "evaluator.diameter_us";
    "engine.bfs.word_ops_per_set";
    "par.speedup";
    "par.tasks_max_min";
    "tolerance.enumerate_ms";
    "tolerance.other_frac";
  ]

let query_only =
  [
    "server.transport_p50_us";
    "server.transport_p99_us";
    "server.handle_self_ns";
    "wire.parse_ns";
    "admission.wait_p50_us";
    "admission.depth_max";
    "engine.route_p50_ns";
    "engine.route_p99_ns";
    "engine.apply_us";
    "engine.diameter_us";
    "serve.engine.detours_per_op";
    "serve.engine.deltas_noop_per_op";
    "engine.apply_node.routes_touched_per_op";
    "engine.apply_edge.routes_touched_per_op";
    "journal.append_p50_us";
    "journal.append_p99_us";
    "sjson.encode_ns";
    "route_p99_us";
    "delta_p50_us";
    "delta_p99_us";
    "diameter_p50_us";
  ]

let idle names = List.map (fun name -> (name, 0.0)) names

exception Infra of string

let infra fmt = Printf.ksprintf (fun s -> raise (Infra s)) fmt
let us ns = ns /. 1e3
let ms ns = ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Host plumbing                                                       *)

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> infra "cannot read %s" path
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                Some (float_of_int kb /. 1024.0))
        | _ -> scan ()
      in
      let r = scan () in
      close_in ic;
      match r with Some v -> v | None -> infra "no VmHWM in %s" path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let tmp_root () =
  let root = ".bench_tmp" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let fresh_dir =
  let k = ref 0 in
  fun root ->
    incr k;
    let d = Filename.concat root (Printf.sprintf "d%d" !k) in
    Unix.mkdir d 0o755;
    d

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)

type daemon = { pid : int; client : Client.t; dir : string }

(* Daemons not yet stopped; a run that fails midway kills these
   before it exits, so no process outlives the benchmark. *)
let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let rec wait_exit pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        false
      end
      else begin
        Unix.sleepf 0.002;
        wait_exit pid ~deadline
      end
  | _, Unix.WEXITED 0 -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~deadline

(* Spawn `ftr serve` and return it with the spawn-to-first-health
   time in seconds. *)
let spawn ~ftr ~root ~journal ~metrics =
  let dir = fresh_dir root in
  let socket = Filename.concat dir "d.sock" in
  let args =
    [ ftr; "serve"; query_spec; "--socket"; socket; "--seed"; string_of_int builder_seed ]
    @ (if journal then [ "--journal"; Filename.concat dir "journal.txt" ] else [])
    @ if metrics then [ "--metrics"; Filename.concat dir "metrics.json" ] else []
  in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Clock.now_ns () in
  let pid = Unix.create_process ftr (Array.of_list args) null log log in
  live := pid :: !live;
  Unix.close log;
  Unix.close null;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec connect () =
    match Client.connect socket with
    | Ok c -> c
    | Error e ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> infra "daemon exited before serving (see %s/daemon.log)" dir);
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          infra "daemon did not listen within 60 s: %s" e
        end;
        Unix.sleepf 0.0005;
        connect ()
  in
  let client = connect () in
  let health = Client.call client (Wire.request_to_line Wire.Health) in
  let setup = Clock.elapsed_ns t0 /. 1e9 in
  (match Sjson.parse health with
  | Ok j when Sjson.member "ok" j = Some (Sjson.Bool true) -> ()
  | _ -> infra "bad health reply: %s" health);
  ({ pid; client; dir }, setup)

let stop d =
  (try ignore (Client.call d.client (Wire.request_to_line Wire.Drain))
   with Unix.Unix_error _ | End_of_file -> ());
  Client.close d.client;
  live := List.filter (( <> ) d.pid) !live;
  if not (wait_exit d.pid ~deadline:(Unix.gettimeofday () +. 20.0)) then
    infra "daemon did not drain cleanly"

(* ------------------------------------------------------------------ *)
(* The in-process twin                                                 *)

type built = { construction : Construction.t; build_ns : float }

let build spec ~seed =
  match Ftr_analysis.Graph_spec.parse spec with
  | Error e -> infra "bad graph spec %s: %s" spec e
  | Ok g ->
      let c, build_ns =
        Clock.time (fun () ->
            (Builder.auto ~rng:(Random.State.make [| seed |]) g).Builder.construction)
      in
      { construction = c; build_ns }

let full_budget c =
  List.fold_left (fun acc (cl : Construction.claim) -> max acc cl.max_faults) 0
    c.Construction.claims

(* The daemon's config for the same construction (ftr serve defaults). *)
let server_config c =
  {
    Serve.Server.max_queue = 64;
    deadline = 0.0;
    bound = Construction.bound_for c ~f:(full_budget c);
  }

(* ------------------------------------------------------------------ *)
(* Query workloads                                                     *)

(* Latencies are in ns from send, scaled to the nominal pace (see
   Pace) by the reference reading taken after their batch. *)
type phase = {
  routes : Samples.t;
  deltas : Samples.t;
  diameters : Samples.t;
  mutable ops : int;
  mutable timed_ns : float;  (** unscaled *)
  mutable paced_ns : float;
}

(* Closed loop over one connection with [inflight] requests
   outstanding; each batch is generated before its timed window and
   checked after it against the client's fault model and an
   in-process replay server fed the identical line stream. *)
let run_phase ~client ~construction ~kind ~inflight ~seed ~seconds ~pace ~tally =
  let routing = construction.Construction.routing in
  let graph = Routing.graph routing in
  let gen = Gen.create ~kind ~graph ~seed in
  let model = Model.create graph in
  let replay = Serve.Server.create (server_config construction) (Serve.Engine.create routing) in
  let p =
    {
      routes = Samples.create ();
      deltas = Samples.create ();
      diameters = Samples.create ();
      ops = 0;
      timed_ns = 0.0;
      paced_ns = 0.0;
    }
  in
  let budget = seconds *. 1e9 in
  let resps = Array.make batch_size "" in
  let sent_at = Array.make batch_size 0L in
  let lat = Array.make batch_size 0.0 in
  (* The first batch warms the daemon and both processes' heaps: it
     is checked like the rest but neither timed nor sampled. *)
  let warm = ref true in
  while p.timed_ns < budget do
    let reqs = Gen.batch gen ~count:batch_size in
    let lines = Array.map Wire.request_to_line reqs in
    (* Start every timed window with an empty minor heap (sized in
       run_query to hold a whole batch), so the client never collects
       while a request is in flight. *)
    Gc.minor ();
    let t0 = Clock.now_ns () in
    let sent = ref 0 in
    let send () =
      Client.send client lines.(!sent);
      sent_at.(!sent) <- Clock.now_ns ();
      incr sent
    in
    while !sent < min inflight batch_size do
      send ()
    done;
    for i = 0 to batch_size - 1 do
      resps.(i) <- Client.recv client;
      lat.(i) <- Int64.to_float (Int64.sub (Clock.now_ns ()) sent_at.(i));
      if !sent < batch_size then send ()
    done;
    let elapsed = Clock.elapsed_ns t0 in
    let k = Pace.mark pace in
    let timed = not !warm in
    warm := false;
    if timed then begin
      p.timed_ns <- p.timed_ns +. elapsed;
      p.paced_ns <- p.paced_ns +. (k *. elapsed);
      p.ops <- p.ops + batch_size
    end;
    Array.iteri
      (fun i req ->
        (if timed then
           match req with
           | Wire.Route _ -> Samples.add p.routes (k *. lat.(i))
           | Wire.Fault _ -> Samples.add p.deltas (k *. lat.(i))
           | _ -> Samples.add p.diameters (k *. lat.(i)));
        let expected = Serve.Server.handle replay req in
        Check.record tally (Check.judge ~routing ~model req ~line:resps.(i) ~expected);
        match req with Wire.Fault a -> ignore (Model.apply model a) | _ -> ())
      reqs
  done;
  (* The daemon's final fault state must equal the replay's. *)
  let stats = Client.call client (Wire.request_to_line Wire.Stats) in
  let want = Serve.Engine.digest (Serve.Server.engine replay) in
  Check.record tally
    (match Result.map (Sjson.member "digest") (Sjson.parse stats) with
    | Ok (Some (Sjson.Str d)) when d = want -> Check.Pass
    | _ -> Check.Fail (Printf.sprintf "final digest %s, replay has %s" stats want));
  p

(* Per-layer timings are scaled to the nominal pace too, each block
   of calls by the reference readings on either side of it, so that
   stages timed apart from the end-to-end figure they explain can
   still add up to it. *)
let pace_block pace samples =
  let k = Pace.mark pace in
  List.iter (fun s -> Samples.scale s k) samples

let ready_round_trips client ~pace =
  let s = Samples.create () in
  let line = Wire.request_to_line Wire.Ready in
  ignore (Pace.mark pace);
  for _ = 1 to transport_probes do
    let t0 = Clock.now_ns () in
    ignore (Client.call client line);
    Samples.add s (Clock.elapsed_ns t0)
  done;
  pace_block pace [ s ];
  s

(* Per-layer timings over the first [layer_sample] requests of the
   workload's stream, each layer called through its public API. *)
type layers = {
  parse : Samples.t;
  handle : Samples.t;  (** Server.handle on routes *)
  engine_route : Samples.t;
  encode : Samples.t;
  apply : Samples.t;
  diameter : Samples.t;
  journal : Samples.t;
  wait : Samples.t;  (** admission wait, ns *)
  mutable depth_max : int;
}

let time_layers ~construction ~kind ~inflight ~seed ~root ~pace ~tally =
  let routing = construction.Construction.routing in
  let cfg = server_config construction in
  let stream () =
    Gen.batch (Gen.create ~kind ~graph:(Routing.graph routing) ~seed) ~count:layer_sample
  in
  let reqs = stream () in
  let lines = Array.map Wire.request_to_line reqs in
  (* The seed alone fixes the stream: a second generator must repeat
     it byte for byte. *)
  Check.record tally
    (if Array.map Wire.request_to_line (stream ()) = lines then Check.Pass
     else Check.Fail "the same seed generated a different request stream");
  let l =
    {
      parse = Samples.create ();
      handle = Samples.create ();
      engine_route = Samples.create ();
      encode = Samples.create ();
      apply = Samples.create ();
      diameter = Samples.create ();
      journal = Samples.create ();
      wait = Samples.create ();
      depth_max = 0;
    }
  in
  ignore (Pace.mark pace);
  Array.iter
    (fun line ->
      let _, ns = Clock.time (fun () -> Wire.request_of_line line) in
      Samples.add l.parse ns)
    lines;
  pace_block pace [ l.parse ];
  let srv = Serve.Server.create cfg (Serve.Engine.create routing) in
  let twin = Serve.Engine.create routing in
  let journal =
    match Serve.Journal.create (Filename.concat (fresh_dir root) "layers.journal") with
    | Ok j -> j
    | Error e -> infra "journal: %s" e
  in
  (* Two passes over the same stream, so the engine calls and the
     handle calls each meet a cold pair the same way. *)
  Array.iter
    (fun req ->
      match req with
      | Wire.Route { src; dst } ->
          let _, e = Clock.time (fun () -> Serve.Engine.route ?bound:cfg.bound twin ~src ~dst) in
          Samples.add l.engine_route e
      | Wire.Fault a ->
          let _, j = Clock.time (fun () -> Serve.Journal.append journal a) in
          let _, e = Clock.time (fun () -> Serve.Engine.apply twin a) in
          Samples.add l.journal j;
          Samples.add l.apply e
      | _ ->
          let _, e = Clock.time (fun () -> Serve.Engine.diameter twin) in
          Samples.add l.diameter e)
    reqs;
  pace_block pace [ l.engine_route; l.journal; l.apply; l.diameter ];
  Serve.Journal.close journal;
  Array.iter
    (fun req ->
      let v, h = Clock.time (fun () -> Serve.Server.handle srv req) in
      match req with
      | Wire.Route _ ->
          let _, enc = Clock.time (fun () -> Sjson.to_string v) in
          Samples.add l.handle h;
          Samples.add l.encode enc
      | _ -> ())
    reqs;
  pace_block pace [ l.handle; l.encode ];
  (* Admission replay: rounds of [inflight] submits, then one pump. A
     request's wait runs from its submit to the start of its service,
     which is the pump's start for the first request served and the
     previous callback for the rest. *)
  let adm =
    (* Deltas are journaled as in the daemon, so requests queued behind
       one wait out its fsync. *)
    match kind with
    | Gen.Read -> Serve.Server.create cfg (Serve.Engine.create routing)
    | Gen.Churn -> (
        match Serve.Journal.create (Filename.concat (fresh_dir root) "admission.journal") with
        | Ok journal -> Serve.Server.create ~journal cfg (Serve.Engine.create routing)
        | Error e -> infra "journal: %s" e)
  in
  let n = Array.length reqs in
  let submitted = Array.make n 0L and answered = Array.make n 0L in
  let i = ref 0 in
  while !i < n do
    let lo = !i and hi = min n (!i + inflight) in
    for k = lo to hi - 1 do
      submitted.(k) <- Clock.now_ns ();
      Serve.Server.submit adm reqs.(k) (fun _ -> answered.(k) <- Clock.now_ns ())
    done;
    let pump_start = Clock.now_ns () in
    Serve.Server.pump adm;
    for k = lo to hi - 1 do
      let start = if k = lo then pump_start else answered.(k - 1) in
      Samples.add l.wait (Int64.to_float (Int64.sub start submitted.(k)))
    done;
    i := hi
  done;
  pace_block pace [ l.wait ];
  if Serve.Server.shed adm > 0 then infra "admission replay shed requests";
  (* The same rounds again, untimed, reading the admission queue's
     length from a health reply after every submit. *)
  let probe = Serve.Server.create cfg (Serve.Engine.create routing) in
  Array.iteri
    (fun k req ->
      Serve.Server.submit probe req ignore;
      (match Sjson.member "queue" (Serve.Server.handle probe Wire.Health) with
      | Some (Sjson.Int q) -> l.depth_max <- max l.depth_max q
      | _ -> infra "health reply has no queue length");
      if (k + 1) mod inflight = 0 || k = n - 1 then Serve.Server.pump probe)
    reqs;
  l

let read_counters path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Sjson.parse text with
  | Error e -> infra "metrics file %s: %s" path e
  | Ok j -> (
      match Sjson.member "counters" j with
      | Some (Sjson.Obj fields) ->
          fun name ->
            Option.value ~default:0
              (Option.bind (List.assoc_opt name fields) Sjson.to_int)
      | _ -> infra "metrics file %s has no counters" path)

(* Set-up is repeated and its median reported, so one slow spawn or
   build does not move [setup_s]. Each is scaled to the nominal pace. *)
let setups = 5

let median_of_setups pace f =
  Stat.median
    (Array.init setups (fun _ ->
         let s = f () in
         s *. Pace.mark pace))

let print_pace pace =
  Printf.printf "pace: reference median %.3f ms, nominal %.3f ms\n" (Pace.median_ms pace)
    (Pace.nominal_ns /. 1e6)

let run_query ~ftr ~root ~kind ~inflight ~seed ~seconds ~trace ~tally =
  let journal = kind = Gen.Churn in
  Gc.set { (Gc.get ()) with minor_heap_size = 8 lsl 20 };
  let pace = Pace.create () in
  (* Set-up: spawn to first health, [setups] times; the last daemon
     serves the measurement. *)
  let daemons = ref [] in
  let setup =
    median_of_setups pace (fun () ->
        let d, s = spawn ~ftr ~root ~journal ~metrics:false in
        daemons := d :: !daemons;
        s)
  in
  let d = List.hd !daemons in
  List.iter stop (List.tl !daemons);
  let { construction; build_ns = _ } = build query_spec ~seed:builder_seed in
  let a =
    run_phase ~client:d.client ~construction ~kind ~inflight ~seed ~seconds ~pace ~tally
  in
  let transport = if trace then Some (ready_round_trips d.client ~pace) else None in
  let rss = peak_rss_mb (string_of_int d.pid) in
  stop d;
  let p s q = us (Samples.percentile s q) in
  let e2e =
    [
      ("setup_s", setup);
      ("p50_us", p a.routes 50.0);
      ("tail_us", p a.routes (Stat.tail_percentile (Samples.length a.routes)));
      ("work_per_s", float_of_int a.ops /. (a.paced_ns /. 1e9));
      ("peak_rss_mb", rss);
    ]
  in
  print_pace pace;
  let extra =
    [
      ("route_p99_us", p a.routes 99.0);
      ("delta_p50_us", p a.deltas 50.0);
      ("delta_p99_us", p a.deltas 99.0);
      ("diameter_p50_us", p a.diameters 50.0);
    ]
  in
  if not trace then e2e
  else begin
    (* Traced phase: a daemon with --metrics, Obs on in-process. *)
    let d, _ = spawn ~ftr ~root ~journal ~metrics:true in
    Obs.reset ();
    Obs.set_enabled true;
    let b =
      run_phase ~client:d.client ~construction ~kind ~inflight ~seed ~seconds ~pace ~tally
    in
    Obs.set_enabled false;
    stop d;
    let counter = read_counters (Filename.concat d.dir "metrics.json") in
    (* The daemon also served the untimed warm-up batch. *)
    let per_op name = float_of_int (counter name) /. float_of_int (b.ops + batch_size) in
    let builds =
      median_of_setups pace (fun () -> (build query_spec ~seed:builder_seed).build_ns)
    in
    let compile =
      median_of_setups pace (fun () ->
          snd (Clock.time (fun () -> Surviving.compile construction.Construction.routing)))
    in
    let l = time_layers ~construction ~kind ~inflight ~seed ~root ~pace ~tally in
    let transport = Option.get transport in
    let handle_self = Samples.percentile l.handle 50.0 -. Samples.percentile l.engine_route 50.0 in
    (* Means, not medians: the mean of a sum is the sum of the means,
       while a sum of medians falls short of the median of the sums
       when the stages are skewed. *)
    let mean s = us (Samples.total s /. float_of_int (Samples.length s)) in
    let r =
      {
        Reconcile.name = "route_mean_us";
        total = mean a.routes;
        stages =
          [
            ("transport", mean transport);
            ("parse", mean l.parse);
            ("admission", mean l.wait);
            ("handle_self", mean l.handle -. mean l.engine_route);
            ("engine", mean l.engine_route);
            ("encode", mean l.encode);
          ];
        tolerance = Reconcile.query_tolerance;
      }
    in
    (* With one request in flight a route's round trip is the sum of
       its stages. With eight, most of it is the wait behind the seven
       ahead of it on the connection, which no in-process stage
       replays, so query_churn reports the stages without the check. *)
    let reconciled = kind = Gen.Read in
    if reconciled then print_endline (Reconcile.describe r)
    else
      Printf.printf "reconcile route_mean_us: unexplained %.1f%%, not checked with %d in flight\n"
        (100.0 *. Reconcile.gap r) inflight;
    let layers =
      [
        ("server.transport_p50_us", p transport 50.0);
        ("server.transport_p99_us", p transport 99.0);
        ("server.handle_self_ns", handle_self);
        ("wire.parse_ns", Samples.percentile l.parse 50.0);
        ("admission.wait_p50_us", p l.wait 50.0);
        ("admission.depth_max", float_of_int l.depth_max);
        ("engine.route_p50_ns", Samples.percentile l.engine_route 50.0);
        ("engine.route_p99_ns", Samples.percentile l.engine_route 99.0);
        ("engine.apply_us", p l.apply 50.0);
        ("engine.diameter_us", p l.diameter 50.0);
        ("serve.engine.detours_per_op", per_op "serve.engine.detours");
        ("serve.engine.deltas_noop_per_op", per_op "serve.engine.deltas_noop");
        ("engine.apply_node.routes_touched_per_op", per_op "engine.apply_node.routes_touched");
        ("engine.apply_edge.routes_touched_per_op", per_op "engine.apply_edge.routes_touched");
        ("journal.append_p50_us", p l.journal 50.0);
        ("journal.append_p99_us", p l.journal 99.0);
        ("sjson.encode_ns", Samples.percentile l.encode 50.0);
        ("builder.build_ms", ms builds);
        ("surviving.compile_ms", ms compile);
        ("trace.overhead_frac", (p b.routes 50.0 /. p a.routes 50.0) -. 1.0);
        ("reconcile.gap_frac", Reconcile.gap r);
        ("reconcile.checked", if reconciled then 1.0 else 0.0);
        ("reconcile.failed", if reconciled && not (Reconcile.ok r) then 1.0 else 0.0);
      ]
    in
    extra @ layers @ idle sweep_only
  end

(* ------------------------------------------------------------------ *)
(* Sweep workloads                                                     *)

(* The canonical exhaustive order (by size, then by largest element,
   revolving-door inside each block), rebuilt from public functions
   so the stage replay packs exactly the slices the sweep packs. *)
let iter_blocks ~n ~f ~block =
  block ~size:0 ~top:(-1);
  for size = 1 to min f n do
    for top = size - 1 to n - 1 do
      block ~size ~top
    done
  done

let canonical_sets ~n ~f =
  let out = ref [] in
  iter_blocks ~n ~f ~block:(fun ~size ~top ->
      if top < 0 then out := [] :: !out
      else if size = 1 then out := [ top ] :: !out
      else begin
        let k = size - 1 in
        let cur = Array.make k 0 in
        let emit () = out := (Array.to_list cur @ [ top ]) :: !out in
        Tolerance.iter_combinations_gray ~n:top ~k
          ~first:(fun c ->
            Array.blit c 0 cur 0 k;
            emit ())
          ~swap:(fun ~removed ~added ->
            let j = ref 0 in
            while cur.(!j) <> removed do
              incr j
            done;
            cur.(!j) <- added;
            Array.sort Int.compare cur;
            emit ())
      end);
  Array.of_list (List.rev !out)

type stages = {
  pack : Samples.t;  (** per slice *)
  bfs : Samples.t;  (** per slice *)
  swap : Samples.t;  (** per fault swap *)
  diam : Samples.t;  (** per scalar set *)
  mutable enumerate_ns : float;  (** materialising the canonical order *)
}

let new_stages () =
  {
    pack = Samples.create ();
    bfs = Samples.create ();
    swap = Samples.create ();
    diam = Samples.create ();
    enumerate_ns = 0.0;
  }

(* Replay the jobs=1 sweep's stages one call at a time, adding to [s]
   each time multiplied by the pace factor [k] of the verdict just
   before. *)
let time_stages s routing ~f ~k =
  let compiled = Surviving.compile_cached routing in
  let n = Surviving.compiled_n compiled in
  let ev = Surviving.evaluator compiled in
  let diameter () =
    let _, ns = Clock.time (fun () -> Surviving.evaluator_diameter ev) in
    Samples.add s.diam (k *. ns)
  in
  let swap g =
    let _, ns = Clock.time g in
    Samples.add s.swap (k *. ns)
  in
  if Surviving.sliced_capable compiled then begin
    let sets, enumerate_ns = Clock.time (fun () -> canonical_sets ~n ~f) in
    s.enumerate_ns <- s.enumerate_ns +. (k *. enumerate_ns);
    let sl = Surviving.sliced compiled in
    let lanes = Surviving.lane_capacity in
    let count = Array.length sets in
    let base = ref 0 in
    while !base < count do
      let stop = min count (!base + lanes) in
      if stop - !base >= 2 then begin
        let _, pack =
          Clock.time (fun () ->
              Surviving.slice_reset sl;
              for i = !base to stop - 1 do
                ignore (Surviving.slice_add sl ~nodes:sets.(i) ~edges:[])
              done)
        in
        let _, bfs = Clock.time (fun () -> Surviving.slice_diameters sl) in
        Samples.add s.pack (k *. pack);
        Samples.add s.bfs (k *. bfs)
      end
      else
        for i = !base to stop - 1 do
          swap (fun () -> Surviving.set_faults ev sets.(i));
          diameter ()
        done;
      base := stop
    done
  end
  else
    iter_blocks ~n ~f ~block:(fun ~size ~top ->
        if top < 0 then begin
          swap (fun () -> Surviving.reset ev);
          diameter ()
        end
        else begin
          swap (fun () -> Surviving.set_faults ev [ top ]);
          if size = 1 then diameter ()
          else
            Tolerance.iter_combinations_gray ~n:top ~k:(size - 1)
              ~first:(fun c ->
                swap (fun () -> Array.iter (Surviving.apply_fault ev) c);
                diameter ())
              ~swap:(fun ~removed ~added ->
                swap (fun () ->
                    Surviving.revert_fault ev removed;
                    Surviving.apply_fault ev added);
                diameter ())
        end)

let run_sweep ~spec ~jobs ~seed ~seconds ~trace ~tally =
  (* Set-up: build + compile, [setups] times; the last stays in the
     compile cache for the sweeps. *)
  let pace = Pace.create () in
  let built = ref None in
  let setup =
    median_of_setups pace (fun () ->
        let t0 = Clock.now_ns () in
        let b = build spec ~seed in
        ignore (Surviving.compile_cached b.construction.Construction.routing);
        built := Some b;
        Clock.elapsed_ns t0 /. 1e9)
  in
  let c = (Option.get !built).construction in
  let routing = c.Construction.routing in
  let n = Graph.n (Routing.graph routing) in
  let expected_sets = Tolerance.count_subsets_up_to ~n ~k:sweep_f in
  let bound = Construction.bound_for c ~f:sweep_f in
  let first = ref None in
  let check (v : Tolerance.verdict) =
    Check.record tally
      (match bound with
      | None -> Check.Fail (Printf.sprintf "%s claims no bound for f=%d" spec sweep_f)
      | Some b ->
          if v.sets_checked <> expected_sets then
            Check.Fail (Printf.sprintf "sets_checked %d, expected %d" v.sets_checked expected_sets)
          else if not (Metrics.distance_le v.worst (Metrics.Finite b)) then
            Check.Fail (Printf.sprintf "verdict over the bound %d" b)
          else
            match !first with
            | None ->
                first := Some v;
                Check.Pass
            | Some v0 when v0 = v -> Check.Pass
            | Some _ -> Check.Fail "verdict differs between runs")
  in
  (* One checked verdict's time, unscaled, and its pace factor. *)
  let verdict ~jobs =
    let v, ns = Clock.time (fun () -> Tolerance.exhaustive ~jobs ~f:sweep_f routing) in
    check v;
    (ns, Pace.mark pace)
  in
  let sweeps ~jobs ~min_runs ~seconds =
    let times = Samples.create () and raw = ref 0.0 in
    while Samples.length times < min_runs || !raw < seconds *. 1e9 do
      let ns, k = verdict ~jobs in
      raw := !raw +. ns;
      Samples.add times (k *. ns)
    done;
    times
  in
  (* One checked, untimed verdict first, so the timed ones meet a
     grown heap and warm caches. *)
  ignore (sweeps ~jobs ~min_runs:1 ~seconds:0.0);
  let a = sweeps ~jobs ~min_runs:3 ~seconds in
  let e2e =
    [
      ("setup_s", setup);
      ("p50_us", us (Samples.percentile a 50.0));
      ("tail_us", us (Samples.percentile a (Stat.tail_percentile (Samples.length a))));
      ("work_per_s", float_of_int (expected_sets * Samples.length a) /. (Samples.total a /. 1e9));
      ("peak_rss_mb", peak_rss_mb "self");
    ]
  in
  print_pace pace;
  if not trace then e2e
  else begin
    (* Traced and untraced verdicts alternate, so the overhead compares
       like with like while the host's speed drifts. Counters only
       accumulate during the traced ones. *)
    Obs.reset ();
    let plain = Samples.create () and traced = Samples.create () in
    while Samples.length traced < 3 || Samples.total plain +. Samples.total traced < seconds *. 1e9 do
      let ns, k = verdict ~jobs in
      Samples.add plain (k *. ns);
      Obs.set_enabled true;
      let ns, k = verdict ~jobs in
      Samples.add traced (k *. ns);
      Obs.set_enabled false
    done;
    let counter name =
      match List.assoc_opt name (Obs.counters ()) with
      | Some c -> float_of_int c
      | None -> infra "no %s counter after a traced sweep" name
    in
    let gauge name =
      match List.assoc_opt name (Obs.gauges ()) with
      | Some g -> g
      | None -> infra "no %s gauge after a traced sweep" name
    in
    let slices = counter "engine.sliced.slices" in
    let lane_fill =
      if slices = 0.0 then 0.0
      else counter "engine.sliced.lanes" /. (slices *. float_of_int Surviving.lane_capacity)
    in
    let tasks_ratio =
      gauge "par.last_max_tasks_per_domain" /. Float.max 1.0 (gauge "par.last_min_tasks_per_domain")
    in
    (* Stage replay against the jobs=1 sweep it explains. *)
    (* About 1.5 s of jobs=1 sweeps, each followed by a stage replay,
       so both sides of the reconciliation see the same host speed. *)
    let runs = max 1 (min 5 (truncate (1.5e9 /. Samples.percentile a 50.0))) in
    let j1 = Samples.create () and st = new_stages () in
    for _ = 1 to runs do
      let ns, k = verdict ~jobs:1 in
      Samples.add j1 (k *. ns);
      time_stages st routing ~f:sweep_f ~k
    done;
    let j2 = if jobs = 2 then a else sweeps ~jobs:2 ~min_runs:runs ~seconds:0.0 in
    let total_of s = us (Samples.total s) in
    let sweep_us = us (Samples.total j1) in
    let r =
      {
        Reconcile.name = "jobs=1 sweep_us";
        total = sweep_us;
        stages =
          [
            ("enumerate", us st.enumerate_ns);
            ("pack", total_of st.pack);
            ("bfs", total_of st.bfs);
            ("swap", total_of st.swap);
            ("diameter", total_of st.diam);
          ];
        tolerance = Reconcile.sweep_tolerance;
      }
    in
    print_endline (Reconcile.describe r);
    let p s q = us (Samples.percentile s q) in
    let layers =
      [
        ("builder.build_ms", ms (median_of_setups pace (fun () -> (build spec ~seed).build_ns)));
        ( "surviving.compile_ms",
          ms
            (median_of_setups pace (fun () -> snd (Clock.time (fun () -> Surviving.compile routing))))
        );
        ("sliced.pack_us", p st.pack 50.0);
        ("sliced.bfs_us", p st.bfs 50.0);
        ("sliced.lane_fill", lane_fill);
        ("evaluator.swap_us", p st.swap 50.0);
        ("evaluator.diameter_us", p st.diam 50.0);
        ("engine.bfs.word_ops_per_set", counter "engine.bfs.word_ops" /. counter "tolerance.sets_checked");
        ("par.speedup", Samples.percentile j1 50.0 /. Samples.percentile j2 50.0);
        ("par.tasks_max_min", tasks_ratio);
        ("tolerance.enumerate_ms", ms st.enumerate_ns /. float_of_int runs);
        ("tolerance.other_frac", Reconcile.gap r +. (us st.enumerate_ns /. sweep_us));
        ("trace.overhead_frac", (Samples.percentile traced 50.0 /. Samples.percentile plain 50.0) -. 1.0);
        ("reconcile.gap_frac", Reconcile.gap r);
        ("reconcile.checked", 1.0);
        ("reconcile.failed", if Reconcile.ok r then 0.0 else 1.0);
      ]
    in
    layers @ idle query_only
  end

(* ------------------------------------------------------------------ *)
(* Result                                                              *)

let emit ~trace ~tally values =
  let names = if trace then layer_metrics else e2e_metrics in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v when Float.is_finite v -> v
          | Some v -> infra "metric %s is %g" name v
          | None -> infra "metric %s was not computed" name
        in
        Printf.printf "%-44s %.6g %s\n" name v unit;
        (name, Sjson.Obj [ ("value", Sjson.Float v); ("unit", Sjson.Str unit) ]))
      names
  in
  Printf.printf "%-44s %.6g ratio\n" "failed_frac" (Check.failed_frac tally);
  (match tally.Check.first_failure with
  | Some f -> Printf.printf "first failure: %s\n" f
  | None -> ());
  print_endline
    (Sjson.to_string
       (Sjson.Obj
          [
            ("correct", Sjson.Bool (tally.Check.failed = 0 && tally.Check.attempted > 0));
            ("attempted", Sjson.Int tally.Check.attempted);
            ("failed", Sjson.Int tally.Check.failed);
            ("metrics", Sjson.Obj metrics);
          ]))

let run_workload ~name ~seed ~seconds ~trace ~ftr =
  let w =
    match List.assoc_opt name workloads with
    | Some w -> w
    | None -> infra "unknown workload %s" name
  in
  let tally = Check.tally () in
  let root = tmp_root () in
  let values =
    Fun.protect
      ~finally:(fun () ->
        kill_live ();
        rm_rf root;
        try Unix.rmdir (Filename.dirname root) with Unix.Unix_error _ -> ())
      (fun () ->
        match w with
        | Query { kind; inflight } ->
            if not (Sys.file_exists ftr) then infra "no ftr binary at %s" ftr;
            run_query ~ftr ~root ~kind ~inflight ~seed ~seconds ~trace ~tally
        | Sweep { spec; jobs } -> run_sweep ~spec ~jobs ~seed ~seconds ~trace ~tally)
  in
  emit ~trace ~tally values

let usage () =
  prerr_endline
    "usage: bench --workload W --seed N --seconds S --trace 0|1 --ftr PATH";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let code =
    try
      let o = opts [] args in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let num k conv = match conv (get k) with Some v -> v | None -> usage () in
      let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
      run_workload ~name:(get "workload") ~seed:(num "seed" int_of_string_opt)
        ~seconds:(num "seconds" float_of_string_opt) ~trace ~ftr:(get "ftr");
      0
    with Infra msg ->
      Printf.eprintf "bench: %s\n" msg;
      3
  in
  exit code
