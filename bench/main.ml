(* Benchmark harness. One Bechamel Test.make per experiment id of
   DESIGN.md section 4 (the paper has no numbered tables; its theorems
   and figures play that role), plus micro-benchmarks of the hot
   primitives underneath them and of the incremental evaluation
   engine (jobs=1 vs jobs=N, and against the one-shot evaluation loop
   the engine replaced). After the timing runs, the harness re-prints
   the experiment tables themselves in quick mode, so a single
   `dune exec bench/main.exe` regenerates every row the paper reports.

   Timings are also written machine-readably to BENCH_eval.json
   (override with --json PATH). Pass --timings-only or --tables-only
   to run half of the harness, and --quick for a low-quota run (CI). *)

open Bechamel
open Ftr_graph
open Ftr_core
module A = Ftr_analysis

(* ------------------------------------------------------------------ *)
(* Shared fixtures (built once, outside the timed region).            *)
(* ------------------------------------------------------------------ *)

let torus55 = Families.torus 5 5
let torus77 = Families.torus 7 7
let cycle45 = Families.cycle 45
let cycle27 = Families.cycle 27
let cycle16 = Families.cycle 16
let ccc4 = Families.ccc 4
let petersen = Families.petersen ()
let kernel_t55 = Kernel.make torus55 ~t:3
let circular_c45 = Circular.make cycle45 ~t:1
let rng () = Random.State.make [| 17 |]
let three_faults = Bitset.of_list 25 [ 6; 13; 19 ]
let stage = Staged.stage

(* One Test.make per experiment id: time the operation that experiment
   is built around. *)
let experiment_tests =
  [
    Test.make ~name:"e1_kernel_2t:build+check"
      (stage (fun () ->
           let c = Kernel.make torus55 ~t:3 in
           Surviving.diameter c.Construction.routing ~faults:three_faults));
    Test.make ~name:"e2_kernel_half:check_f1"
      (stage (fun () -> Tolerance.exhaustive kernel_t55.Construction.routing ~f:1));
    Test.make ~name:"e3_circular:build" (stage (fun () -> Circular.make torus77 ~t:3));
    Test.make ~name:"e4_tricircular:build"
      (stage (fun () -> Tri_circular.make cycle45 ~t:1 ~variant:Tri_circular.Full));
    Test.make ~name:"e5_tricircular_small:build"
      (stage (fun () -> Tri_circular.make cycle27 ~t:1 ~variant:Tri_circular.Small));
    Test.make ~name:"e6_bipolar_uni:build"
      (stage (fun () -> Bipolar.make_unidirectional cycle16 ~t:1));
    Test.make ~name:"e7_bipolar_bi:build"
      (stage (fun () -> Bipolar.make_bidirectional cycle16 ~t:1));
    Test.make ~name:"e8_neighborhood:greedy" (stage (fun () -> Independent.greedy ccc4));
    Test.make ~name:"e9_two_trees:find"
      (stage
         (let g = Random_graphs.gnp ~rng:(rng ()) 128 0.02 in
          fun () -> Two_trees.find g));
    Test.make ~name:"e10_multi_full:build"
      (stage (fun () -> Multirouting.full petersen ~t:2));
    Test.make ~name:"e11_multi_kernel:build"
      (stage (fun () -> Multirouting.kernel_plus torus55 ~t:3));
    Test.make ~name:"e12_augment:build"
      (stage (fun () -> Augment.clique_concentrator torus55 ~t:3));
    Test.make ~name:"f1_fig_circular:dot"
      (stage (fun () ->
           Dot.with_colored_groups
             ~groups:[ ("M", circular_c45.Construction.concentrator) ]
             cycle45));
    Test.make ~name:"f2_fig_tricircular:dot" (stage (fun () -> Dot.of_graph cycle27));
    Test.make ~name:"f3_fig_bipolar:dot" (stage (fun () -> Dot.of_graph cycle16));
    Test.make ~name:"e13_components:diameters"
      (stage (fun () ->
           Surviving.component_diameters kernel_t55.Construction.routing
             ~faults:(Bitset.of_list 25 [ 6; 13; 19; 2 ])));
    Test.make ~name:"e14_baseline:build"
      (stage (fun () -> Minimal_routing.make torus55));
    Test.make ~name:"e15_ecube:build" (stage (fun () -> Hypercube_routing.ecube 4));
    Test.make ~name:"e16_kernel_growth:q5"
      (stage
         (let q5 = Families.hypercube 5 in
          fun () -> Kernel.make q5 ~t:4));
    Test.make ~name:"s1_simulator:200msgs"
      (stage (fun () ->
           let net = Fault_model.create kernel_t55.Construction.routing in
           let sim = Ftr_sim.Sim.create () in
           let entries =
             Ftr_sim.Workload.uniform ~rng:(rng ()) ~n:25 ~count:200 ~horizon:100.0
           in
           Ftr_sim.Protocol.deliver_all sim net Ftr_sim.Protocol.default_config entries));
  ]

(* Micro-benchmarks of the primitives the constructions lean on. *)
let primitive_tests =
  [
    Test.make ~name:"prim:maxflow_dinic_torus77"
      (stage (fun () -> Disjoint_paths.st_connectivity torus77 ~src:0 ~dst:24 ()));
    Test.make ~name:"prim:tree_routing_torus77"
      (stage
         (let m = Array.to_list (Graph.neighbors torus77 24) in
          fun () -> Tree_routing.make torus77 ~src:0 ~targets:m ~k:4));
    Test.make ~name:"prim:vertex_connectivity_ccc4"
      (stage (fun () -> Connectivity.vertex_connectivity ccc4));
    Test.make ~name:"prim:surviving_diameter_torus55"
      (stage (fun () ->
           Surviving.diameter kernel_t55.Construction.routing ~faults:three_faults));
    Test.make ~name:"prim:bfs_torus77" (stage (fun () -> Traversal.bfs torus77 0));
    Test.make ~name:"prim:graph_diameter_torus77"
      (stage (fun () -> Metrics.diameter torus77));
    Test.make ~name:"prim:properties_check_torus55"
      (stage (fun () -> Properties.check kernel_t55 ~faults:three_faults));
    Test.make ~name:"prim:routing_io_roundtrip"
      (stage
         (let text = Routing_io.to_string kernel_t55.Construction.routing in
          fun () -> Routing_io.load torus55 text));
  ]

(* The attack engine's inner loop: 64 surviving-diameter evaluations
   through a per-set evaluator on the compiled table vs the per-set
   graph construction it replaces — the speedup is what makes budgeted
   search viable. *)
let attack_tests =
  let ev = Surviving.evaluator (Surviving.compile kernel_t55.Construction.routing) in
  let fault_lists =
    let rng = Random.State.make [| 23 |] in
    Array.init 64 (fun _ ->
        List.sort_uniq compare (List.init 3 (fun _ -> Random.State.int rng 25)))
  in
  let fault_sets = Array.map (Bitset.of_list 25) fault_lists in
  [
    Test.make ~name:"attack:eval64_compiled"
      (stage (fun () ->
           Array.iter
             (fun vs ->
               Surviving.set_faults ev vs;
               ignore (Surviving.evaluator_diameter ev))
             fault_lists));
    Test.make ~name:"attack:eval64_uncompiled"
      (stage (fun () ->
           Array.iter
             (fun faults ->
               ignore (Surviving.diameter kernel_t55.Construction.routing ~faults))
             fault_sets));
    Test.make ~name:"attack:search_torus55_b300"
      (stage (fun () ->
           Attack.search
             ~config:{ Attack.default_config with Attack.budget = 300; restarts = 3 }
             ~rng:(rng ()) ~pools:kernel_t55.Construction.pools
             kernel_t55.Construction.routing ~f:3));
  ]

(* The evaluation engine under explicit worker-domain counts, plus a
   one-shot loop (materialize each fault set, load it into a per-set
   evaluator, one diameter per set, no slicing) as the speedup
   baseline. *)
let jobs_n = 8

(* ns/run measured at the pre-engine commit (3b75048) on the reference
   host, full quota — the fixed points the speedup tracking in
   BENCH_eval.json compares against. Re-measure when the reference
   host changes. *)
let seed_baseline_ns =
  [
    ("e2_kernel_half:check_f1", 627_450.0);
    ("attack:search_torus55_b300", 7_190_000.0);
    ("attack:eval64_compiled", 1_390_000.0);
  ]
let attack_cfg8 = { Attack.default_config with Attack.budget = 300; restarts = jobs_n }

(* Worker-domain counts for the scaling curve. jobs_n stays the
   headline ratio (jobs8 vs jobs1 must not regress); the other points
   show where the curve flattens on the current host and feed the
   derived recommended_jobs in the JSON. *)
let scaling_jobs = [ 1; 2; 4; jobs_n; 16 ]

let engine_tests =
  let routing = kernel_t55.Construction.routing in
  let n = Graph.n (Routing.graph routing) in
  let vertices = List.init n Fun.id in
  List.map
    (fun jobs ->
      Test.make
        ~name:(Printf.sprintf "engine:check_f1_jobs%d" jobs)
        (stage (fun () -> Tolerance.exhaustive ~jobs routing ~f:1)))
    scaling_jobs
  @ [
    (* Sliced vs scalar, same binary, jobs=1: the engine-level win of
       packing fault sets into word lanes. f=1 on n=25 only fills 26
       of the 63 lanes, so f=2 (326 sets, mostly full slices) is the
       representative amortisation point. *)
    Test.make ~name:"engine:check_f1_scalar"
      (stage (fun () ->
           Tolerance.exhaustive ~jobs:1 ~engine:Tolerance.Scalar routing ~f:1));
    Test.make ~name:"engine:check_f2_sliced"
      (stage (fun () -> Tolerance.exhaustive ~jobs:1 routing ~f:2));
    Test.make ~name:"engine:check_f2_scalar"
      (stage (fun () ->
           Tolerance.exhaustive ~jobs:1 ~engine:Tolerance.Scalar routing ~f:2));
    Test.make ~name:"engine:check_f1_oneshot"
      (stage (fun () ->
           let ev = Surviving.evaluator (Surviving.compile routing) in
           let worst = ref (Metrics.Finite (-1)) in
           Seq.iter
             (fun vs ->
               Surviving.set_faults ev vs;
               let d = Surviving.evaluator_diameter ev in
               if Attack.score ~n d > Attack.score ~n !worst then worst := d)
             (Tolerance.subsets_up_to vertices 1);
           !worst));
    Test.make ~name:"engine:attack_b300_jobs1"
      (stage (fun () ->
           Attack.search ~config:attack_cfg8 ~jobs:1 ~rng:(rng ())
             ~pools:kernel_t55.Construction.pools kernel_t55.Construction.routing ~f:3));
    Test.make
      ~name:(Printf.sprintf "engine:attack_b300_jobs%d" jobs_n)
      (stage (fun () ->
           Attack.search ~config:attack_cfg8 ~jobs:jobs_n ~rng:(rng ())
             ~pools:kernel_t55.Construction.pools kernel_t55.Construction.routing ~f:3));
  ]

(* The serve stack under synthetic load: the admission/pump core with
   a virtual clock (no sockets, no journal) and the full five-beat
   chaos scenario (journal fsyncs included). *)
module Serve = Ftr_serve

let chaos_cfg =
  {
    Serve.Scenario.queries = 40;
    (* The wall-clock gate is irrelevant to throughput accounting and
       would make the bench row flaky on loaded boxes; park it. *)
    slo_p99_ms = 1e9;
    seed = 0xBEEF;
    jobs = None;
    certify = false;
    journal_dir = Filename.get_temp_dir_name ();
  }

let chaos_settings =
  {
    Serve.Scenario.burst = 64;
    max_queue = 24;
    deadline_ticks = 48.0;
    gray_factor = 8.0;
    radius = 1;
    zipf_s = 1.1;
    min_delivery = 0.3;
  }

let run_chaos () =
  Serve.Scenario.chaos ~label:"bench-chaos" kernel_t55 chaos_cfg chaos_settings

let serve_tests =
  [
    Test.make ~name:"serve:pump_route100"
      (stage (fun () ->
           let engine = Serve.Engine.create kernel_t55.Construction.routing in
           let vclock = ref 0.0 in
           let srv =
             Serve.Server.create
               ~clock:(fun () -> !vclock)
               { Serve.Server.max_queue = 128; deadline = 0.0; bound = None }
               engine
           in
           let n = Graph.n (Routing.graph kernel_t55.Construction.routing) in
           for i = 0 to 99 do
             vclock := !vclock +. 1.0;
             Serve.Server.submit srv
               (Serve.Wire.Route { src = i mod n; dst = (i * 7 + 1) mod n })
               (fun _ -> ());
             Serve.Server.pump srv
           done));
    Test.make ~name:"serve:chaos_scenario_t55"
      (stage run_chaos);
  ]

(* ------------------------------------------------------------------ *)
(* Runner                                                             *)
(* ------------------------------------------------------------------ *)

let pp_ns est =
  if est >= 1e9 then Printf.sprintf "%10.2f s " (est /. 1e9)
  else if est >= 1e6 then Printf.sprintf "%10.2f ms" (est /. 1e6)
  else if est >= 1e3 then Printf.sprintf "%10.2f us" (est /. 1e3)
  else Printf.sprintf "%10.2f ns" est

let run_timings ~quick () =
  let tests =
    Test.make_grouped ~name:"ftr"
      (experiment_tests @ primitive_tests @ attack_tests @ engine_tests
      @ serve_tests)
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let limit = if quick then 300 else 1500 in
  let quota = Time.second (if quick then 0.05 else 0.25) in
  let cfg = Benchmark.cfg ~limit ~quota ~kde:None ~stabilize:false () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> (name, est) :: acc
        | Some [] | None -> acc)
      results []
  in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-48s %16s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter (fun (name, est) -> Printf.printf "%-48s %16s\n" name (pp_ns est)) rows;
  rows

(* A benchmark's full name carries the Bechamel group prefix; look rows
   up by their own suffix. *)
let find_ns rows name =
  List.find_map
    (fun (full, ns) ->
      let ln = String.length name and lf = String.length full in
      if lf >= ln && String.sub full (lf - ln) ln = name then Some ns else None)
    rows

(* Deterministic engine counters over a fixed workload (one exhaustive
   f=1 check plus one budget-300 attack, both at jobs=1), so the bench
   JSON tracks work-done alongside time-taken: a perf change that
   comes from doing different work, not doing the same work faster,
   shows up here. *)
let obs_counters () =
  let module Obs = Ftr_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  ignore (Tolerance.exhaustive ~jobs:1 kernel_t55.Construction.routing ~f:1);
  ignore
    (Attack.search ~config:attack_cfg8 ~jobs:1 ~rng:(rng ())
       ~pools:kernel_t55.Construction.pools kernel_t55.Construction.routing ~f:3);
  Obs.set_enabled false;
  let counters = Obs.counters () in
  Obs.reset ();
  counters

let json_of_rows rows ~quick =
  let buf = Buffer.create 4096 in
  let strip full =
    match String.rindex_opt full '/' with
    | Some i -> String.sub full (i + 1) (String.length full - i - 1)
    | None -> full
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"generated_by\": \"bench/main.exe\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"quick\": %b,\n  \"jobs_n\": %d,\n" quick jobs_n);
  (* recommended_jobs is derived from the measured scaling curve — the
     smallest jobs value achieving the best check_f1 time — rather
     than trusting Domain.recommended_domain_count, which reports
     hardware threads the pool may not profit from (the 1-core CI box
     reported 8 and the old hardcoded value sent every caller into a
     0.76x regression). *)
  let curve =
    List.filter_map
      (fun jobs ->
        Option.map
          (fun ns -> (jobs, ns))
          (find_ns rows (Printf.sprintf "engine:check_f1_jobs%d" jobs)))
      scaling_jobs
  in
  let recommended =
    match curve with
    | [] -> Par.recommended_jobs ()
    | (j0, ns0) :: rest ->
        fst
          (List.fold_left
             (fun (bj, bns) (j, ns) -> if ns < bns then (j, ns) else (bj, bns))
             (j0, ns0) rest)
  in
  Buffer.add_string buf (Printf.sprintf "  \"recommended_jobs\": %d,\n" recommended);
  (match curve with
  | [] -> ()
  | (_, ns1) :: _ ->
      Buffer.add_string buf "  \"scaling_curve\": [\n";
      List.iteri
        (fun i (jobs, ns) ->
          Buffer.add_string buf
            (Printf.sprintf
               "    { \"jobs\": %d, \"ns_per_run\": %.1f, \"speedup_vs_jobs1\": \
                %.2f }%s\n"
               jobs ns
               (if ns > 0.0 then ns1 /. ns else 0.0)
               (if i = List.length curve - 1 then "" else ",")))
        curve;
      Buffer.add_string buf "  ],\n");
  Buffer.add_string buf "  \"benchmarks\": [\n";
  List.iteri
    (fun i (full, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    { \"name\": %S, \"ns_per_run\": %.1f }%s\n" (strip full)
           ns
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  (* Derived speedups of the incremental engine. The attack baseline
     is an equivalent-work estimate: the evaluations the search spends
     at the one-shot (batch, non-incremental) per-evaluation cost. *)
  let evals_spent =
    (Attack.search ~config:attack_cfg8 ~jobs:1 ~rng:(rng ())
       ~pools:kernel_t55.Construction.pools kernel_t55.Construction.routing ~f:3)
      .Attack.evals
  in
  let speedup a b =
    match (find_ns rows a, find_ns rows b) with
    | Some num, Some den when den > 0.0 -> Some (num /. den)
    | _ -> None
  in
  let entries = ref [] in
  let add name v = match v with None -> () | Some v -> entries := (name, v) :: !entries in
  add "check_f1_jobs1_vs_oneshot" (speedup "engine:check_f1_oneshot" "engine:check_f1_jobs1");
  add
    (Printf.sprintf "check_f1_jobs%d_vs_oneshot" jobs_n)
    (speedup "engine:check_f1_oneshot" (Printf.sprintf "engine:check_f1_jobs%d" jobs_n));
  add
    (Printf.sprintf "check_f1_jobs%d_vs_jobs1" jobs_n)
    (speedup "engine:check_f1_jobs1" (Printf.sprintf "engine:check_f1_jobs%d" jobs_n));
  (* Same-binary engine comparison: the default (sliced) jobs=1 rows
     against the forced-scalar rows. *)
  add "check_f1_sliced_vs_scalar" (speedup "engine:check_f1_scalar" "engine:check_f1_jobs1");
  add "check_f2_sliced_vs_scalar" (speedup "engine:check_f2_scalar" "engine:check_f2_sliced");
  (match find_ns rows "attack:eval64_compiled" with
  | Some eval64 ->
      let oneshot_equiv = float_of_int evals_spent *. (eval64 /. 64.0) in
      entries := ("attack_b300_oneshot_equiv_ns", oneshot_equiv) :: !entries;
      List.iter
        (fun jobs ->
          match find_ns rows (Printf.sprintf "engine:attack_b300_jobs%d" jobs) with
          | Some ns when ns > 0.0 ->
              entries :=
                ( Printf.sprintf "attack_b300_jobs%d_vs_oneshot_equiv" jobs,
                  oneshot_equiv /. ns )
                :: !entries
          | _ -> ())
        [ 1; jobs_n ]
  | None -> ());
  add
    (Printf.sprintf "attack_b300_jobs%d_vs_jobs1" jobs_n)
    (speedup "engine:attack_b300_jobs1"
       (Printf.sprintf "engine:attack_b300_jobs%d" jobs_n));
  let entries = List.rev !entries in
  Buffer.add_string buf "  \"speedups\": {\n";
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    %S: %.2f%s\n" name v
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"obs_counters\": {\n";
  Buffer.add_string buf
    "    \"note\": \"engine counters over a fixed workload (exhaustive f=1 + \
     attack b300, jobs=1); schedule-independent by construction\",\n";
  let counters = obs_counters () in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    %S: %d%s\n" name v
           (if i = List.length counters - 1 then "" else ",")))
    counters;
  Buffer.add_string buf "  },\n";
  (* Throughput accounting for the serve stack under the fixed chaos
     scenario: request/delivery/shed counts and virtual-clock ticks,
     all schedule-independent (wall-clock latencies deliberately
     excluded — the ns/run rows above carry time-taken). *)
  (let o = run_chaos () in
   let r = o.Serve.Scenario.run in
   Buffer.add_string buf "  \"chaos_throughput\": {\n";
   Buffer.add_string buf
     "    \"note\": \"fixed five-beat chaos scenario on torus:5x5/kernel; \
      counts are a pure function of (construction, config, seed)\",\n";
   Buffer.add_string buf
     (Printf.sprintf
        "    \"requests\": %d,\n    \"delivered\": %d,\n    \"shed\": %d,\n\
        \    \"virtual_ticks\": %d,\n    \"delivery_rate\": %.4f,\n\
        \    \"digest_converged\": %b,\n    \"exit\": %S\n"
        r.total.requests r.total.delivered r.total.shed r.virtual_ticks
        (Serve.Scenario.delivery_rate r) r.digest_converged
        (Serve.Exit_code.describe o.exit)));
  Buffer.add_string buf "  },\n";
  (* Compact route tables at scale: build time, resident table bytes
     and per-find latency for the label-computed schemes at n up to
     2^20, plus a small-n hashtable-vs-compact baseline (the hashtable
     backend materialises n(n-1) routes, so it cannot even appear in
     the large rows). All measured directly — one build and a fixed
     find sweep per row — not through Bechamel. *)
  (let measure_row ~label build =
     let t0 = Unix.gettimeofday () in
     let routing = build () in
     let build_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
     let g = Routing.graph routing in
     let n = Graph.n g in
     let routes = Routing.route_count routing in
     let table_bytes =
       match Routing.compact routing with
       | Some c -> Compact.bytes c
       | None -> Obj.reachable_words (Obj.repr routing) * (Sys.word_size / 8)
     in
     let finds = 100_000 in
     let t1 = Unix.gettimeofday () in
     let state = ref 0x2545F491 in
     for _ = 1 to finds do
       (* xorshift: cheap enough not to drown the find itself. *)
       state := !state lxor (!state lsl 13);
       state := !state lxor (!state lsr 7);
       state := !state lxor (!state lsl 17);
       let src = !state land max_int mod n in
       let dst = (!state lsr 21) land max_int mod n in
       if src <> dst then ignore (Routing.find routing src dst)
     done;
     let find_ns = (Unix.gettimeofday () -. t1) *. 1e9 /. float_of_int finds in
     Printf.sprintf
       "    { \"label\": %S, \"backend\": %S, \"n\": %d, \"routes\": %d, \
        \"build_ms\": %.1f, \"table_bytes\": %d, \"bytes_per_route\": %.6f, \
        \"find_ns\": %.1f }"
       label
       (Routing.backend_name routing)
       n routes build_ms table_bytes
       (float_of_int table_bytes /. float_of_int (max 1 routes))
       find_ns
   in
   let rows =
     [
       measure_row ~label:"ecube_q7_hashtable" (fun () ->
           (Hypercube_routing.ecube 7).Construction.routing);
       measure_row ~label:"ecube_q7_compact" (fun () ->
           Routing.of_compact (Families.hypercube 7) Routing.Unidirectional
             (Compact.hypercube 7));
       measure_row ~label:"hypercube_14_compact" (fun () ->
           (Compact_family.hypercube 14).Construction.routing);
       measure_row ~label:"debruijn_17_compact" (fun () ->
           (Compact_family.de_bruijn 17).Construction.routing);
       measure_row ~label:"debruijn_20_compact" (fun () ->
           (Compact_family.de_bruijn 20).Construction.routing);
     ]
   in
   Buffer.add_string buf "  \"compact_tables\": [\n";
   Buffer.add_string buf (String.concat ",\n" rows);
   Buffer.add_string buf "\n  ],\n");
  (* Lint pass: the same ftr-lint v2 run CI gates on, measured cold
     (empty cache) and warm (every unchanged file replayed from the
     digest-keyed cache), plus findings per rule so a rule suddenly
     going quiet — or noisy — shows up as a bench diff. Temp cache:
     the bench must never touch a working tree's real cache. *)
  (let cache_file = Filename.temp_file "ftr-lint-bench" ".cache" in
   Sys.remove cache_file;
   let timed_lint () =
     let t0 = Unix.gettimeofday () in
     let report = Ftr_lint.Driver.lint_paths ~cache_file [ "lib"; "bin" ] in
     ((Unix.gettimeofday () -. t0) *. 1000.0, report)
   in
   let cold_ms, cold = timed_lint () in
   let warm_ms, warm = timed_lint () in
   (try Sys.remove cache_file with Sys_error _ -> ());
   let per_rule =
     let tbl = Hashtbl.create 8 in
     let bump rule =
       Hashtbl.replace tbl rule
         (1 + Option.value ~default:0 (Hashtbl.find_opt tbl rule))
     in
     List.iter (fun (d : Ftr_lint.Diagnostic.t) -> bump d.rule) cold.diagnostics;
     List.iter
       (fun (s : Ftr_lint.Diagnostic.suppressed) -> bump s.diag.rule)
       cold.suppressions;
     List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
   in
   Buffer.add_string buf "  \"lint_pass\": {\n";
   Buffer.add_string buf
     (Printf.sprintf
        "    \"files\": %d, \"cold_ms\": %.1f, \"cached_ms\": %.1f, \
         \"files_cached_warm\": %d,\n"
        cold.files_scanned cold_ms warm_ms warm.files_cached);
   Buffer.add_string buf
     (Printf.sprintf "    \"findings_per_rule\": { %s }\n"
        (String.concat ", "
           (List.map (fun (r, c) -> Printf.sprintf "%S: %d" r c) per_rule)));
   Buffer.add_string buf "  },\n");
  Buffer.add_string buf "  \"seed_baseline\": {\n";
  Buffer.add_string buf "    \"commit\": \"3b75048\",\n";
  Buffer.add_string buf
    "    \"note\": \"ns/run at the pre-engine commit, reference host, full quota\",\n";
  let seed_rows =
    List.filter_map
      (fun (name, seed_ns) ->
        Option.map (fun now -> (name, seed_ns, now)) (find_ns rows name))
      seed_baseline_ns
  in
  List.iteri
    (fun i (name, seed_ns, now) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    %S: { \"seed_ns_per_run\": %.1f, \"ns_per_run\": %.1f, \
            \"speedup_vs_seed\": %.2f }%s\n"
           name seed_ns now (seed_ns /. now)
           (if i = List.length seed_rows - 1 then "" else ",")))
    seed_rows;
  Buffer.add_string buf "  }\n}\n";
  Buffer.contents buf

let run_tables () =
  let ctx = A.Experiments.default_context ~seed:0xBEEF ~quick:true () in
  let results = A.Experiments.all ctx in
  print_string (A.Report.console results);
  match A.Report.violations results with
  | [] -> print_endline "roll-up: every checked claim held."
  | bad ->
      Printf.printf "roll-up: VIOLATIONS in %s\n" (String.concat ", " (List.map fst bad))

(* --guard-scaling: fail the run when adding workers makes the
   exhaustive checker slower than sequential (the regression this
   harness exists to catch: jobs8/jobs1 sat at 0.76x before the
   chunked scheduler). Small tolerance absorbs timer noise on the
   ~1.0x boxes where the pool can only break even. *)
let guard_scaling rows =
  let ratio =
    match
      ( find_ns rows "engine:check_f1_jobs1",
        find_ns rows (Printf.sprintf "engine:check_f1_jobs%d" jobs_n) )
    with
    | Some ns1, Some nsn when nsn > 0.0 -> Some (ns1 /. nsn)
    | _ -> None
  in
  match ratio with
  | None ->
      prerr_endline "guard-scaling: check_f1 jobs rows missing from the run";
      exit 1
  | Some r when r < 0.95 ->
      Printf.eprintf
        "guard-scaling: FAIL check_f1_jobs%d_vs_jobs1 = %.3fx (>= 1.0 expected, \
         0.95 noise floor): parallel sweep regressed below sequential\n"
        jobs_n r;
      exit 1
  | Some r ->
      Printf.printf "guard-scaling: ok, check_f1_jobs%d_vs_jobs1 = %.3fx\n" jobs_n r

let () =
  let args = Array.to_list Sys.argv in
  let timings = not (List.mem "--tables-only" args) in
  let tables = not (List.mem "--timings-only" args) in
  let quick = List.mem "--quick" args in
  let guard = List.mem "--guard-scaling" args in
  let json_path =
    let rec find = function
      | "--json" :: path :: _ -> path
      | _ :: rest -> find rest
      | [] -> "BENCH_eval.json"
    in
    find args
  in
  if timings then begin
    print_endline "== timing: one benchmark per experiment id (see DESIGN.md) ==";
    let rows = run_timings ~quick () in
    let oc = open_out json_path in
    output_string oc (json_of_rows rows ~quick);
    close_out oc;
    Printf.printf "\nwrote %s\n" json_path;
    if guard then guard_scaling rows
  end
  else if guard then begin
    prerr_endline "guard-scaling: requires the timing run (drop --tables-only)";
    exit 1
  end;
  if tables then begin
    print_endline "\n== experiment tables (quick mode) ==";
    run_tables ()
  end
