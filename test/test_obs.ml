(* The observability registry itself, plus the contract the whole
   instrumentation layer is built on: counter output is a function of
   the requested work, not of the schedule, so the emitted JSON is
   byte-identical for every jobs value. *)

open Ftr_graph
open Ftr_core
module Obs = Ftr_obs.Obs

(* Every test owns the process-global registry state for its
   duration. *)
let scoped f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())

let test_counter_basics () =
  scoped @@ fun () ->
  let c = Obs.counter "test.basic" in
  Alcotest.(check int) "starts at zero" 0 (Obs.value c);
  Obs.incr c;
  Obs.add c 41;
  Alcotest.(check int) "accumulates" 42 (Obs.value c);
  Alcotest.(check bool) "same name, same counter" true (Obs.counter "test.basic" == c);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.value c)

let test_disabled_is_noop () =
  Obs.reset ();
  Obs.set_enabled false;
  let c = Obs.counter "test.disabled" in
  Obs.add c 7;
  Alcotest.(check int) "no recording while disabled" 0 (Obs.value c);
  let r = Obs.with_span "test.disabled_span" (fun () -> 3) in
  Alcotest.(check int) "span still runs the body" 3 r;
  Alcotest.(check bool) "no span recorded" true
    (not (List.exists (fun (n, _, _) -> n = "test.disabled_span") (Obs.spans ())))

let test_gauges () =
  scoped @@ fun () ->
  let g = Obs.gauge "test.gauge" in
  Obs.set_gauge g 2.5;
  Obs.add_gauge g 0.5;
  Obs.max_gauge g 1.0;
  Alcotest.(check (float 1e-9)) "set/add/max" 3.0
    (List.assoc "test.gauge" (Obs.gauges ()))

let test_spans () =
  scoped @@ fun () ->
  let r = Obs.with_span "test.span" (fun () -> 1 + 1) in
  ignore (Obs.with_span "test.span" (fun () -> ()));
  Alcotest.(check int) "body result" 2 r;
  match List.find_opt (fun (n, _, _) -> n = "test.span") (Obs.spans ()) with
  | None -> Alcotest.fail "span not recorded"
  | Some (_, count, total) ->
      Alcotest.(check int) "two completions" 2 count;
      Alcotest.(check bool) "non-negative total" true (total >= 0.0)

(* The wall clock is not monotonic: a negative measured duration
   (clock stepped mid-span) must clamp to zero — span totals never
   decrease — and each clamp is tallied on the "obs.spans_clamped"
   gauge, never a counter (clock steps are environment events, so the
   determinism rule keeps them out of the counter output). *)
let test_span_clamp () =
  scoped @@ fun () ->
  Obs.record_span "test.clamp" (-5.0);
  Obs.record_span "test.clamp" 2.0;
  (match List.find_opt (fun (n, _, _) -> n = "test.clamp") (Obs.spans ()) with
  | None -> Alcotest.fail "span not recorded"
  | Some (_, count, total) ->
      Alcotest.(check int) "clamped span still counts" 2 count;
      Alcotest.(check (float 1e-9)) "negative duration adds zero" 2.0 total);
  Alcotest.(check (float 1e-9)) "clamp tallied on the gauge" 1.0
    (Option.value ~default:0.0
       (List.assoc_opt "obs.spans_clamped" (Obs.gauges ())));
  let json = Obs.counters_json () in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "clamp tally stays out of the counters" false
    (contains "spans_clamped" json)

let test_counters_json_shape () =
  scoped @@ fun () ->
  let c = Obs.counter "test.json" in
  Obs.add c 5;
  let json = Obs.counters_json () in
  Alcotest.(check bool) "object" true
    (String.length json >= 2 && json.[0] = '{' && json.[String.length json - 1] = '}');
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "holds the entry" true (contains "\"test.json\": 5" json)

(* The acceptance criterion of the layer: engine and attack counters
   emitted at jobs=1 and jobs=4 are byte-identical. Schedule-dependent
   quantities (pool balance, parallel-section count) live in gauges,
   which this comparison deliberately excludes. *)
let counters_after f =
  Obs.reset ();
  Obs.set_enabled true;
  f ();
  let json = Obs.counters_json () in
  Obs.set_enabled false;
  Obs.reset ();
  json

(* Holding and violating bounds, over nodes and over links. At f=3
   the violating runs span more than one slice per parallel block, so
   blocks stop early, and the early stops must be jobs-independent
   too. *)
let test_certify_jobs_deterministic () =
  let c = Kernel.make (Families.torus 5 5) ~t:3 in
  let routing = c.Construction.routing in
  List.iter
    (fun (label, holds, certify) ->
      let run jobs () =
        Alcotest.(check bool) (label ^ " verdict") holds (certify ~jobs)
      in
      let j1 = counters_after (run 1) and j4 = counters_after (run 4) in
      Alcotest.(check string) (label ^ " counters jobs=1 vs jobs=4") j1 j4)
    [
      ( "certify bound=6",
        true,
        fun ~jobs -> (Tolerance.certify ~jobs routing ~f:2 ~bound:6).Tolerance.holds );
      ( "certify f=3 bound=2",
        false,
        fun ~jobs -> (Tolerance.certify ~jobs routing ~f:3 ~bound:2).Tolerance.holds );
      ( "certify links bound=6",
        true,
        fun ~jobs ->
          (Tolerance.certify ~universe:Surviving.Links ~jobs routing ~f:2 ~bound:6)
            .Tolerance.holds );
      ( "certify links f=3 bound=2",
        false,
        fun ~jobs ->
          (Tolerance.certify ~universe:Surviving.Links ~jobs routing ~f:3 ~bound:2)
            .Tolerance.holds );
    ]

let test_attack_jobs_deterministic () =
  let c = Kernel.make (Families.torus 5 5) ~t:3 in
  let routing = c.Construction.routing in
  let config = { Attack.default_config with Attack.budget = 400; restarts = 4 } in
  let run jobs () =
    let rng = Random.State.make [| 42 |] in
    ignore (Attack.search ~config ~jobs ~rng ~pools:c.Construction.pools routing ~f:3)
  in
  let j1 = counters_after (run 1) and j4 = counters_after (run 4) in
  Alcotest.(check string) "attack counters jobs=1 vs jobs=4" j1 j4

let test_engine_counters_move () =
  scoped @@ fun () ->
  let c = Kernel.make (Families.torus 5 5) ~t:3 in
  ignore (Tolerance.exhaustive ~jobs:1 c.Construction.routing ~f:1);
  let counters = Obs.counters () in
  let value name = Option.value (List.assoc_opt name counters) ~default:0 in
  Alcotest.(check bool) "compile counted" true (value "engine.compile.calls" >= 1);
  Alcotest.(check bool) "diameter evals counted" true (value "engine.diameter.evals" > 0);
  Alcotest.(check bool) "bfs word ops counted" true (value "engine.bfs.word_ops" > 0);
  Alcotest.(check bool) "sets checked counted" true
    (value "tolerance.sets_checked" = 26 (* 25 singletons + the empty set *))

(* A full disk: the one write of the document happens at the flush,
   and is reported as a failed write, not dropped by the close or
   raised as Fun.Finally_raised. *)
let test_write_file_full_disk () =
  if Sys.file_exists "/dev/full" then
    Alcotest.(check bool) "write to /dev/full fails" false
      (Ftr_obs.Output.write_file "/dev/full" (Obs.to_json ()))

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "spans" `Quick test_spans;
          Alcotest.test_case "negative spans clamp" `Quick test_span_clamp;
          Alcotest.test_case "counters json" `Quick test_counters_json_shape;
          Alcotest.test_case "full disk write reports failure" `Quick
            test_write_file_full_disk;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "certify jobs=1 = jobs=4" `Quick
            test_certify_jobs_deterministic;
          Alcotest.test_case "attack jobs=1 = jobs=4" `Quick
            test_attack_jobs_deterministic;
          Alcotest.test_case "engine counters move" `Quick test_engine_counters_move;
        ] );
    ]
