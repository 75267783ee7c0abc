(* Tests for the benchmark's own logic: generator determinism, output
   checks and failure accounting, stage reconciliation, the tail
   percentile and the pace reference. Compare mode, in run.py, is tested by test_compare.py. *)

open Ftr_graph
open Ftr_core
open Perfbench
module Serve = Ftr_serve
module Sjson = Serve.Sjson
module Wire = Serve.Wire

let graph = Families.hypercube 6
let lines kind seed count =
  Array.map Wire.request_to_line (Gen.batch (Gen.create ~kind ~graph ~seed) ~count)

(* ---------------- generators ---------------- *)

let test_same_seed_same_stream () =
  List.iter
    (fun kind ->
      let a = lines kind 7 5000 and b = lines kind 7 5000 in
      Alcotest.(check (array string)) "byte-identical" a b;
      Alcotest.(check bool) "another seed differs" false (a = lines kind 8 5000))
    [ Gen.Read; Gen.Churn ]

let test_batching_invisible () =
  List.iter
    (fun kind ->
      let g = Gen.create ~kind ~graph ~seed:3 in
      let pieces = Array.concat (List.init 50 (fun _ -> Gen.batch g ~count:100)) in
      Alcotest.(check (array string))
        "batch size does not change the stream" (lines kind 3 5000)
        (Array.map Wire.request_to_line pieces))
    [ Gen.Read; Gen.Churn ]

let test_read_is_routes_only () =
  Array.iter
    (function
      | Wire.Route { src; dst } ->
          Alcotest.(check bool) "distinct endpoints" true (src <> dst)
      | _ -> Alcotest.fail "read workload sent a non-route")
    (Gen.batch (Gen.create ~kind:Gen.Read ~graph ~seed:1) ~count:3000)

let test_churn_invariants () =
  let reqs = Gen.batch (Gen.create ~kind:Gen.Churn ~graph ~seed:11) ~count:20000 in
  let m = Model.create graph in
  let deltas = ref 0 in
  Array.iteri
    (fun i req ->
      match req with
      | Wire.Fault a ->
          incr deltas;
          Alcotest.(check bool) "every delta changes the state" true (Model.apply m a);
          Alcotest.(check bool) "at most 5 crisp faults" true (Model.crisp m <= Gen.max_crisp);
          Alcotest.(check bool) "at most 4 gray faults" true (m.Model.degraded <= Gen.max_gray);
          if i + 1 < Array.length reqs then
            Alcotest.(check bool) "diameter follows a delta" true (reqs.(i + 1) = Wire.Diameter)
      | Wire.Route { src; dst } ->
          Alcotest.(check bool) "endpoints alive" false
            (Model.node_down m src || Model.node_down m dst)
      | Wire.Diameter -> ()
      | _ -> Alcotest.fail "unexpected op")
    reqs;
  let share = float_of_int !deltas /. 20000.0 in
  Alcotest.(check bool) "about one op in eight is a delta" true (share > 0.09 && share < 0.16)

(* ---------------- checks and failure accounting ---------------- *)

let construction =
  (Builder.auto ~rng:(Random.State.make [| 0xBEEF |]) graph).Builder.construction

let routing = construction.Construction.routing
let server () = Serve.Server.create { max_queue = 64; deadline = 0.0; bound = None } (Serve.Engine.create routing)

let judge_stream reqs ~tamper =
  let daemon = server () and replay = server () in
  let model = Model.create graph in
  let tally = Check.tally () in
  Array.iteri
    (fun i req ->
      let line = tamper i req (Sjson.to_string (Serve.Server.handle daemon req)) in
      let expected = Serve.Server.handle replay req in
      Check.record tally (Check.judge ~routing ~model req ~line ~expected);
      match req with Wire.Fault a -> ignore (Model.apply model a) | _ -> ())
    reqs;
  tally

let churn = Gen.batch (Gen.create ~kind:Gen.Churn ~graph ~seed:5) ~count:3000

let test_honest_stream_passes () =
  let t = judge_stream churn ~tamper:(fun _ _ line -> line) in
  Alcotest.(check int) "attempted" 3000 t.Check.attempted;
  Alcotest.(check int) "failed" 0 t.Check.failed;
  Alcotest.(check (float 0.0)) "failed_frac" 0.0 (Check.failed_frac t)

let replace_path line path =
  match Sjson.parse line with
  | Ok (Sjson.Obj fields) ->
      Sjson.to_string
        (Sjson.Obj
           (List.map
              (fun (k, v) ->
                if k = "path" then (k, Sjson.Arr (List.map (fun i -> Sjson.Int i) path))
                else (k, v))
              fields))
  | _ -> line

let first_route_index =
  let rec go i = match churn.(i) with Wire.Route _ -> i | _ -> go (i + 1) in
  go 0

let failures_when tamper =
  let t = judge_stream churn ~tamper in
  (t.Check.failed, t.Check.first_failure)

let test_tampering_is_caught () =
  let at k f i req line = if i = k then f req line else line in
  List.iter
    (fun (name, tamper, want) ->
      let failed, first = failures_when tamper in
      Alcotest.(check int) name want failed;
      Alcotest.(check bool) (name ^ ": first failure named") (want > 0) (first <> None))
    [
      ("ok:false", at first_route_index (fun _ _ -> Wire.error_line "boom"), 1);
      ( "wrong endpoints",
        at first_route_index (fun req line ->
            match req with Wire.Route { src; _ } -> replace_path line [ src ] | _ -> line),
        1 );
      (* Two servers measure different service_ms; nothing else differs. *)
      ("untouched", (fun _ _ line -> line), 0);
    ]

let test_faulty_vertex_rejected () =
  let model = Model.create graph in
  ignore (Model.apply model (Wire.Fail_node 1));
  let resp =
    Sjson.Obj
      [
        ("ok", Sjson.Bool true);
        ("mode", Sjson.Str "detour");
        ("path", Sjson.Arr [ Sjson.Int 0; Sjson.Int 1; Sjson.Int 3 ]);
      ]
  in
  match Check.classify ~routing ~model (Wire.Route { src = 0; dst = 3 }) resp with
  | Check.Pass -> Alcotest.fail "a path through a faulty vertex passed"
  | Check.Fail _ -> ()

let test_strip_timing () =
  let a = Sjson.Obj [ ("ok", Sjson.Bool true); ("service_ms", Sjson.Float 0.1) ] in
  let b = Sjson.Obj [ ("ok", Sjson.Bool true); ("service_ms", Sjson.Float 9.0) ] in
  Alcotest.(check bool) "equal once timing is dropped" true
    (Check.strip_timing a = Check.strip_timing b)

let test_tally () =
  let t = Check.tally () in
  Check.record t Check.Pass;
  Check.record t (Check.Fail "first");
  Check.record t (Check.Fail "second");
  Check.record t Check.Pass;
  Alcotest.(check int) "attempted" 4 t.Check.attempted;
  Alcotest.(check int) "failed" 2 t.Check.failed;
  Alcotest.(check (float 1e-12)) "frac" 0.5 (Check.failed_frac t);
  Alcotest.(check (option string)) "first kept" (Some "first") t.Check.first_failure

(* ---------------- reconciliation ---------------- *)

let recon total stages = { Reconcile.name = "x"; total; stages; tolerance = 0.25 }

let test_reconcile () =
  let r = recon 100.0 [ ("a", 40.0); ("b", 50.0) ] in
  Alcotest.(check (float 1e-9)) "gap" 0.1 (Reconcile.gap r);
  Alcotest.(check bool) "within" true (Reconcile.ok r);
  let over = recon 100.0 [ ("a", 130.0) ] in
  Alcotest.(check (float 1e-9)) "over-explained" (-0.3) (Reconcile.gap over);
  Alcotest.(check bool) "outside" false (Reconcile.ok over);
  Alcotest.(check bool) "nothing measured" false (Reconcile.ok (recon 0.0 []))

(* ---------------- tail percentile ---------------- *)

let test_tail_percentile () =
  Alcotest.(check (float 1e-9)) "many samples" 90.0 (Stat.tail_percentile 100000);
  Alcotest.(check (float 1e-9)) "ten beyond" 80.0 (Stat.tail_percentile 50);
  Alcotest.(check (float 1e-9)) "few samples" 50.0 (Stat.tail_percentile 10)

(* ---------------- pace ---------------- *)

(* Pace.nominal_ns is the time of this exact computation; a change to
   the reference must come with a new nominal time. *)
let test_reference_is_fixed () =
  Alcotest.(check int) "checksum" 236633 (Pace.reference (Lazy.force Pace.graph))

let test_pace_factor () =
  let p = Pace.create () in
  let k = Pace.mark p in
  Alcotest.(check bool) "finite and positive" true (Float.is_finite k && k > 0.0);
  Alcotest.(check int) "two readings" 2 (Stat.Samples.length p.Pace.readings)

let () =
  Alcotest.run "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed, same stream" `Quick test_same_seed_same_stream;
          Alcotest.test_case "batching is invisible" `Quick test_batching_invisible;
          Alcotest.test_case "read is routes only" `Quick test_read_is_routes_only;
          Alcotest.test_case "churn invariants" `Quick test_churn_invariants;
        ] );
      ( "check",
        [
          Alcotest.test_case "honest stream passes" `Quick test_honest_stream_passes;
          Alcotest.test_case "tampering is caught" `Quick test_tampering_is_caught;
          Alcotest.test_case "faulty vertex rejected" `Quick test_faulty_vertex_rejected;
          Alcotest.test_case "strip_timing drops service_ms" `Quick test_strip_timing;
          Alcotest.test_case "failure tally" `Quick test_tally;
        ] );
      ("reconcile", [ Alcotest.test_case "gap and tolerance" `Quick test_reconcile ]);
      ("stat", [ Alcotest.test_case "tail percentile" `Quick test_tail_percentile ]);
      ( "pace",
        [
          Alcotest.test_case "reference is fixed" `Quick test_reference_is_fixed;
          Alcotest.test_case "mark gives a factor" `Quick test_pace_factor;
        ] );
    ]
