open Ftr_sim

let test_empty () =
  Alcotest.(check bool) "none" true (Stats.summarize [] = None);
  Alcotest.(check bool) "ints none" true (Stats.of_ints [] = None)

let test_single () =
  match Stats.summarize [ 5.0 ] with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
      Alcotest.(check int) "count" 1 s.Stats.count;
      Alcotest.(check (float 0.0)) "mean" 5.0 s.Stats.mean;
      Alcotest.(check (float 0.0)) "p99" 5.0 s.Stats.p99

let test_known_values () =
  let values = List.init 100 (fun i -> float_of_int (i + 1)) in
  match Stats.summarize values with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
      Alcotest.(check (float 1e-9)) "mean" 50.5 s.Stats.mean;
      Alcotest.(check (float 0.0)) "min" 1.0 s.Stats.min;
      Alcotest.(check (float 0.0)) "max" 100.0 s.Stats.max;
      Alcotest.(check (float 0.0)) "p50 nearest-rank" 50.0 s.Stats.p50;
      Alcotest.(check (float 0.0)) "p95" 95.0 s.Stats.p95;
      Alcotest.(check (float 0.0)) "p99" 99.0 s.Stats.p99

let test_unsorted_input () =
  match Stats.summarize [ 3.0; 1.0; 2.0 ] with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
      Alcotest.(check (float 0.0)) "min" 1.0 s.Stats.min;
      Alcotest.(check (float 0.0)) "p50" 2.0 s.Stats.p50

let test_of_ints () =
  match Stats.of_ints [ 1; 2; 3; 4 ] with
  | None -> Alcotest.fail "expected summary"
  | Some s -> Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean

let test_histogram () =
  let h = Stats.histogram ~buckets:2 [ 0.0; 1.0; 2.0; 3.0 ] in
  Alcotest.(check int) "two buckets" 2 (List.length h);
  let counts = List.map (fun (_, _, c) -> c) h in
  Alcotest.(check (list int)) "counts" [ 2; 2 ] counts

let test_histogram_degenerate () =
  Alcotest.(check int) "empty input" 0 (List.length (Stats.histogram ~buckets:3 []));
  let h = Stats.histogram ~buckets:3 [ 5.0; 5.0 ] in
  Alcotest.(check int) "equal values in one bucket" 2
    (List.fold_left (fun acc (_, _, c) -> acc + c) 0 h)

(* Regression: a Delivered message whose [delivered_at] was never set
   (it is initialised to NaN) used to feed a NaN latency into
   [summarize], where polymorphic sort order is undefined — p50/p95
   could come out NaN or the whole order could scramble. Now the
   latency is [None] and the summary is NaN-free. *)
let test_nan_latency_dropped () =
  let msg id status ~at =
    let m = Message.make ~id ~src:0 ~dst:1 ~sent_at:0.0 in
    m.Message.status <- status;
    m.Message.delivered_at <- at;
    m
  in
  let phantom = msg 0 Message.Delivered ~at:nan in
  Alcotest.(check bool) "phantom delivery has no latency" true
    (Message.latency phantom = None);
  let batch =
    [ phantom; msg 1 Message.Delivered ~at:10.0; msg 2 Message.Delivered ~at:20.0 ]
  in
  let d = Stats.delivery_report batch in
  match d.Stats.latency with
  | None -> Alcotest.fail "expected latency summary"
  | Some s ->
      Alcotest.(check int) "finite latencies only" 2 s.Stats.count;
      List.iter
        (fun (label, v) ->
          Alcotest.(check bool) (label ^ " finite") true (Float.is_finite v))
        [ ("mean", s.Stats.mean); ("p50", s.Stats.p50); ("p95", s.Stats.p95);
          ("p99", s.Stats.p99); ("min", s.Stats.min); ("max", s.Stats.max) ]

(* [summarize] itself must shrug off poisoned samples wherever they
   come from. *)
let test_summarize_drops_non_finite () =
  Alcotest.(check bool) "all-NaN input" true (Stats.summarize [ nan; nan ] = None);
  match Stats.summarize [ 3.0; nan; 1.0; infinity; 2.0; neg_infinity ] with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
      Alcotest.(check int) "count" 3 s.Stats.count;
      Alcotest.(check (float 1e-9)) "mean" 2.0 s.Stats.mean;
      Alcotest.(check (float 0.0)) "min" 1.0 s.Stats.min;
      Alcotest.(check (float 0.0)) "max" 3.0 s.Stats.max;
      Alcotest.(check (float 0.0)) "p50" 2.0 s.Stats.p50

(* Nearest-rank percentile against the definition, written naively. *)
let percentile_oracle =
  QCheck.Test.make ~name:"percentile matches nearest-rank oracle" ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0))
        (float_bound_inclusive 100.0))
    (fun (values, p) ->
      QCheck.assume (values <> []);
      let p = Float.max 0.1 p in
      let sorted = Array.of_list values in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      let naive =
        (* smallest element with at least p% of the sample at or below
           it: rank ceil(p/100 * n), 1-based, clamped into range *)
        let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
        let rank = max 1 (min n rank) in
        sorted.(rank - 1)
      in
      Stats.percentile sorted p = naive)

(* The serve daemon's stats op sorts its latency window once for p50,
   p99 and p999. It must read the same three values, and tally the same
   non-finite samples, as three separate calls that each partition,
   sort and take the nearest rank. *)
let percentiles_match_separate_calls =
  let module Obs = Ftr_obs.Obs in
  let dropped = Obs.counter "stats.non_finite_dropped" in
  let separate values ~p =
    let finite, rest = List.partition Float.is_finite values in
    let sorted = Array.of_list finite in
    Array.sort Float.compare sorted;
    (List.length rest, if finite = [] then None else Some (Stats.percentile sorted p))
  in
  let sample =
    QCheck.Gen.(
      frequency
        [
          (12, float_bound_exclusive 1000.0);
          (2, map (fun ns -> Float.of_int ns /. 1e6) (int_bound 1_000_000));
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0 ]);
        ])
  in
  QCheck.Test.make ~name:"percentiles_of equals three separate sorts" ~count:300
    QCheck.(make ~print:Print.(list float) Gen.(list_size (0 -- 300) sample))
    (fun values ->
      let ps = [ 50.0; 99.0; 99.9 ] in
      let was = Obs.enabled () in
      Obs.set_enabled true;
      let before = Obs.value dropped in
      let got = Stats.percentiles_of (Array.of_list values) ~ps in
      let tallied = Obs.value dropped - before in
      Obs.set_enabled was;
      let want = List.map (fun p -> separate values ~p) ps in
      got = List.map snd want && tallied = List.fold_left (fun a (d, _) -> a + d) 0 want)

(* The daemon's full latency window: 65,536 samples, shaped to stress
   the selection (random, sorted, reversed, constant, a few distinct
   values), with some non-finite samples mixed in. Every percentile
   must equal the nearest rank of a sorted copy, also when read in
   place from a prefix of a longer array. *)
let test_full_window_matches_sort () =
  let window = 65_536 in
  let rng = Random.State.make [| 65_536 |] in
  let shapes =
    [
      ("random", fun _ -> Random.State.float rng 50.0);
      ("sorted", fun i -> float_of_int i /. 1e3);
      ("reversed", fun i -> float_of_int (window - i));
      ("constant", fun _ -> 0.25);
      ("few distinct", fun _ -> float_of_int (Random.State.int rng 4));
    ]
  in
  let ps = [ 50.0; 99.0; 99.9; 0.0; 100.0 ] in
  List.iter
    (fun (shape, f) ->
      let values =
        Array.init (window + 7) (fun i ->
            if i mod 997 = 13 then Float.nan
            else if i mod 4099 = 5 then Float.infinity
            else f i)
      in
      let sorted =
        Array.of_list (List.filter Float.is_finite (Array.to_list (Array.sub values 0 window)))
      in
      Array.sort Float.compare sorted;
      let want = List.map (fun p -> Some (Stats.percentile sorted p)) ps in
      let copy = Array.copy values in
      Alcotest.(check (list (option (float 0.0))))
        shape want
        (Stats.percentiles_of ~len:window values ~ps);
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      Alcotest.(check bool) (shape ^ ": input untouched") true (Array.for_all2 same values copy);
      Alcotest.(check (list (option (float 0.0))))
        (shape ^ " (own array)") want
        (Stats.percentiles_of (Array.sub values 0 window) ~ps))
    shapes

let test_delivery_report () =
  let msg id status ~sent ~at ~retries =
    let m = Message.make ~id ~src:0 ~dst:1 ~sent_at:sent in
    m.Message.status <- status;
    m.Message.delivered_at <- at;
    m.Message.retries <- retries;
    m
  in
  let batch =
    [
      msg 0 Message.Delivered ~sent:0.0 ~at:10.0 ~retries:0;
      msg 1 Message.Delivered ~sent:0.0 ~at:30.0 ~retries:2;
      msg 2 Message.Undeliverable ~sent:0.0 ~at:0.0 ~retries:1;
      msg 3 Message.DeadLetter ~sent:0.0 ~at:0.0 ~retries:8;
      msg 4 Message.Pending ~sent:0.0 ~at:0.0 ~retries:0;
    ]
  in
  let d = Stats.delivery_report batch in
  Alcotest.(check int) "sent" 5 d.Stats.sent;
  Alcotest.(check int) "delivered" 2 d.Stats.delivered;
  Alcotest.(check int) "undeliverable" 1 d.Stats.undeliverable;
  Alcotest.(check int) "dead letters" 1 d.Stats.dead_letters;
  Alcotest.(check int) "pending" 1 d.Stats.pending;
  Alcotest.(check int) "replans" 11 d.Stats.replans;
  Alcotest.(check (float 1e-9)) "rate" 0.4 (Stats.delivery_rate d);
  (match d.Stats.latency with
  | None -> Alcotest.fail "expected latency summary"
  | Some s ->
      Alcotest.(check int) "latency over delivered only" 2 s.Stats.count;
      Alcotest.(check (float 1e-9)) "mean latency" 20.0 s.Stats.mean);
  let empty = Stats.delivery_report [] in
  Alcotest.(check (float 0.0)) "empty batch rate" 1.0 (Stats.delivery_rate empty)

let () =
  Alcotest.run "stats"
    [
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single" `Quick test_single;
          Alcotest.test_case "known values" `Quick test_known_values;
          Alcotest.test_case "unsorted" `Quick test_unsorted_input;
          Alcotest.test_case "of_ints" `Quick test_of_ints;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram degenerate" `Quick test_histogram_degenerate;
          Alcotest.test_case "delivery report" `Quick test_delivery_report;
          Alcotest.test_case "nan latency dropped" `Quick test_nan_latency_dropped;
          Alcotest.test_case "summarize drops non-finite" `Quick
            test_summarize_drops_non_finite;
          QCheck_alcotest.to_alcotest percentile_oracle;
          QCheck_alcotest.to_alcotest percentiles_match_separate_calls;
          Alcotest.test_case "full window equals a sort" `Quick test_full_window_matches_sort;
        ] );
    ]
