open Ftr_graph
open Ftr_core

let distance = Alcotest.testable Metrics.pp_distance ( = )

let test_subsets_up_to () =
  let sets = List.of_seq (Tolerance.subsets_up_to [ 1; 2; 3 ] 2) in
  Alcotest.(check int) "1 + 3 + 3" 7 (List.length sets);
  Alcotest.(check bool) "has empty" true (List.mem [] sets);
  Alcotest.(check bool) "has {1,2}" true (List.mem [ 1; 2 ] sets);
  Alcotest.(check bool) "no triples" false (List.mem [ 1; 2; 3 ] sets);
  (* all distinct *)
  Alcotest.(check int) "distinct" 7 (List.length (List.sort_uniq compare sets))

let test_subsets_zero () =
  let sets = List.of_seq (Tolerance.subsets_up_to [ 1; 2 ] 0) in
  Alcotest.(check (list (list int))) "only empty" [ [] ] sets

let test_count_subsets () =
  Alcotest.(check int) "C(5,<=2) = 16" 16 (Tolerance.count_subsets_up_to ~n:5 ~k:2);
  Alcotest.(check int) "C(3,<=3) = 8" 8 (Tolerance.count_subsets_up_to ~n:3 ~k:3);
  Alcotest.(check int) "k=0" 1 (Tolerance.count_subsets_up_to ~n:100 ~k:0);
  Alcotest.(check bool) "saturates" true
    (Tolerance.count_subsets_up_to ~n:500 ~k:250 > 1_000_000_000)

let edge_routing g =
  let r = Routing.create g Routing.Bidirectional in
  Routing.add_edge_routes r;
  r

let test_exhaustive_cycle () =
  let r = edge_routing (Families.cycle 6) in
  let v = Tolerance.exhaustive r ~f:1 in
  Alcotest.(check bool) "definitive" true v.Tolerance.definitive;
  Alcotest.(check int) "7 sets" 7 v.Tolerance.sets_checked;
  (* one fault on a 6-cycle: worst diameter 4 *)
  Alcotest.(check distance) "worst 4" (Metrics.Finite 4) v.Tolerance.worst;
  Alcotest.(check int) "witness size" 1 (List.length v.Tolerance.witness.nodes)

let test_exhaustive_finds_disconnection () =
  let r = edge_routing (Families.cycle 6) in
  let v = Tolerance.exhaustive r ~f:2 in
  Alcotest.(check distance) "two faults disconnect a cycle" Metrics.Infinite
    v.Tolerance.worst

let test_random_reproducible () =
  let r = edge_routing (Families.cycle 8) in
  let run () =
    Tolerance.random r ~f:2 ~rng:(Random.State.make [| 5 |]) ~samples:50
  in
  let a = run () and b = run () in
  Alcotest.(check distance) "same worst" a.Tolerance.worst b.Tolerance.worst;
  Alcotest.(check int) "samples + empty" 51 a.Tolerance.sets_checked

let test_adversarial_pools () =
  let r = edge_routing (Families.cycle 8) in
  (* pool {0,4} disconnects the cycle when both die *)
  let v = Tolerance.adversarial r ~f:2 ~pools:[ [ 0; 4 ] ] in
  Alcotest.(check distance) "finds the cut" Metrics.Infinite v.Tolerance.worst;
  Alcotest.(check (list int)) "witness" [ 0; 4 ] (List.sort compare v.Tolerance.witness.nodes)

let test_adversarial_cap () =
  let r = edge_routing (Families.cycle 8) in
  let v = Tolerance.adversarial ~per_pool_cap:3 r ~f:2 ~pools:[ [ 0; 1; 2; 3 ] ] in
  Alcotest.(check int) "capped" 3 v.Tolerance.sets_checked

let test_adversarial_dedupes_across_pools () =
  let r = edge_routing (Families.cycle 8) in
  let one = Tolerance.adversarial r ~f:2 ~pools:[ [ 0; 1; 2 ] ] in
  let dup = Tolerance.adversarial r ~f:2 ~pools:[ [ 0; 1; 2 ]; [ 2; 1; 0 ] ] in
  Alcotest.(check int) "identical pool adds nothing" one.Tolerance.sets_checked
    dup.Tolerance.sets_checked;
  (* Overlapping pools only pay for the subsets the first one missed:
     {0,1,2} and {1,2,3} share the empty set, {1}, {2} and {1,2}. *)
  let overlap = Tolerance.adversarial r ~f:2 ~pools:[ [ 0; 1; 2 ]; [ 1; 2; 3 ] ] in
  Alcotest.(check int) "overlap counted once" (7 + 3) overlap.Tolerance.sets_checked

let test_evaluate_switches_modes () =
  let g = Families.cycle 6 in
  let c = Kernel.make g ~t:1 in
  let rng = Random.State.make [| 1 |] in
  let small = Tolerance.evaluate ~rng ~exhaustive_budget:100 c ~f:1 in
  Alcotest.(check bool) "exhaustive for small" true small.Tolerance.definitive;
  let forced = Tolerance.evaluate ~rng ~exhaustive_budget:2 ~samples:10 c ~f:1 in
  Alcotest.(check bool) "sampled when over budget" false forced.Tolerance.definitive

let test_respects () =
  let v =
    {
      Tolerance.worst = Metrics.Finite 4;
      witness = Surviving.no_faults;
      sets_checked = 1;
      definitive = true;
    }
  in
  Alcotest.(check bool) "within" true (Tolerance.respects v ~bound:4);
  Alcotest.(check bool) "beyond" false (Tolerance.respects v ~bound:3);
  let inf = { v with Tolerance.worst = Metrics.Infinite } in
  Alcotest.(check bool) "infinite fails" false (Tolerance.respects inf ~bound:1000)

(* ---------------- sampled probing at scale ---------------- *)

(* probe_distance answers off Routing.find with O(1) state; at
   bound <= 2 with the full budget it must agree exactly with the
   compiled engine's route-graph distance, truncated at the bound. *)
let test_probe_agrees_with_compiled () =
  let c = Kernel.make (Families.torus 4 4) ~t:3 in
  let r = c.Construction.routing in
  let n = Graph.n (Routing.graph r) in
  let budget = (2 * n) + 1 in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    let faults = Bitset.create n in
    for _ = 1 to 2 do
      Bitset.add faults (Random.State.int rng n)
    done;
    let src = Random.State.int rng n and dst = Random.State.int rng n in
    if src <> dst && (not (Bitset.mem faults src)) && not (Bitset.mem faults dst)
    then
      List.iter
        (fun bound ->
          let probed =
            Surviving.probe_distance r ~faults ~src ~dst ~bound ~budget
          in
          let exact = Surviving.distance r ~faults src dst in
          let expected =
            match exact with
            | Metrics.Finite k when k <= bound -> Metrics.Finite k
            | _ -> Metrics.Infinite
          in
          Alcotest.check distance
            (Printf.sprintf "pair (%d,%d) bound %d" src dst bound)
            expected probed)
        [ 1; 2 ]
  done

(* A star's only routes run through the hub: one hub fault breaks
   every leaf pair, and the endpoint-neighborhood adversarial sets
   (every leaf's neighborhood is exactly {hub}) must find it. *)
let star_routing () =
  let n = 8 in
  let g = Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1))) in
  Routing.of_compact g Routing.Bidirectional (Compact.bfs_tree g ~root:0)

let test_sampled_flags_star_hub () =
  let r = star_routing () in
  let v =
    Tolerance.sampled r ~f:1 ~bound:5
      ~rng:(Random.State.make [| 7 |])
      ~sets:4 ~pairs:16
  in
  Alcotest.(check bool) "violation found" false v.Tolerance.sv_holds;
  Alcotest.(check (list int)) "hub is the witness" [ 0 ]
    v.Tolerance.sv_witness_faults;
  Alcotest.check distance "worst is infinite" Metrics.Infinite
    v.Tolerance.sv_worst

(* A fault-tolerant table passes: kernel torus at its claimed (6, 3)
   budget (Theorem 3). The default probe budget of 2n + 1 is sized for
   bound <= 2; deep bounds on tiny graphs need more probes or the
   checker conservatively flags on exhaustion, so spend them here. *)
let test_sampled_accepts_strong_routing () =
  let c = Kernel.make (Families.torus 5 5) ~t:3 in
  let v =
    Tolerance.sampled ~probe_budget:10_000 c.Construction.routing ~f:3 ~bound:6
      ~rng:(Random.State.make [| 11 |])
      ~sets:32 ~pairs:40
  in
  Alcotest.(check bool) "holds" true v.Tolerance.sv_holds;
  Alcotest.(check bool) "work accounted" true
    (v.Tolerance.sv_sets_checked > 0 && v.Tolerance.sv_pairs_checked > 0)

(* Verdicts are a function of the rng, never of the schedule. *)
let test_sampled_jobs_independent () =
  let run routing jobs =
    Tolerance.sampled ~jobs routing ~f:2 ~bound:2
      ~rng:(Random.State.make [| 23 |])
      ~sets:16 ~pairs:24
  in
  List.iter
    (fun routing ->
      let a = run routing 1 and b = run routing 4 in
      Alcotest.(check bool) "same holds" a.Tolerance.sv_holds b.Tolerance.sv_holds;
      Alcotest.check distance "same worst" a.Tolerance.sv_worst
        b.Tolerance.sv_worst;
      Alcotest.(check (list int)) "same witness" a.Tolerance.sv_witness_faults
        b.Tolerance.sv_witness_faults;
      Alcotest.(check (option (pair int int))) "same pair"
        a.Tolerance.sv_witness_pair b.Tolerance.sv_witness_pair)
    [ (Kernel.make (Families.torus 4 4) ~t:3).Construction.routing; star_routing () ]

(* Reference model of [sampled]: the same draws from the same rng in
   the same canonical candidate order (fault-free set, endpoint
   neighborhoods, Floyd-drawn random sets, duplicates dropped), then
   every (set, pair) probed in order with a fresh fault bitset, first
   strictly worse probe wins. Returns (worst, witness faults, pairs
   probed). *)
let sampled_oracle routing ~f ~bound ~budget ~seed ~sets ~pairs =
  let g = Routing.graph routing in
  let n = Graph.n g in
  let f = min f (n - 2) in
  let rng = Random.State.make [| seed |] in
  let pair_arr =
    Array.init pairs (fun _ ->
        let src = Random.State.int rng n in
        let d = Random.State.int rng (n - 1) in
        (src, if d >= src then d + 1 else d))
  in
  let prefix l = List.filteri (fun i _ -> i < f) l in
  let endpoint_sets =
    Array.to_list pair_arr
    |> List.concat_map (fun (s, d) -> [ s; d ])
    |> List.sort_uniq compare
    |> List.map (fun v -> prefix (Array.to_list (Graph.neighbors g v)))
  in
  let floyd () =
    let chosen = Hashtbl.create (2 * f) in
    for j = n - f to n - 1 do
      let r = Random.State.int rng (j + 1) in
      Hashtbl.replace chosen (if Hashtbl.mem chosen r then j else r) ()
    done;
    List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) chosen [])
  in
  let random_sets = Array.to_list (Array.init sets (fun _ -> floyd ())) in
  let seen = Hashtbl.create 64 in
  let candidates =
    ([] :: endpoint_sets) @ random_sets
    |> List.map (List.sort_uniq compare)
    |> List.filter (fun s ->
           if Hashtbl.mem seen s then false
           else begin
             Hashtbl.add seen s ();
             true
           end)
  in
  let worst = ref (Metrics.Finite (-1)) and witness = ref [] and probed = ref 0 in
  List.iter
    (fun set ->
      Array.iter
        (fun (src, dst) ->
          let faults = Bitset.of_list n set in
          if not (Bitset.mem faults src || Bitset.mem faults dst) then begin
            incr probed;
            let d = Surviving.probe_distance routing ~faults ~src ~dst ~bound ~budget in
            if not (Metrics.distance_le d !worst) then begin
              worst := d;
              witness := set
            end
          end)
        pair_arr)
    candidates;
  let worst = if !worst = Metrics.Finite (-1) then Metrics.Finite 0 else !worst in
  (worst, !witness, !probed)

(* Regression: each domain reuses one fault bitset for every chunk it
   pulls, so a chunk that did not clear it probed under the previous
   chunk's leftover faults — a schedule-dependent, wrong verdict (on
   this Theorem 3 routing it once flagged a set at distance
   infinity). With one pair per set every chunk boundary is a set
   boundary, so the leak shows even at jobs=1. *)
let test_sampled_matches_fresh_bitset_oracle () =
  let c = Kernel.make (Families.torus 5 5) ~t:3 in
  let routing = c.Construction.routing in
  let budget = 10_000 and bound = 6 and f = 3 in
  List.iter
    (fun (seed, sets, pairs) ->
      let run jobs =
        Tolerance.sampled ~jobs ~probe_budget:budget routing ~f ~bound
          ~rng:(Random.State.make [| seed |])
          ~sets ~pairs
      in
      let label what = Printf.sprintf "seed %d sets %d pairs %d: %s" seed sets pairs what in
      let worst, witness, probed =
        sampled_oracle routing ~f ~bound ~budget ~seed ~sets ~pairs
      in
      let base = run 1 in
      Alcotest.check distance (label "worst") worst base.Tolerance.sv_worst;
      Alcotest.(check (list int)) (label "witness") witness
        base.Tolerance.sv_witness_faults;
      Alcotest.(check int) (label "pairs probed") probed base.Tolerance.sv_pairs_checked;
      Alcotest.(check bool) (label "holds") true base.Tolerance.sv_holds;
      for _ = 1 to 3 do
        Alcotest.(check bool) (label "jobs=2 = jobs=1") true (run 2 = base)
      done)
    [ (3, 32, 40); (11, 32, 40); (5, 40, 1) ]

let () =
  Alcotest.run "tolerance"
    [
      ( "tolerance",
        [
          Alcotest.test_case "subsets_up_to" `Quick test_subsets_up_to;
          Alcotest.test_case "subsets k=0" `Quick test_subsets_zero;
          Alcotest.test_case "count_subsets" `Quick test_count_subsets;
          Alcotest.test_case "exhaustive cycle" `Quick test_exhaustive_cycle;
          Alcotest.test_case "exhaustive disconnection" `Quick test_exhaustive_finds_disconnection;
          Alcotest.test_case "random reproducible" `Quick test_random_reproducible;
          Alcotest.test_case "adversarial pools" `Quick test_adversarial_pools;
          Alcotest.test_case "adversarial cap" `Quick test_adversarial_cap;
          Alcotest.test_case "adversarial dedupe" `Quick
            test_adversarial_dedupes_across_pools;
          Alcotest.test_case "evaluate mode switch" `Quick test_evaluate_switches_modes;
          Alcotest.test_case "respects" `Quick test_respects;
        ] );
      ( "sampled",
        [
          Alcotest.test_case "probe agrees with compiled" `Quick
            test_probe_agrees_with_compiled;
          Alcotest.test_case "flags a star hub" `Quick test_sampled_flags_star_hub;
          Alcotest.test_case "accepts a strong routing" `Quick
            test_sampled_accepts_strong_routing;
          Alcotest.test_case "jobs-independent" `Quick
            test_sampled_jobs_independent;
          Alcotest.test_case "matches a fresh-bitset oracle" `Quick
            test_sampled_matches_fresh_bitset_oracle;
        ] );
    ]
