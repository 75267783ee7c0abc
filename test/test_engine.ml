(* The incremental evaluation engine: revolving-door enumeration,
   equivalence of the naive / compiled / incremental diameter paths,
   bounded early exit, certificates, and jobs-independence of every
   verdict. *)

open Ftr_graph
open Ftr_core

let graph_print g =
  Format.asprintf "n=%d edges=%a" (Graph.n g)
    Fmt.(list ~sep:sp (pair ~sep:(any "-") int int))
    (Graph.edges g)

let chorded_cycle_gen ~nmin ~nmax =
  QCheck.Gen.(
    let* n = int_range nmin nmax in
    let* extra = int_range 0 n in
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    let chords =
      List.init extra (fun _ -> (Random.State.int rng n, Random.State.int rng n))
    in
    let cycle = List.init n (fun i -> (i, (i + 1) mod n)) in
    return (Graph.of_edges ~n (cycle @ chords)))

let routing_of g =
  let t = max 1 (Connectivity.vertex_connectivity g - 1) in
  (Kernel.make g ~t).Construction.routing

let fault_set = Alcotest.testable (Fmt.of_to_string Surviving.fault_set_to_string) ( = )

let node_set nodes = { Surviving.nodes; links = [] }

(* Kernel.make rejects complete graphs (no separating set exists). *)
let assume_not_complete g =
  let n = Graph.n g in
  QCheck.assume (List.length (Graph.edges g) < n * (n - 1) / 2)

(* ---------------- revolving-door enumeration ---------------- *)

let binom n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

let test_gray_enumerates_all_subsets () =
  for n = 0 to 8 do
    for k = 0 to n do
      let seen = Hashtbl.create 64 in
      let current = Hashtbl.create 8 in
      let record () =
        let subset = List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) current []) in
        Alcotest.(check int)
          (Printf.sprintf "n=%d k=%d subset size" n k)
          k (List.length subset);
        Alcotest.(check bool)
          (Printf.sprintf "n=%d k=%d distinct" n k)
          false (Hashtbl.mem seen subset);
        Hashtbl.add seen subset ()
      in
      Tolerance.iter_combinations_gray ~n ~k
        ~first:(fun c ->
          Array.iter
            (fun v ->
              Alcotest.(check bool) "element in range" true (v >= 0 && v < n);
              Hashtbl.add current v ())
            c;
          record ())
        ~swap:(fun ~removed ~added ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d k=%d removes a member" n k)
            true (Hashtbl.mem current removed);
          Alcotest.(check bool)
            (Printf.sprintf "n=%d k=%d adds a non-member" n k)
            false (Hashtbl.mem current added);
          Hashtbl.remove current removed;
          Hashtbl.add current added ();
          record ());
      Alcotest.(check int)
        (Printf.sprintf "n=%d k=%d counts C(n,k)" n k)
        (binom n k) (Hashtbl.length seen)
    done
  done

(* ---------------- equivalence of the three diameter paths -------- *)

let arb_routing_with_faults =
  QCheck.make
    ~print:(fun (g, faults) ->
      Printf.sprintf "%s F={%s}" (graph_print g)
        (String.concat "," (List.map string_of_int faults)))
    QCheck.Gen.(
      let* g = chorded_cycle_gen ~nmin:4 ~nmax:12 in
      let n = Graph.n g in
      let* fault_seed = int_range 0 1_000_000 in
      let rng = Random.State.make [| fault_seed |] in
      let f = Random.State.int rng (min 5 n) in
      let faults =
        List.sort_uniq compare (List.init f (fun _ -> Random.State.int rng n))
      in
      return (g, faults))

let prop_three_paths_agree =
  QCheck.Test.make ~name:"naive = compiled = incremental surviving diameter"
    ~count:60 arb_routing_with_faults
    (fun (g, faults) ->
      assume_not_complete g;
      let routing = routing_of g in
      let n = Graph.n g in
      let naive = Surviving.diameter routing ~faults:(Bitset.of_list n faults) in
      let compiled = Surviving.compile routing in
      let sl = Surviving.sliced compiled in
      ignore (Surviving.slice_add sl ~nodes:faults ~edges:[]);
      let batch = (Surviving.slice_diameters sl).(0) in
      let ev = Surviving.evaluator compiled in
      Surviving.set_faults ev faults;
      let incremental = Surviving.evaluator_diameter ev in
      naive = batch && naive = incremental)

let prop_incremental_survives_churn =
  QCheck.Test.make
    ~name:"evaluator agrees with naive after apply/revert churn" ~count:40
    arb_routing_with_faults
    (fun (g, faults) ->
      assume_not_complete g;
      let routing = routing_of g in
      let n = Graph.n g in
      let ev = Surviving.evaluator (Surviving.compile routing) in
      (* Apply one at a time, checking after each step; then revert in
         reverse order, checking again: hit counters must round-trip. *)
      let ok = ref true in
      let check applied =
        let naive =
          Surviving.diameter routing ~faults:(Bitset.of_list n applied)
        in
        if Surviving.evaluator_diameter ev <> naive then ok := false;
        if Surviving.faults ev <> List.sort compare applied then ok := false
      in
      let rec forward applied = function
        | [] -> ()
        | v :: rest ->
            Surviving.apply_fault ev v;
            let applied = v :: applied in
            check applied;
            forward applied rest
      in
      forward [] faults;
      let rec backward = function
        | [] -> ()
        | v :: rest ->
            Surviving.revert_fault ev v;
            check rest;
            backward rest
      in
      backward (List.rev faults);
      !ok && Surviving.fault_count ev = 0)

let prop_diameter_exceeds_consistent =
  QCheck.Test.make ~name:"diameter_exceeds = (diameter > bound)" ~count:40
    arb_routing_with_faults
    (fun (g, faults) ->
      assume_not_complete g;
      let routing = routing_of g in
      let n = Graph.n g in
      let ev = Surviving.evaluator (Surviving.compile routing) in
      Surviving.set_faults ev faults;
      let d = Surviving.evaluator_diameter ev in
      List.for_all
        (fun bound ->
          Surviving.diameter_exceeds ev ~bound
          = not (Metrics.distance_le d (Metrics.Finite bound)))
        (List.init (n + 2) (fun b -> b - 1)))

let test_apply_fault_guards () =
  let g = Families.cycle 6 in
  let ev = Surviving.evaluator (Surviving.compile (routing_of g)) in
  Surviving.apply_fault ev 2;
  Alcotest.check_raises "double apply"
    (Invalid_argument "Surviving.apply_fault: vertex already faulty") (fun () ->
      Surviving.apply_fault ev 2);
  Alcotest.check_raises "revert non-fault"
    (Invalid_argument "Surviving.revert_fault: vertex not faulty") (fun () ->
      Surviving.revert_fault ev 3);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Surviving.apply_fault: vertex out of range") (fun () ->
      Surviving.apply_fault ev 6)

(* ---------------- the push/pull APSP kernel ---------------- *)

(* The oracle: the surviving digraph built straight from the route
   table (a route is live iff none of its vertices is faulty and none
   of its steps crosses a downed link), then one Digraph.bfs per
   target with every alive vertex free to relay. *)
let naive_digraph routing { Surviving.nodes; links } =
  let n = Graph.n (Routing.graph routing) in
  let down = Bitset.of_list n nodes in
  let b = Digraph.Builder.create n in
  Routing.iter
    (fun src dst p ->
      let a = Path.to_array p in
      let crosses j = List.mem (min a.(j) a.(j + 1), max a.(j) a.(j + 1)) links in
      if
        (not (Path.hits p down))
        && not (List.exists crosses (List.init (Array.length a - 1) Fun.id))
      then Digraph.Builder.add_arc b src dst)
    routing;
  (Digraph.Builder.to_digraph b, fun v -> not (Bitset.mem down v))

let naive_diameter_over (dg, alive) targets =
  List.fold_left
    (fun worst x ->
      let dist = Digraph.bfs dg ~allowed:alive x in
      List.fold_left
        (fun worst y ->
          Metrics.max_distance worst
            (if dist.(y) < 0 then Metrics.Infinite else Metrics.Finite dist.(y)))
        worst targets)
    (Metrics.Finite 0) targets

let universe_name = function
  | Surviving.Nodes -> "nodes"
  | Surviving.Links -> "links"
  | Surviving.Mixed -> "mixed"

(* Graphs one, two and three adjacency words wide (n <= 63, <= 126,
   <= 189), a fault universe, and the seed of an apply/revert walk. *)
let arb_kernel_walk =
  QCheck.make
    ~print:(fun (g, u, seed) ->
      Printf.sprintf "%s universe=%s walk=%d" (graph_print g) (universe_name u) seed)
    QCheck.Gen.(
      let* g =
        oneof
          [
            chorded_cycle_gen ~nmin:5 ~nmax:60;
            chorded_cycle_gen ~nmin:64 ~nmax:126;
            chorded_cycle_gen ~nmin:127 ~nmax:189;
          ]
      in
      let* u = oneofl [ Surviving.Nodes; Surviving.Links; Surviving.Mixed ] in
      let* seed = int_range 0 1_000_000 in
      return (g, u, seed))

(* One evaluator walks a random apply/revert sequence; after every
   step the exact diameter, [diameter_exceeds] at bounds -1..6 and the
   diameter over a random alive target subset must match the oracle. *)
let prop_kernel_matches_oracle =
  QCheck.Test.make ~name:"push/pull kernel = naive BFS under apply/revert walks"
    ~count:40 arb_kernel_walk
    (fun (g, u, seed) ->
      assume_not_complete g;
      let routing = routing_of g in
      let n = Graph.n g in
      let compiled = Surviving.compile routing in
      let ev = Surviving.evaluator compiled in
      let size = Surviving.universe_size compiled u in
      let rng = Random.State.make [| seed |] in
      let step () =
        match Surviving.fault_ids ev u with
        | _ :: _ as ids when Random.State.int rng 3 = 0 ->
            Surviving.revert_id ev u (List.nth ids (Random.State.int rng (List.length ids)))
        | ids ->
            let id = Random.State.int rng size in
            if List.mem id ids then Surviving.revert_id ev u id
            else Surviving.apply_id ev u id
      in
      let check () =
        let fs = Surviving.fault_set_of_ids compiled u (Surviving.fault_ids ev u) in
        let ((_, alive) as naive) = naive_digraph routing fs in
        let live = List.filter alive (List.init n Fun.id) in
        let d = naive_diameter_over naive live in
        let keep = 1 + Random.State.int rng 9 in
        let targets = List.filter (fun _ -> Random.State.int rng 10 < keep) live in
        let tset = Bitset.of_list n targets in
        Surviving.evaluator_diameter ev = d
        && (fs.links <> [] || Surviving.diameter routing ~faults:(Bitset.of_list n fs.nodes) = d)
        && List.for_all
             (fun bound ->
               Surviving.diameter_exceeds ev ~bound
               = not (Metrics.distance_le d (Metrics.Finite bound)))
             (List.init 8 (fun b -> b - 1))
        && Surviving.evaluator_diameter_over ev ~targets:tset
           = naive_diameter_over naive targets
      in
      List.for_all
        (fun () ->
          step ();
          check ())
        (List.init 8 (fun _ -> ())))

(* ---------------- certificates ---------------- *)

let prop_certify_agrees_with_exhaustive =
  QCheck.Test.make ~name:"certify agrees with the exhaustive verdict" ~count:25
    (QCheck.make ~print:graph_print (chorded_cycle_gen ~nmin:4 ~nmax:9))
    (fun g ->
      assume_not_complete g;
      let routing = routing_of g in
      let n = Graph.n g in
      let f = min 2 n in
      let v = Tolerance.exhaustive routing ~f in
      List.for_all
        (fun bound ->
          let cert = Tolerance.certify routing ~f ~bound in
          let expected = Tolerance.respects v ~bound in
          cert.Tolerance.holds = expected
          && (cert.Tolerance.holds || cert.Tolerance.counterexample <> None))
        (List.init (n + 1) (fun b -> b)))

let test_certify_counterexample_violates () =
  let g = Families.cycle 6 in
  let routing = routing_of g in
  let cert = Tolerance.certify routing ~f:2 ~bound:4 in
  Alcotest.(check bool) "cycle6 f=2 disconnects" false cert.Tolerance.holds;
  match cert.Tolerance.counterexample with
  | None -> Alcotest.fail "expected a counterexample"
  | Some w ->
      let ev = Surviving.evaluator (Surviving.compile routing) in
      Surviving.set_faults ev w.Surviving.nodes;
      Alcotest.(check bool) "counterexample really violates" true
        (Surviving.diameter_exceeds ev ~bound:4)

(* The canonical order rebuilt from the public revolving door: the
   empty set, then blocks (size, top) with the size falling from [f]
   and [top] falling from [n - 1], each block {top} ∪ S walked over the
   (size-1)-subsets S of [0, top) in Gray order. *)
let canonical_sets ~n ~f =
  let out = ref [ [] ] in
  for size = min f n downto 1 do
    for top = n - 1 downto size - 1 do
      let k = size - 1 in
      let cur = Array.make k 0 in
      let emit () = out := List.sort compare (top :: Array.to_list cur) :: !out in
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
          emit ())
    done
  done;
  List.rev !out

(* Sliced certification against a per-set scan in canonical order:
   [holds] iff no set has [diameter_exceeds], and the counterexample
   is the scan's first violator. Up to 12 nodes at f=3, up to 24
   edges at f=2 and up to 36 mixed ids at f=2 give several slices, so
   several parallel blocks, each stopping early on its own. *)
let prop_sliced_certify_matches_oracle =
  QCheck.Test.make ~name:"sliced certify ≡ scalar oracle" ~count:20
    (QCheck.make ~print:graph_print (chorded_cycle_gen ~nmin:4 ~nmax:12))
    (fun g ->
      assume_not_complete g;
      let routing = routing_of g in
      let n = Graph.n g in
      let compiled = Surviving.compile routing in
      let ev = Surviving.evaluator compiled in
      let first_violator sets ~load ~bound =
        List.find_opt
          (fun s ->
            load s;
            Surviving.diameter_exceeds ev ~bound)
          sets
      in
      let m = Surviving.edge_count compiled in
      let node_sets = canonical_sets ~n ~f:3 in
      let edge_sets = canonical_sets ~n:m ~f:2 in
      let mixed_sets = canonical_sets ~n:(n + m) ~f:2 in
      let split ids =
        let nodes, eids = List.partition (fun id -> id < n) ids in
        (nodes, List.map (fun id -> id - n) eids)
      in
      let links = List.map (Surviving.edge_pair compiled) in
      List.for_all
        (fun bound ->
          let node_first =
            first_violator node_sets ~load:(Surviving.set_faults ev) ~bound
          in
          let edge_first =
            first_violator edge_sets
              ~load:(fun edges -> Surviving.set_mixed_faults ev ~nodes:[] ~edges)
              ~bound
          in
          let mixed_first =
            first_violator mixed_sets
              ~load:(fun ids ->
                let nodes, edges = split ids in
                Surviving.set_mixed_faults ev ~nodes ~edges)
              ~bound
          in
          let cert = Tolerance.certify ~jobs:2 routing ~f:3 ~bound in
          let ecert =
            Tolerance.certify ~universe:Surviving.Links ~jobs:2 routing ~f:2 ~bound
          in
          let mcert =
            Tolerance.certify ~universe:Surviving.Mixed ~jobs:2 routing ~f:2 ~bound
          in
          cert.Tolerance.holds = (node_first = None)
          && cert.Tolerance.counterexample = Option.map node_set node_first
          && ecert.Tolerance.holds = (edge_first = None)
          && ecert.Tolerance.counterexample
             = Option.map
                 (fun edges -> { Surviving.nodes = []; links = links edges })
                 edge_first
          && mcert.Tolerance.holds = (mixed_first = None)
          && mcert.Tolerance.counterexample
             = Option.map
                 (fun ids ->
                   let nodes, edges = split ids in
                   { Surviving.nodes; links = links edges })
                 mixed_first)
        (List.init (n + 1) Fun.id))

(* ---------------- jobs-independence ---------------- *)

let test_exhaustive_jobs_independent () =
  let g = Families.torus 4 4 in
  let routing = routing_of g in
  List.iter
    (fun f ->
      let base = Tolerance.exhaustive ~jobs:1 routing ~f in
      List.iter
        (fun jobs ->
          let v = Tolerance.exhaustive ~jobs routing ~f in
          Alcotest.(check bool)
            (Printf.sprintf "f=%d jobs=%d worst" f jobs)
            true
            (v.Tolerance.worst = base.Tolerance.worst);
          Alcotest.check fault_set
            (Printf.sprintf "f=%d jobs=%d witness" f jobs)
            base.Tolerance.witness v.Tolerance.witness;
          Alcotest.(check int)
            (Printf.sprintf "f=%d jobs=%d sets_checked" f jobs)
            base.Tolerance.sets_checked v.Tolerance.sets_checked;
          Alcotest.(check bool)
            (Printf.sprintf "f=%d jobs=%d definitive" f jobs)
            base.Tolerance.definitive v.Tolerance.definitive)
        [ 2; 3; 4; 7 ])
    [ 1; 2 ]

let test_evaluate_jobs_independent () =
  let g = Families.torus 4 4 in
  let c = Kernel.make g ~t:2 in
  let verdict jobs =
    let rng = Random.State.make [| 97; 3 |] in
    Tolerance.evaluate ~rng ~jobs ~exhaustive_budget:50 ~samples:40
      ~attack_budget:200 c ~f:3
  in
  let base = verdict 1 and par = verdict 4 in
  Alcotest.(check bool) "worst" true (base.Tolerance.worst = par.Tolerance.worst);
  Alcotest.check fault_set "witness" base.Tolerance.witness par.Tolerance.witness;
  Alcotest.(check int) "sets_checked" base.Tolerance.sets_checked
    par.Tolerance.sets_checked

let test_attack_jobs_independent () =
  let g = Families.torus 5 5 in
  let c = Kernel.make g ~t:3 in
  let outcome jobs =
    let rng = Random.State.make [| 31; 7 |] in
    Attack.search
      ~config:{ Attack.default_config with Attack.budget = 300; restarts = 4 }
      ~jobs ~rng ~pools:c.Construction.pools c.Construction.routing ~f:3
  in
  let base = outcome 1 in
  List.iter
    (fun jobs ->
      let o = outcome jobs in
      Alcotest.(check bool) (Printf.sprintf "jobs=%d worst" jobs) true
        (o.Attack.worst = base.Attack.worst);
      Alcotest.check fault_set
        (Printf.sprintf "jobs=%d witness" jobs)
        base.Attack.witness o.Attack.witness;
      Alcotest.check fault_set
        (Printf.sprintf "jobs=%d raw witness" jobs)
        base.Attack.raw_witness o.Attack.raw_witness;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d evals" jobs)
        base.Attack.evals o.Attack.evals;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d restarts" jobs)
        base.Attack.restarts_used o.Attack.restarts_used)
    [ 2; 4 ]

let test_certify_jobs_independent () =
  let g = Families.torus 4 4 in
  let routing = routing_of g in
  List.iter
    (fun bound ->
      let base = Tolerance.certify ~jobs:1 routing ~f:2 ~bound in
      List.iter
        (fun jobs ->
          let cert = Tolerance.certify ~jobs routing ~f:2 ~bound in
          Alcotest.(check bool)
            (Printf.sprintf "bound=%d jobs=%d holds" bound jobs)
            base.Tolerance.holds cert.Tolerance.holds;
          Alcotest.(check bool)
            (Printf.sprintf "bound=%d jobs=%d counterexample" bound jobs)
            true
            (cert.Tolerance.counterexample = base.Tolerance.counterexample);
          Alcotest.(check int)
            (Printf.sprintf "bound=%d jobs=%d sets" bound jobs)
            base.Tolerance.cert_sets_checked cert.Tolerance.cert_sets_checked)
        [ 3; 4 ])
    [ 1; 6 ]

(* ---------------- the edge-fault universe ---------------- *)

let arb_routing_with_edge_faults =
  QCheck.make
    ~print:(fun (g, nodes, edges) ->
      Printf.sprintf "%s F={%s} E={%s}" (graph_print g)
        (String.concat "," (List.map string_of_int nodes))
        (String.concat ","
           (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges)))
    QCheck.Gen.(
      let* g = chorded_cycle_gen ~nmin:4 ~nmax:12 in
      let n = Graph.n g in
      let all_edges = Graph.edges g in
      let m = List.length all_edges in
      let* fault_seed = int_range 0 1_000_000 in
      let rng = Random.State.make [| fault_seed |] in
      let k = Random.State.int rng (min 4 m) in
      let edges =
        List.sort_uniq compare
          (List.init k (fun _ -> List.nth all_edges (Random.State.int rng m)))
      in
      let nf = Random.State.int rng (min 3 n) in
      let nodes =
        List.sort_uniq compare (List.init nf (fun _ -> Random.State.int rng n))
      in
      return (g, nodes, edges))

(* The incremental edge-fault path must agree with the reference table
   walk: a link fault kills exactly the routes traversing it, endpoints
   stay alive. *)
let prop_edge_evaluator_agrees_with_reference =
  QCheck.Test.make ~name:"evaluator edge faults = reference diameter"
    ~count:60 arb_routing_with_edge_faults
    (fun (g, nodes, edges) ->
      assume_not_complete g;
      let routing = routing_of g in
      let naive =
        Surviving.diameter ~links:edges routing ~faults:(Bitset.of_list (Graph.n g) nodes)
      in
      let compiled = Surviving.compile routing in
      let ev = Surviving.evaluator compiled in
      let ids =
        List.map
          (fun (u, v) ->
            match Surviving.edge_id compiled u v with
            | Some id -> id
            | None -> QCheck.Test.fail_reportf "edge %d-%d has no id" u v)
          edges
      in
      Surviving.set_mixed_faults ev ~nodes ~edges:ids;
      Surviving.evaluator_diameter ev = naive)

(* Applying and reverting an edge fault is an exact round trip, and
   the guards reject double application. *)
let test_edge_apply_revert_guards () =
  let g = Families.cycle 8 in
  let routing = routing_of g in
  let compiled = Surviving.compile routing in
  let ev = Surviving.evaluator compiled in
  let before = Surviving.evaluator_diameter ev in
  Surviving.apply_edge_fault ev 0;
  Alcotest.(check bool) "edge 0 faulty" true (Surviving.is_edge_faulty ev 0);
  Alcotest.check_raises "double apply rejected"
    (Invalid_argument "Surviving.apply_edge_fault: edge already faulty")
    (fun () -> Surviving.apply_edge_fault ev 0);
  Surviving.revert_edge_fault ev 0;
  Alcotest.check_raises "double revert rejected"
    (Invalid_argument "Surviving.revert_edge_fault: edge not faulty")
    (fun () -> Surviving.revert_edge_fault ev 0);
  Alcotest.(check bool) "round trip restores diameter" true
    (Surviving.evaluator_diameter ev = before);
  Alcotest.(check int) "no edge faults left" 0 (Surviving.edge_fault_count ev)

(* The exhaustive link sweep must agree with a brute-force sweep
   through the reference table walk. *)
let test_exhaustive_links_agrees_with_naive () =
  let g = Graph.of_edges ~n:7 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 0); (0, 3) ] in
  let routing = routing_of g in
  let all_edges = Graph.edges g in
  let f = 2 in
  let rec subsets k = function
    | [] -> if k = 0 then [ [] ] else []
    | e :: rest ->
        if k = 0 then [ [] ]
        else
          subsets k rest
          @ List.map (fun s -> e :: s) (subsets (k - 1) rest)
  in
  let sets =
    List.concat_map (fun k -> subsets k all_edges) [ 0; 1; 2 ]
    |> List.sort_uniq compare
  in
  let no_nodes = Bitset.create (Graph.n g) in
  let naive_worst =
    List.fold_left
      (fun acc set ->
        Metrics.max_distance acc (Surviving.diameter ~links:set routing ~faults:no_nodes))
      (Metrics.Finite 0) sets
  in
  let v = Tolerance.exhaustive ~universe:Surviving.Links routing ~f in
  Alcotest.(check bool) "worst matches brute force" true
    (v.Tolerance.worst = naive_worst);
  Alcotest.(check bool) "definitive" true v.Tolerance.definitive;
  Alcotest.(check int) "sets checked" (List.length sets) v.Tolerance.sets_checked;
  (* the witness replays to the reported worst *)
  Alcotest.(check bool) "witness replays" true
    (Surviving.diameter ~links:v.Tolerance.witness.links routing ~faults:no_nodes
    = v.Tolerance.worst)

(* evaluator_diameter_over: the full target set reproduces the plain
   diameter; restricting targets can only shrink it; faulty targets
   are rejected. *)
let test_evaluator_diameter_over () =
  let g = Families.torus 4 4 in
  let routing = routing_of g in
  let compiled = Surviving.compile routing in
  let n = Surviving.compiled_n compiled in
  let ev = Surviving.evaluator compiled in
  Surviving.apply_edge_fault ev 0;
  let all = Bitset.create n in
  for v = 0 to n - 1 do
    Bitset.add all v
  done;
  let full = Surviving.evaluator_diameter ev in
  Alcotest.(check bool) "all targets = plain diameter" true
    (Surviving.evaluator_diameter_over ev ~targets:all = full);
  let u, v = Surviving.edge_pair compiled 0 in
  let restricted = Bitset.create n in
  for x = 0 to n - 1 do
    if x <> u && x <> v then Bitset.add restricted x
  done;
  Alcotest.(check bool) "restricting targets never grows the diameter" true
    (Metrics.distance_le
       (Surviving.evaluator_diameter_over ev ~targets:restricted)
       full);
  Surviving.revert_edge_fault ev 0;
  Surviving.apply_fault ev u;
  Alcotest.check_raises "faulty target rejected"
    (Invalid_argument "Surviving.evaluator_diameter_over: target vertex is faulty")
    (fun () -> ignore (Surviving.evaluator_diameter_over ev ~targets:all))

(* ---------------- edge-universe jobs-independence ---------------- *)

let test_exhaustive_links_jobs_independent () =
  let g = Families.torus 4 4 in
  let routing = routing_of g in
  let universe = Surviving.Links in
  List.iter
    (fun f ->
      let base = Tolerance.exhaustive ~universe ~jobs:1 routing ~f in
      List.iter
        (fun jobs ->
          let v = Tolerance.exhaustive ~universe ~jobs routing ~f in
          Alcotest.(check bool)
            (Printf.sprintf "f=%d jobs=%d worst" f jobs)
            true
            (v.Tolerance.worst = base.Tolerance.worst);
          Alcotest.check fault_set
            (Printf.sprintf "f=%d jobs=%d witness" f jobs)
            base.Tolerance.witness v.Tolerance.witness;
          Alcotest.(check int)
            (Printf.sprintf "f=%d jobs=%d sets_checked" f jobs)
            base.Tolerance.sets_checked v.Tolerance.sets_checked)
        [ 2; 3; 4; 7 ])
    [ 1; 2 ]

let test_certify_links_jobs_independent () =
  let g = Families.torus 4 4 in
  let routing = routing_of g in
  let universe = Surviving.Links in
  List.iter
    (fun bound ->
      let base = Tolerance.certify ~universe ~jobs:1 routing ~f:2 ~bound in
      List.iter
        (fun jobs ->
          let cert = Tolerance.certify ~universe ~jobs routing ~f:2 ~bound in
          Alcotest.(check bool)
            (Printf.sprintf "bound=%d jobs=%d holds" bound jobs)
            base.Tolerance.holds cert.Tolerance.holds;
          Alcotest.(check bool)
            (Printf.sprintf "bound=%d jobs=%d counterexample" bound jobs)
            true
            (cert.Tolerance.counterexample = base.Tolerance.counterexample);
          Alcotest.(check int)
            (Printf.sprintf "bound=%d jobs=%d sets" bound jobs)
            base.Tolerance.cert_sets_checked cert.Tolerance.cert_sets_checked)
        [ 3; 4 ])
    [ 1; 6 ]

let test_random_links_jobs_independent () =
  let g = Families.torus 4 4 in
  let routing = routing_of g in
  let verdict jobs =
    let rng = Random.State.make [| 53; 11 |] in
    Tolerance.random ~universe:Surviving.Links ~jobs routing ~f:3 ~rng ~samples:60
  in
  let base = verdict 1 in
  List.iter
    (fun jobs ->
      let v = verdict jobs in
      Alcotest.(check bool) (Printf.sprintf "jobs=%d worst" jobs) true
        (v.Tolerance.worst = base.Tolerance.worst);
      Alcotest.check fault_set
        (Printf.sprintf "jobs=%d witness" jobs)
        base.Tolerance.witness v.Tolerance.witness;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d sets" jobs)
        base.Tolerance.sets_checked v.Tolerance.sets_checked)
    [ 2; 4 ]

let test_reduction_jobs_independent () =
  let g = Families.torus 4 4 in
  let routing = routing_of g in
  let base = Tolerance.reduction ~jobs:1 routing ~f:2 in
  List.iter
    (fun jobs ->
      let r = Tolerance.reduction ~jobs routing ~f:2 in
      Alcotest.(check int) (Printf.sprintf "jobs=%d sets" jobs)
        base.Tolerance.red_sets r.Tolerance.red_sets;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d violations" jobs)
        base.Tolerance.red_violations r.Tolerance.red_violations;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d first violation" jobs)
        true
        (r.Tolerance.red_first_violation = base.Tolerance.red_first_violation);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d worst edge" jobs)
        true
        (r.Tolerance.red_worst_edge = base.Tolerance.red_worst_edge);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d worst proj" jobs)
        true
        (r.Tolerance.red_worst_proj = base.Tolerance.red_worst_proj))
    [ 2; 4 ];
  Alcotest.(check int) "no violations on the torus" 0 base.Tolerance.red_violations

let test_search_universes_jobs_independent () =
  let g = Families.torus 5 5 in
  let c = Kernel.make g ~t:3 in
  List.iter
    (fun universe ->
      let outcome jobs =
        let rng = Random.State.make [| 31; 7 |] in
        Attack.search
          ~config:{ Attack.default_config with Attack.budget = 300; restarts = 4 }
          ~jobs ~rng ~pools:c.Construction.pools ~universe
          c.Construction.routing ~f:3
      in
      let label =
        match universe with Surviving.Links -> "edges" | _ -> "mixed"
      in
      let base = outcome 1 in
      List.iter
        (fun jobs ->
          let o = outcome jobs in
          Alcotest.(check bool) (Printf.sprintf "%s jobs=%d worst" label jobs)
            true
            (o.Attack.worst = base.Attack.worst);
          Alcotest.(check (list int))
            (Printf.sprintf "%s jobs=%d nodes" label jobs)
            base.Attack.witness.nodes o.Attack.witness.nodes;
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s jobs=%d edges" label jobs)
            base.Attack.witness.links o.Attack.witness.links;
          Alcotest.(check (list int))
            (Printf.sprintf "%s jobs=%d raw nodes" label jobs)
            base.Attack.raw_witness.nodes o.Attack.raw_witness.nodes;
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s jobs=%d raw edges" label jobs)
            base.Attack.raw_witness.links o.Attack.raw_witness.links;
          Alcotest.(check int)
            (Printf.sprintf "%s jobs=%d evals" label jobs)
            base.Attack.evals o.Attack.evals;
          Alcotest.(check int)
            (Printf.sprintf "%s jobs=%d restarts" label jobs)
            base.Attack.restarts_used o.Attack.restarts_used)
        [ 2; 4 ];
      (* the link universe must produce a node-free witness *)
      if universe = Surviving.Links then
        Alcotest.(check (list int)) "edge universe: no node faults" []
          base.Attack.witness.nodes)
    [ Surviving.Mixed; Surviving.Links ]

(* ---------------- the bit-sliced evaluator ---------------- *)

(* A random instance plus a batch of up to [lane_capacity] mixed fault
   sets: the sliced engine must answer every lane exactly as the
   scalar evaluator answers the corresponding set. *)
let arb_sliced_batch =
  QCheck.make
    ~print:(fun (g, sets) ->
      Printf.sprintf "%s batch=%d [%s]" (graph_print g) (List.length sets)
        (String.concat "; "
           (List.map
              (fun (nodes, edges) ->
                Printf.sprintf "F={%s} E={%s}"
                  (String.concat "," (List.map string_of_int nodes))
                  (String.concat ","
                     (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges)))
              sets)))
    QCheck.Gen.(
      (* Half the instances need multi-word adjacency rows (n > 63):
         lanes are fault sets, so the sliced engine must not care. *)
      let* g =
        oneof [ chorded_cycle_gen ~nmin:4 ~nmax:12; chorded_cycle_gen ~nmin:64 ~nmax:130 ]
      in
      let n = Graph.n g in
      let all_edges = Graph.edges g in
      let m = List.length all_edges in
      let* seed = int_range 0 1_000_000 in
      let rng = Random.State.make [| seed |] in
      let nsets = 1 + Random.State.int rng (Surviving.lane_capacity - 1) in
      let sets =
        List.init nsets (fun _ ->
            let nf = Random.State.int rng (min 4 n) in
            let nodes =
              List.sort_uniq compare (List.init nf (fun _ -> Random.State.int rng n))
            in
            let ef = Random.State.int rng (min 4 m) in
            let edges =
              List.sort_uniq compare
                (List.init ef (fun _ -> List.nth all_edges (Random.State.int rng m)))
            in
            (nodes, edges))
      in
      return (g, sets))

let prop_sliced_lanes_match_scalar =
  QCheck.Test.make ~name:"sliced lanes = per-set evaluator (nodes/edges/mixed)"
    ~count:40 arb_sliced_batch
    (fun (g, sets) ->
      assume_not_complete g;
      let routing = routing_of g in
      let compiled = Surviving.compile routing in
      let ids =
        List.map
          (fun (nodes, edges) ->
            ( nodes,
              List.map
                (fun (u, v) ->
                  match Surviving.edge_id compiled u v with
                  | Some id -> id
                  | None -> QCheck.Test.fail_reportf "edge %d-%d has no id" u v)
                edges ))
          sets
      in
      let s = Surviving.sliced compiled in
      List.iter (fun (nodes, edges) -> ignore (Surviving.slice_add s ~nodes ~edges)) ids;
      let ev = Surviving.evaluator compiled in
      let scalar_of f =
        List.map
          (fun (nodes, edges) ->
            Surviving.set_mixed_faults ev ~nodes ~edges;
            f ())
          ids
      in
      let lanes_ok =
        List.for_all2 ( = )
          (Array.to_list (Surviving.slice_diameters s))
          (scalar_of (fun () -> Surviving.evaluator_diameter ev))
      in
      let exceeds_ok =
        List.for_all
          (fun bound ->
            let mask = Surviving.slice_exceeds s ~bound in
            List.for_all2 ( = )
              (List.init (List.length ids) (fun k -> mask land (1 lsl k) <> 0))
              (scalar_of (fun () -> Surviving.diameter_exceeds ev ~bound)))
          (List.init 7 (fun b -> b - 1))
      in
      lanes_ok && exceeds_ok)

let prop_exhaustive_engines_agree =
  QCheck.Test.make ~name:"exhaustive: sliced = scalar verdict (nodes and edges)"
    ~count:25
    (QCheck.make ~print:graph_print (chorded_cycle_gen ~nmin:4 ~nmax:9))
    (fun g ->
      assume_not_complete g;
      let routing = routing_of g in
      let f = 2 in
      List.for_all
        (fun universe ->
          Tolerance.exhaustive ~universe ~engine:Tolerance.Sliced routing ~f
          = Tolerance.exhaustive ~universe ~engine:Tolerance.Scalar routing ~f)
        [ Surviving.Nodes; Surviving.Links; Surviving.Mixed ])

(* Run [f] with counters on from zero; [read] sees them before they
   are cleared again. *)
let counted f read =
  let module Obs = Ftr_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  let r = f () in
  let x = read () in
  Obs.set_enabled false;
  Obs.reset ();
  (r, x)

(* [f]'s result with the value of each named counter it fed. *)
let with_counters names f =
  let r, counters = counted f Ftr_obs.Obs.counters in
  (r, List.map (fun k -> Option.value ~default:0 (List.assoc_opt k counters)) names)

(* [f]'s result with the number of push and pull levels its sliced
   sweeps ran. *)
let with_levels f =
  match with_counters [ "engine.sliced.levels_push"; "engine.sliced.levels_pull" ] f with
  | r, [ push; pull ] -> (r, push, pull)
  | _ -> assert false

(* The equivalence suites only prove both BFS directions if both ran. *)
let check_both_directions name ~push ~pull =
  Alcotest.(check bool) (name ^ ": push levels ran") true (push > 0);
  Alcotest.(check bool) (name ^ ": pull levels ran") true (pull > 0)

(* Directed engine agreement where the adjacency rows span several
   words (n = 64, 64, 72): the sliced engine must reproduce the scalar
   verdict — worst, witness, sets_checked — for node faults at f=2 and
   edge faults at f=1. *)
let test_wide_engines_agree () =
  List.iter
    (fun (name, c) ->
      let routing = c.Construction.routing in
      let n = Graph.n (Routing.graph routing) in
      Alcotest.(check bool) (name ^ " is wider than one word") true
        (n > Surviving.lane_capacity);
      let node e = Tolerance.exhaustive ~engine:e routing ~f:2 in
      let sliced, push, pull = with_levels (fun () -> node Tolerance.Sliced) in
      if name = "hypercube:6" then check_both_directions (name ^ " nodes f=2") ~push ~pull;
      Alcotest.(check bool) (name ^ " nodes f=2") true (sliced = node Tolerance.Scalar);
      Alcotest.(check int) (name ^ " nodes f=2 sets")
        (Tolerance.count_subsets_up_to ~n ~k:2)
        sliced.Tolerance.sets_checked;
      let edge e = Tolerance.exhaustive ~universe:Surviving.Links ~engine:e routing ~f:1 in
      Alcotest.(check bool) (name ^ " edges f=1") true
        (edge Tolerance.Sliced = edge Tolerance.Scalar))
    [
      ("hypercube:6", Kernel.make (Families.hypercube 6) ~t:2);
      ("ccc:4", Kernel.make (Families.ccc 4) ~t:2);
      ("torus:8x9", Kernel.make (Families.torus 8 9) ~t:3);
    ]

(* An exhaustive sweep with three faults on a one-word instance: all
   19,650 sets, both directions exercised, scalar verdict reproduced. *)
let test_torus7_f3_engines_agree () =
  let routing = (Kernel.make (Families.torus 7 7) ~t:3).Construction.routing in
  let sliced, push, pull =
    with_levels (fun () -> Tolerance.exhaustive ~engine:Tolerance.Sliced routing ~f:3)
  in
  check_both_directions "torus:7x7 f=3" ~push ~pull;
  Alcotest.(check int) "torus:7x7 f=3 sets" 19_650 sliced.Tolerance.sets_checked;
  Alcotest.(check bool) "torus:7x7 f=3 verdict" true
    (sliced = Tolerance.exhaustive ~engine:Tolerance.Scalar routing ~f:3)

(* Past tolerance: at five faults hypercube:4's kernel routing
   disconnects lanes, and its sweeps abandon budgeted pull levels for
   push midway. The undone pulls must leave no trace in the verdict. *)
let test_pull_aborts_engines_agree () =
  let routing = (Kernel.make (Families.hypercube 4) ~t:3).Construction.routing in
  let sliced, aborts =
    with_counters [ "engine.sliced.pull_aborts" ] (fun () ->
        Tolerance.exhaustive ~engine:Tolerance.Sliced routing ~f:5)
  in
  Alcotest.(check bool) "pulls aborted" true (List.hd aborts > 0);
  Alcotest.(check bool) "a lane disconnects" true
    (sliced.Tolerance.worst = Metrics.Infinite);
  Alcotest.(check bool) "hypercube:4 f=5 verdict" true
    (sliced = Tolerance.exhaustive ~engine:Tolerance.Scalar routing ~f:5)

(* Eccentricities come from per-level lane masks that live in the
   [sliced] value, so a sweep must never read masks an earlier sweep
   left behind. On the 16-cycle routed along its edges alone, a lane
   of one alive vertex has diameter 0, an alive path of m vertices
   covers from its sources at levels ceil((m-1)/2)..m-1, and the whole
   cycle covers at level 8 only. Each slice below reaches levels it
   covers nothing at, where the other slice left bits for one of its
   diameter-0 lanes. *)
let test_sliced_reach_reused () =
  let n = 16 in
  let g = Families.cycle n in
  let routing = Routing.create g Routing.Bidirectional in
  Routing.add_edge_routes routing;
  let compiled = Surviving.compile routing in
  let ev = Surviving.evaluator compiled in
  let all_but alive = List.filter (fun v -> not (List.mem v alive)) (List.init n Fun.id) in
  let deep = [ all_but [ 5 ]; [ 0 ]; [] ] in
  let shallow = [ all_but [ 0; 1; 2; 3 ]; all_but [ 9 ]; [] ] in
  let s = Surviving.sliced compiled in
  let sweep what sets =
    Surviving.slice_reset s;
    List.iter (fun nodes -> ignore (Surviving.slice_add s ~nodes ~edges:[])) sets;
    Alcotest.(check bool) what true
      (Array.to_list (Surviving.slice_diameters s)
      = List.map
          (fun nodes ->
            Surviving.set_faults ev nodes;
            Surviving.evaluator_diameter ev)
          sets)
  in
  Alcotest.(check bool) "deep slice is deep" true
    (Surviving.set_faults ev [ 0 ];
     Surviving.evaluator_diameter ev = Metrics.Finite 14);
  sweep "deep first" deep;
  sweep "shallow after deep" shallow;
  sweep "deep after shallow" deep

(* A [sliced] value keeps its per-vertex scratch words from one source
   to the next and from one sweep to the next, so a reused value must
   answer every slice as a fresh one does. Each case loads 2–4 slices
   into one value in turn and asks each slice a random run of
   [slice_diameters] and [slice_exceeds ~bound] (bounds −1…6); a fresh
   value per slice, asked the same run, and the scalar evaluator must
   agree with it answer for answer. Besides random mixed sets, the
   slices hold sets that isolate a vertex (by its neighbours or by its
   links), so the lane disconnects, and sets that leave a single alive
   vertex. The graph and a seed are the case; the slices are drawn from
   the seed. *)
let prop_sliced_reuse_matches_fresh =
  QCheck.Test.make ~name:"a reused sliced answers like a fresh one" ~count:30
    (QCheck.make
       ~print:(fun (g, seed) -> Printf.sprintf "%s seed=%d" (graph_print g) seed)
       QCheck.Gen.(
         let* g =
           oneof [ chorded_cycle_gen ~nmin:4 ~nmax:12; chorded_cycle_gen ~nmin:64 ~nmax:100 ]
         in
         let* seed = int_range 0 1_000_000 in
         return (g, seed)))
    (fun (g, seed) ->
      assume_not_complete g;
      let compiled = Surviving.compile (routing_of g) in
      let n = Graph.n g and m = Surviving.edge_count compiled in
      let rng = Random.State.make [| seed |] in
      let pick k = Random.State.int rng k in
      let links_at v =
        Array.to_list (Graph.neighbors g v)
        |> List.filter_map (fun u -> Surviving.edge_id compiled v u)
      in
      let random_set () =
        match pick 5 with
        | 0 -> (List.init (pick 4) (fun _ -> pick n), List.init (pick 4) (fun _ -> pick m))
        | 1 -> (Array.to_list (Graph.neighbors g (pick n)), [])
        | 2 -> ([], links_at (pick n))
        | 3 ->
            let v = pick n in
            (List.filter (( <> ) v) (List.init n Fun.id), [])
        | _ -> ([], [])
      in
      let ev = Surviving.evaluator compiled in
      let scalar sets ask =
        List.map
          (fun (nodes, edges) ->
            Surviving.set_mixed_faults ev ~nodes:(List.sort_uniq compare nodes)
              ~edges:(List.sort_uniq compare edges);
            ask ())
          sets
      in
      let lanes sets mask = List.mapi (fun k _ -> mask land (1 lsl k) <> 0) sets in
      (* One question's answer from a sliced value, and from the scalar
         evaluator, in the same shape. *)
      let ask s sets = function
        | None -> `Diameters (Array.to_list (Surviving.slice_diameters s))
        | Some bound -> `Exceeds (lanes sets (Surviving.slice_exceeds s ~bound))
      in
      let oracle sets = function
        | None -> `Diameters (scalar sets (fun () -> Surviving.evaluator_diameter ev))
        | Some bound ->
            `Exceeds (scalar sets (fun () -> Surviving.diameter_exceeds ev ~bound))
      in
      let load s sets =
        List.iter (fun (nodes, edges) -> ignore (Surviving.slice_add s ~nodes ~edges)) sets
      in
      let reused = Surviving.sliced compiled in
      List.for_all
        (fun _ ->
          let sets = List.init (1 + pick Surviving.lane_capacity) (fun _ -> random_set ()) in
          let questions =
            List.init (1 + pick 4) (fun _ -> if pick 3 = 0 then None else Some (pick 8 - 1))
          in
          Surviving.slice_reset reused;
          load reused sets;
          let fresh = Surviving.sliced compiled in
          load fresh sets;
          List.for_all
            (fun q ->
              let a = ask reused sets q in
              a = ask fresh sets q && a = oracle sets q)
            questions)
        (List.init (2 + pick 3) Fun.id))

(* Per-vertex bookkeeping stays off the per-level path: a source makes
   one pass over all n vertices, and every later level walks only the
   vertices some pending lane still needs. On hypercube:6's kernel
   routing at f=2 a source runs about three levels, and the sweep
   visits 11,904 per-vertex words per slice (the counter is a function
   of the instance alone). An update pass that rescanned all n
   vertices at every level would visit 15,029; the bound sits between
   the two, at 3¼·n² per slice. *)
let test_sliced_vertex_visits_bounded () =
  let routing = (Kernel.make (Families.hypercube 6) ~t:2).Construction.routing in
  let n = Graph.n (Routing.graph routing) in
  match
    with_counters
      [ "engine.sliced.vertex_visits"; "engine.sliced.slices" ]
      (fun () -> Tolerance.exhaustive ~engine:Tolerance.Sliced routing ~f:2)
  with
  | _, [ visits; slices ] ->
      Alcotest.(check bool) "slices swept" true (slices > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%d visits over %d slices within 3¼·n² per slice" visits slices)
        true
        (4 * visits <= slices * 13 * n * n)
  | _ -> assert false

(* A rejected [slice_add] must leave its lane untouched: the bad id is
   last, after ids that would already have been recorded. *)
let test_slice_add_rejects_atomically () =
  let routing = (Kernel.make (Families.torus 5 5) ~t:3).Construction.routing in
  let compiled = Surviving.compile routing in
  let fault_free = Surviving.evaluator_diameter (Surviving.evaluator compiled) in
  Alcotest.(check bool) "fault-free diameter" true (fault_free = Metrics.Finite 2);
  let s = Surviving.sliced compiled in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "bad vertex" (fun () ->
      Surviving.slice_add s ~nodes:(List.init 24 Fun.id @ [ 9999 ]) ~edges:[]);
  rejects "bad edge" (fun () ->
      Surviving.slice_add s ~nodes:[ 0; 1; 2 ] ~edges:[ 0; 1; Surviving.edge_count compiled ]);
  Alcotest.(check int) "no lane taken" 0 (Surviving.slice_count s);
  Alcotest.(check int) "empty set loads lane 0" 0 (Surviving.slice_add s ~nodes:[] ~edges:[]);
  Alcotest.(check bool) "empty set sees no stale faults" true
    (Surviving.slice_diameters s = [| fault_free |])

(* The transposed pack is a state machine (masks recorded by adds,
   packed lazily by sweeps, cleared by reset); drive one slice through
   every transition and compare each lane with the scalar evaluator.
   Every lane of the first slice contains [top], as a canonical
   block's top vertex is; some lanes repeat ids, and one mixes a node
   fault with a down edge at that node. *)
let test_slice_pack_lifecycle () =
  let routing = (Kernel.make (Families.torus 5 5) ~t:3).Construction.routing in
  let compiled = Surviving.compile routing in
  let n = Surviving.compiled_n compiled in
  let m = Surviving.edge_count compiled in
  let ev = Surviving.evaluator compiled in
  let rng = Random.State.make [| 13 |] in
  let top = 12 in
  let random_set ~with_top =
    let nodes = List.init (Random.State.int rng 3) (fun _ -> Random.State.int rng n) in
    let edges = List.init (Random.State.int rng 3) (fun _ -> Random.State.int rng m) in
    ((if with_top then top :: nodes else nodes), edges)
  in
  let at_top = Option.get (Surviving.edge_id compiled top (top + 1)) in
  let special =
    [
      ([ top; 3; 3; top ], [ 5; 5 ]);
      ([ top ], [ at_top ]);
      ([ top; top ], []);
    ]
  in
  let first = special @ List.init 37 (fun _ -> random_set ~with_top:true) in
  let more = List.init 23 (fun _ -> random_set ~with_top:true) in
  let after_reset = List.init 30 (fun _ -> random_set ~with_top:false) in
  let scalar sets f =
    List.map
      (fun (nodes, edges) ->
        Surviving.set_mixed_faults ev ~nodes:(List.sort_uniq compare nodes)
          ~edges:(List.sort_uniq compare edges);
        f ())
      sets
  in
  let s = Surviving.sliced compiled in
  let check_slice what sets =
    Alcotest.(check int) (what ^ ": lanes") (List.length sets) (Surviving.slice_count s);
    Alcotest.(check bool) (what ^ ": diameters") true
      (Array.to_list (Surviving.slice_diameters s)
      = scalar sets (fun () -> Surviving.evaluator_diameter ev));
    for bound = -1 to 5 do
      let mask = Surviving.slice_exceeds s ~bound in
      Alcotest.(check bool)
        (Printf.sprintf "%s: exceeds %d" what bound)
        true
        (List.init (List.length sets) (fun k -> mask land (1 lsl k) <> 0)
        = scalar sets (fun () -> Surviving.diameter_exceeds ev ~bound))
    done
  in
  let add sets = List.iter (fun (nodes, edges) -> ignore (Surviving.slice_add s ~nodes ~edges)) sets in
  add first;
  check_slice "first sweep" first;
  add more;
  Alcotest.(check int) "slice full" Surviving.lane_capacity (Surviving.slice_count s);
  check_slice "add after sweep" (first @ more);
  Surviving.slice_reset s;
  add after_reset;
  check_slice "after reset" after_reset

(* Bit-identical verdicts AND byte-identical Obs counter JSON for the
   sliced path at jobs=1 vs jobs=8, across the full quick table (both
   universes, f=1 and f=2), on a one-word instance and on one with
   n > 63. Also covers the compile cache: the warm runs must report
   the same counters as the cold one. *)
let test_sliced_jobs_counters_identical () =
  let counters_after f = counted f Ftr_obs.Obs.counters_json in
  List.iter
    (fun (name, routing) ->
      List.iter
        (fun f ->
          let label what = Printf.sprintf "%s f=%d %s" name f what in
          let v1, j1 =
            counters_after (fun () -> Tolerance.exhaustive ~jobs:1 routing ~f)
          in
          let v8, j8 =
            counters_after (fun () -> Tolerance.exhaustive ~jobs:8 routing ~f)
          in
          Alcotest.(check bool) (label "node verdict") true (v1 = v8);
          Alcotest.(check string) (label "node counters") j1 j8;
          let e1, ej1 =
            counters_after (fun () ->
                Tolerance.exhaustive ~universe:Surviving.Links ~jobs:1 routing ~f)
          in
          let e8, ej8 =
            counters_after (fun () ->
                Tolerance.exhaustive ~universe:Surviving.Links ~jobs:8 routing ~f)
          in
          Alcotest.(check bool) (label "edge verdict") true (e1 = e8);
          Alcotest.(check string) (label "edge counters") ej1 ej8)
        [ 1; 2 ])
    [
      ("torus:4x4", routing_of (Families.torus 4 4));
      ("hypercube:6", (Kernel.make (Families.hypercube 6) ~t:2).Construction.routing);
    ]

(* ---------------- symmetric tables ---------------- *)

(* A route table sparse enough for surviving diameters of 3 and more:
   every edge routed directly both ways, plus shortest paths between a
   few random pairs, each beside its reverse. With [skew], the route
   from one end of a cycle edge back to the other runs the long way
   round the cycle instead, and the table is no longer symmetric. The
   table is unidirectional either way: symmetry is read off the routes,
   never off the declared kind. *)
let sparse_table g ~rng ~skew =
  let n = Graph.n g in
  let routing = Routing.create g Routing.Unidirectional in
  let add p =
    if not (Routing.mem routing (Path.source p) (Path.target p)) then Routing.add routing p
  in
  let j = Random.State.int rng n in
  if skew then add (Path.of_list (List.init n (fun k -> (j + k) mod n)));
  List.iter
    (fun (u, v) ->
      add (Path.edge u v);
      add (Path.edge v u))
    (Graph.edges g);
  for _ = 1 to n / 4 do
    let x = Random.State.int rng n and y = Random.State.int rng n in
    match Traversal.shortest_path g x y with
    | Some p when Path.length p >= 2 ->
        add p;
        add (Path.rev p)
    | _ -> ()
  done;
  routing

let arb_symmetric_case =
  QCheck.make
    ~print:(fun (g, u, seed) ->
      Printf.sprintf "%s universe=%s seed=%d" (graph_print g) (universe_name u) seed)
    QCheck.Gen.(
      let* g = chorded_cycle_gen ~nmin:5 ~nmax:100 in
      let* u = oneofl [ Surviving.Nodes; Surviving.Links; Surviving.Mixed ] in
      let* seed = int_range 0 1_000_000 in
      return (g, u, seed))

(* On a symmetric table the sliced sweep measures each unordered pair
   once, from its lower end, and keeps the vertices below the source
   as relays. One slice of random fault sets per table, as built and
   skewed: [symmetric] must tell the two apart, and every lane's
   [slice_diameters] and [slice_exceeds] at bounds -1..6 must match
   the scalar evaluator, [Surviving.diameter] (node faults) and a
   digraph BFS over the route table. *)
let prop_symmetric_sweep_matches_oracle =
  QCheck.Test.make ~name:"sliced sweep = oracles on symmetric and skewed tables"
    ~count:40 arb_symmetric_case
    (fun (g, u, seed) ->
      let n = Graph.n g in
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun skew ->
          let routing = sparse_table g ~rng ~skew in
          let compiled = Surviving.compile routing in
          let size = Surviving.universe_size compiled u in
          let sets =
            List.init
              (1 + Random.State.int rng Surviving.lane_capacity)
              (fun _ ->
                List.sort_uniq compare
                  (List.init (Random.State.int rng 5) (fun _ -> Random.State.int rng size)))
          in
          let ev = Surviving.evaluator compiled in
          let expected =
            List.map
              (fun ids ->
                let fs = Surviving.fault_set_of_ids compiled u ids in
                let ((_, alive) as naive) = naive_digraph routing fs in
                let d = naive_diameter_over naive (List.filter alive (List.init n Fun.id)) in
                Surviving.set_fault_ids ev u ids;
                if Surviving.evaluator_diameter ev <> d then
                  QCheck.Test.fail_reportf "skew=%b: scalar evaluator disagrees with BFS" skew;
                if fs.links = [] && Surviving.diameter routing ~faults:(Bitset.of_list n fs.nodes) <> d
                then QCheck.Test.fail_reportf "skew=%b: Surviving.diameter disagrees with BFS" skew;
                d)
              sets
          in
          let s = Surviving.sliced compiled in
          List.iter (fun ids -> ignore (Surviving.slice_add_ids s u ids)) sets;
          Surviving.symmetric compiled = not skew
          && Array.to_list (Surviving.slice_diameters s) = expected
          && List.for_all
               (fun bound ->
                 let mask = Surviving.slice_exceeds s ~bound in
                 List.for_all2 ( = )
                   (List.mapi (fun k _ -> mask land (1 lsl k) <> 0) sets)
                   (List.map
                      (fun d -> not (Metrics.distance_le d (Metrics.Finite bound)))
                      expected))
               (List.init 8 (fun b -> b - 1)))
        [ false; true ])

(* [symmetric] reads the table: the bidirectional auto constructions
   (circular on torus:7x7 and hypercube:6, kernel on petersen) are
   symmetric, cycle:12's unidirectional bipolar routing is not, and
   neither is a table with a reverse missing or a reverse that joins
   the same endpoints along another path. *)
let test_symmetric_detection () =
  let sym routing = Surviving.symmetric (Surviving.compile routing) in
  List.iter
    (fun (name, g, strategy, expected) ->
      let choice = Builder.auto ~rng:(Random.State.make [| 0xBEEF |]) g in
      Alcotest.(check string) (name ^ " strategy") strategy
        (Builder.strategy_name choice.Builder.strategy);
      Alcotest.(check bool) (name ^ " symmetric") expected
        (sym choice.Builder.construction.Construction.routing))
    [
      ("torus:7x7", Families.torus 7 7, "circular", true);
      ("hypercube:6", Families.hypercube 6, "circular", true);
      ("petersen", Families.petersen (), "kernel", true);
      ("cycle:12", Families.cycle 12, "bipolar-uni", false);
    ];
  let table paths =
    let r = Routing.create (Families.cycle 6) Routing.Unidirectional in
    List.iter (fun p -> Routing.add r (Path.of_list p)) paths;
    r
  in
  Alcotest.(check bool) "reversed pairs" true
    (sym (table [ [ 0; 1; 2 ]; [ 2; 1; 0 ]; [ 3; 4 ]; [ 4; 3 ] ]));
  Alcotest.(check bool) "empty table" true (sym (table []));
  Alcotest.(check bool) "missing reverse" false
    (sym (table [ [ 0; 1; 2 ]; [ 2; 1; 0 ]; [ 3; 4 ] ]));
  Alcotest.(check bool) "same endpoints, other path" false
    (sym (table [ [ 0; 1; 2 ]; [ 2; 3; 4; 5; 0 ]; [ 3; 4 ]; [ 4; 3 ] ]))

(* ---------------- certified sources ---------------- *)

(* The sliced sweep skips the BFS of a source with f+1
   footprint-disjoint witnesses to every target. Tables with slack
   certify most sources: circular on hypercube:5 (t = 2; hypercube:4's
   neighborhood set has K = 2, too few for the construction) and on
   hypercube:6, and the all-pairs shortest-path table of hypercube:4,
   whose every pair is routed. Tables without it certify few or none:
   kernel on torus:4x4, cycle:12's unidirectional bipolar table, and a
   skewed (asymmetric) sparse table. The benchmark's two auto tables at
   f = 3 leave sources short on a few targets (hypercube:6) or on many
   (torus:7x7), so their residual pairs are tested on the lane words.
   Each entry carries the fault budget its slices are drawn up to. *)
let certificate_tables =
  lazy
    (let fixed g strategy =
       match Builder.build g (Builder.Fixed strategy) ~seed:0xBEEF with
       | Ok c -> c.Construction.routing
       | Error e -> failwith e
     in
     let auto g =
       (Builder.auto ~rng:(Random.State.make [| 0xBEEF |]) g).Builder.construction
         .Construction.routing
     in
     [
       ("circular hypercube:5", (Circular.make (Families.hypercube 5) ~t:2).Construction.routing, 2, true);
       ("circular hypercube:6", fixed (Families.hypercube 6) Builder.Circular, 3, true);
       ("shortest paths hypercube:4", (Minimal_routing.make (Families.hypercube 4)).Construction.routing, 2, true);
       ("kernel torus:4x4", fixed (Families.torus 4 4) Builder.Kernel, 2, false);
       ("bipolar-uni cycle:12", fixed (Families.cycle 12) Builder.Bipolar_uni, 2, false);
       ( "skewed sparse table",
         sparse_table
           (Graph.of_edges ~n:20
              (List.init 20 (fun i -> (i, (i + 1) mod 20)) @ [ (0, 7); (3, 12); (5, 15); (9, 18) ]))
           ~rng:(Random.State.make [| 5 |]) ~skew:true,
         2,
         false );
       ("auto torus:7x7", auto (Families.torus 7 7), 3, true);
       ("auto hypercube:6", auto (Families.hypercube 6), 3, true);
     ]
     |> List.map (fun (name, routing, f, slack) -> (name, Surviving.compile routing, f, slack)))

(* Up to a full slice of sets, each of 0 to [f] ids drawn with
   replacement, so a lane may name an element twice. *)
let random_slice rng ~size ~f =
  List.init
    (1 + Random.State.int rng Surviving.lane_capacity)
    (fun _ -> List.init (Random.State.int rng (f + 1)) (fun _ -> Random.State.int rng size))

(* Load [sets] into one slice and check [slice_diameters] and
   [slice_exceeds] at bounds 0..4 against the scalar evaluator, lane
   for lane; returns the sources skipped and slices re-swept. *)
let slice_agrees compiled u sets =
  let ev = Surviving.evaluator compiled in
  let scalar read =
    List.map
      (fun ids ->
        Surviving.set_fault_ids ev u (List.sort_uniq compare ids);
        read ())
      sets
  in
  let s = Surviving.sliced compiled in
  List.iter (fun ids -> ignore (Surviving.slice_add_ids s u ids)) sets;
  let ok, counts =
    with_counters [ "engine.sliced.sources_skipped"; "engine.sliced.rechecks" ] (fun () ->
        Array.to_list (Surviving.slice_diameters s)
        = scalar (fun () -> Surviving.evaluator_diameter ev)
        && List.for_all
             (fun bound ->
               let mask = Surviving.slice_exceeds s ~bound in
               List.mapi (fun k _ -> mask land (1 lsl k) <> 0) sets
               = scalar (fun () -> Surviving.diameter_exceeds ev ~bound))
             [ 0; 1; 2; 3; 4 ])
  in
  match counts with [ skipped; rechecks ] -> (ok, skipped, rechecks) | _ -> assert false

let prop_certified_sweep_matches_scalar =
  QCheck.Test.make ~name:"sliced = scalar with certified sources skipped" ~count:80
    (QCheck.make
       ~print:(fun (i, u, seed) -> Printf.sprintf "table=%d universe=%s seed=%d" i (universe_name u) seed)
       QCheck.Gen.(
         let* i = int_range 0 7 in
         let* u = oneofl [ Surviving.Nodes; Surviving.Links; Surviving.Mixed ] in
         let* seed = int_range 0 1_000_000 in
         return (i, u, seed)))
    (fun (i, u, seed) ->
      let _, compiled, f, _ = List.nth (Lazy.force certificate_tables) i in
      let rng = Random.State.make [| seed |] in
      let sets = random_slice rng ~size:(Surviving.universe_size compiled u) ~f in
      let ok, _, _ = slice_agrees compiled u sets in
      ok)

(* Non-vacuity: on the slack tables the random slices do skip
   sources, in every universe, and the verdicts still agree. *)
let test_certificate_skips () =
  List.iter
    (fun (name, compiled, f, slack) ->
      List.iter
        (fun u ->
          let rng = Random.State.make [| 17 |] in
          let skipped = ref 0 in
          for _ = 1 to 4 do
            let sets = random_slice rng ~size:(Surviving.universe_size compiled u) ~f in
            let ok, k, _ = slice_agrees compiled u sets in
            Alcotest.(check bool) (name ^ " " ^ universe_name u ^ " agrees") true ok;
            skipped := !skipped + k
          done;
          if slack then
            Alcotest.(check bool)
              (name ^ " " ^ universe_name u ^ " skips sources")
              true (!skipped > 0))
        [ Surviving.Nodes; Surviving.Links; Surviving.Mixed ])
    (Lazy.force certificate_tables)

(* Non-vacuity of the residual-pair tests: random node slices at
   f = 3 on the two auto tables test pairs, and the diameters still
   agree with the scalar evaluator. hypercube:6 has so few weak pairs
   that some slice is answered without packing its route words;
   torus:7x7 has hundreds, and packs. *)
let test_certificate_residual_pairs () =
  List.iter
    (fun (name, answers_unpacked) ->
      let _, compiled, f, _ =
        List.find (fun (n, _, _, _) -> n = name) (Lazy.force certificate_tables)
      in
      let ev = Surviving.evaluator compiled in
      let rng = Random.State.make [| 23 |] in
      let unpacked = ref 0 and pairs = ref 0 in
      for _ = 1 to 6 do
        let sets = random_slice rng ~size:(Surviving.compiled_n compiled) ~f in
        let s = Surviving.sliced compiled in
        List.iter (fun nodes -> ignore (Surviving.slice_add s ~nodes ~edges:[])) sets;
        let d, counts =
          with_counters
            [ "engine.sliced.pairs_tested"; "engine.sliced.slices_packed" ]
            (fun () -> Surviving.slice_diameters s)
        in
        let scalar =
          List.map
            (fun nodes ->
              Surviving.set_faults ev (List.sort_uniq compare nodes);
              Surviving.evaluator_diameter ev)
            sets
        in
        Alcotest.(check bool) (name ^ " agrees") true (Array.to_list d = scalar);
        match counts with
        | [ tested; packed ] ->
            pairs := !pairs + tested;
            if packed = 0 then incr unpacked
        | _ -> assert false
      done;
      Alcotest.(check bool) (name ^ " tests pairs") true (!pairs > 0);
      Alcotest.(check bool) (name ^ " answers a slice unpacked") answers_unpacked (!unpacked > 0))
    [ ("auto hypercube:6", true); ("auto torus:7x7", false) ]

(* A lane where every residual pair is covered by its direct route
   measures exactly. The table routes the edges of a triangle 0-1-2
   with a triangle 2-3-4 hung on vertex 2. At f = 2 sources 0 and 1
   have pairs with only two witnesses (the direct route and one relay),
   so with 3 and 4 faulted both are tested, not certified, and no
   source is skipped with an unknown eccentricity (4, the only source
   certified, is faulted). Their pairs survive
   directly: the lane measures 1, with no re-sweep. Faulting 0 and 4
   leaves 1 to reach 3 through the relay 2: 2. *)
let test_certificate_residual_exact () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (0, 2); (1, 2); (2, 3); (2, 4); (3, 4) ] in
  let routing = Routing.create g Routing.Bidirectional in
  Routing.add_edge_routes routing;
  let compiled = Surviving.compile routing in
  Alcotest.(check (list int)) "only 4, with no target, certified at f=2" [ 4 ]
    (Surviving.certified_sources compiled ~f:2);
  let s = Surviving.sliced compiled in
  List.iter (fun nodes -> ignore (Surviving.slice_add s ~nodes ~edges:[])) [ [ 3; 4 ]; [ 0; 4 ] ];
  let d, counts =
    with_counters
      [ "engine.sliced.pairs_tested"; "engine.sliced.rechecks" ]
      (fun () -> Surviving.slice_diameters s)
  in
  Alcotest.(check bool) "diameters 1 and 2" true (d = [| Metrics.Finite 1; Metrics.Finite 2 |]);
  Alcotest.(check bool) "pairs tested, no re-sweep" true
    (match counts with [ tested; rechecks ] -> tested > 0 && rechecks = 0 | _ -> false)

(* Lanes built to need the re-sweep, on hypercube:4's all-pairs table
   (every pair routed, so no skipped source is known to sit at
   distance exactly 2). Faulting every fragile endpoint, the sources
   not certified at f = 1, leaves only certified sources: none runs a
   BFS, the lane measures 0 and must be swept again. A lane with at
   most one alive vertex measures 0 too, and forces the re-sweep of a
   slice whose other lane alone needs none. *)
let test_certificate_rechecks () =
  let compiled =
    Surviving.compile (Minimal_routing.make (Families.hypercube 4)).Construction.routing
  in
  let n = Surviving.compiled_n compiled in
  let certified = Surviving.certified_sources compiled ~f:1 in
  let fragile = List.filter (fun x -> not (List.mem x certified)) (List.init n Fun.id) in
  Alcotest.(check int) "one fragile endpoint at f=1" 1 (List.length fragile);
  let ok, skipped, rechecks = slice_agrees compiled Surviving.Nodes [ fragile ] in
  Alcotest.(check bool) "fragile lane agrees" true ok;
  Alcotest.(check bool) "fragile lane skips" true (skipped > 0);
  Alcotest.(check bool) "fragile lane re-swept" true (rechecks > 0);
  (* A one-fault lane that skips sources yet measures 2 on its own. *)
  let quiet =
    List.find
      (fun v ->
        let ok, skipped, rechecks = slice_agrees compiled Surviving.Nodes [ [ v ] ] in
        ok && skipped > 0 && rechecks = 0)
      (List.init n Fun.id)
  in
  List.iter
    (fun survivors ->
      let lone = List.filter (fun v -> not (List.mem v survivors)) (List.init n Fun.id) in
      let label = Printf.sprintf "%d alive" (List.length survivors) in
      let ok, _, rechecks = slice_agrees compiled Surviving.Nodes [ [ quiet ]; lone ] in
      Alcotest.(check bool) (label ^ ": agrees") true ok;
      Alcotest.(check bool) (label ^ ": re-swept") true (rechecks > 0))
    [ [ 5 ]; [] ]

(* The new counters feed the jobs-independence contract: exhaustive
   sweeps that skip sources and re-sweep slices give byte-identical
   counter JSON at every jobs value. *)
let test_certificate_counters_jobs_independent () =
  let q6 =
    (Builder.auto ~rng:(Random.State.make [| 0xBEEF |]) (Families.hypercube 6))
      .Builder.construction.Construction.routing
  in
  let q4 = (Minimal_routing.make (Families.hypercube 4)).Construction.routing in
  let t7 =
    (Builder.auto ~rng:(Random.State.make [| 0xBEEF |]) (Families.torus 7 7))
      .Builder.construction.Construction.routing
  in
  List.iter
    (fun (name, routing, universe, f) ->
      let run jobs =
        counted
          (fun () -> Tolerance.exhaustive ~jobs ~universe routing ~f)
          Ftr_obs.Obs.counters_json
      in
      let v1, j1 = run 1 in
      List.iter
        (fun jobs ->
          let v, j = run jobs in
          Alcotest.(check bool) (Printf.sprintf "%s jobs=%d verdict" name jobs) true (v = v1);
          Alcotest.(check string) (Printf.sprintf "%s jobs=%d counters" name jobs) j1 j)
        [ 2; 3 ];
      let _, counts =
        with_counters [ "engine.sliced.sources_skipped" ] (fun () ->
            Tolerance.exhaustive ~jobs:2 ~universe routing ~f)
      in
      Alcotest.(check bool) (name ^ " skips sources") true (List.hd counts > 0))
    [
      ("hypercube:6 nodes f=2", q6, Surviving.Nodes, 2);
      ("hypercube:6 links f=1", q6, Surviving.Links, 1);
      ("hypercube:4 shortest paths f=1", q4, Surviving.Nodes, 1);
      ("torus:7x7 nodes f=3", t7, Surviving.Nodes, 3);
      ("hypercube:6 links f=2", q6, Surviving.Links, 2);
    ]

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "gray",
        [
          Alcotest.test_case "revolving door enumerates C(n,k) subsets" `Quick
            test_gray_enumerates_all_subsets;
        ] );
      ( "equivalence",
        qcheck
          [
            prop_three_paths_agree;
            prop_incremental_survives_churn;
            prop_diameter_exceeds_consistent;
          ]
        @ [ Alcotest.test_case "apply/revert guards" `Quick test_apply_fault_guards ] );
      ("apsp", qcheck [ prop_kernel_matches_oracle ]);
      ( "symmetric",
        qcheck [ prop_symmetric_sweep_matches_oracle ]
        @ [ Alcotest.test_case "symmetry read off the table" `Quick test_symmetric_detection ]
      );
      ( "edges",
        qcheck [ prop_edge_evaluator_agrees_with_reference ]
        @ [
            Alcotest.test_case "edge apply/revert guards" `Quick
              test_edge_apply_revert_guards;
            Alcotest.test_case "exhaustive links = brute force" `Quick
              test_exhaustive_links_agrees_with_naive;
            Alcotest.test_case "restricted diameter" `Quick
              test_evaluator_diameter_over;
          ] );
      ( "certificates",
        qcheck [ prop_certify_agrees_with_exhaustive; prop_sliced_certify_matches_oracle ]
        @ [
            Alcotest.test_case "counterexample violates" `Quick
              test_certify_counterexample_violates;
          ] );
      ( "certificate",
        qcheck [ prop_certified_sweep_matches_scalar ]
        @ [
            Alcotest.test_case "slack tables skip sources" `Quick test_certificate_skips;
            Alcotest.test_case "lanes that need the re-sweep" `Quick test_certificate_rechecks;
            Alcotest.test_case "residual pairs tested" `Quick test_certificate_residual_pairs;
            Alcotest.test_case "residual lanes measured exactly" `Quick
              test_certificate_residual_exact;
          ] );
      ( "sliced",
        qcheck
          [
            prop_sliced_lanes_match_scalar;
            prop_exhaustive_engines_agree;
            prop_sliced_reuse_matches_fresh;
          ]
        @ [
            Alcotest.test_case "vertex visits stay off the per-level path" `Quick
              test_sliced_vertex_visits_bounded;
            Alcotest.test_case "jobs1 = jobs8 verdicts and counters" `Quick
              test_sliced_jobs_counters_identical;
            Alcotest.test_case "sliced = scalar beyond one word" `Quick
              test_wide_engines_agree;
            Alcotest.test_case "sliced = scalar on torus:7x7 f=3" `Quick
              test_torus7_f3_engines_agree;
            Alcotest.test_case "sliced = scalar with aborted pulls" `Quick
              test_pull_aborts_engines_agree;
            Alcotest.test_case "level masks reused across sweeps" `Quick
              test_sliced_reach_reused;
            Alcotest.test_case "rejected slice_add leaves no trace" `Quick
              test_slice_add_rejects_atomically;
            Alcotest.test_case "pack lifecycle = per-set evaluator" `Quick
              test_slice_pack_lifecycle;
          ] );
      ( "determinism",
        [
          Alcotest.test_case "exhaustive jobs-independent" `Quick
            test_exhaustive_jobs_independent;
          Alcotest.test_case "evaluate jobs-independent" `Slow
            test_evaluate_jobs_independent;
          Alcotest.test_case "attack jobs-independent" `Slow
            test_attack_jobs_independent;
          Alcotest.test_case "certify jobs-independent" `Quick
            test_certify_jobs_independent;
          Alcotest.test_case "exhaustive links jobs-independent" `Quick
            test_exhaustive_links_jobs_independent;
          Alcotest.test_case "certify links jobs-independent" `Quick
            test_certify_links_jobs_independent;
          Alcotest.test_case "random links jobs-independent" `Quick
            test_random_links_jobs_independent;
          Alcotest.test_case "reduction jobs-independent" `Quick
            test_reduction_jobs_independent;
          Alcotest.test_case "search universes jobs-independent" `Slow
            test_search_universes_jobs_independent;
          Alcotest.test_case "certified-source counters jobs-independent" `Quick
            test_certificate_counters_jobs_independent;
        ] );
    ]
