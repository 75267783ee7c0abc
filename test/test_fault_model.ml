open Ftr_graph
open Ftr_core

let distance = Alcotest.testable Metrics.pp_distance ( = )

let edge_routing g =
  let r = Routing.create g Routing.Bidirectional in
  Routing.add_edge_routes r;
  r

(* The model over the cycle's one-edge routes. *)
let edge_model () = Fault_model.create (edge_routing (Families.cycle 6))

(* The reference: the table walk of Surviving.graph under the model's
   current node and link faults. *)
let reference_graph fm =
  let r = Fault_model.routing fm in
  Surviving.graph ~links:(Fault_model.edge_faults fm) r
    ~faults:(Bitset.of_list (Graph.n (Routing.graph r)) (Fault_model.node_faults fm))

(* Shortest route sequence by plain BFS over the reference graph:
   FIFO queue, successors in ascending order, the first parent wins. *)
let reference_plan dg ~faults ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let n = Digraph.n dg in
    let parent = Array.make n (-1) in
    parent.(src) <- src;
    let q = Queue.create () in
    Queue.push src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Array.iter
        (fun v ->
          if parent.(v) < 0 && not (Bitset.mem faults v) then begin
            parent.(v) <- u;
            Queue.push v q
          end)
        (Digraph.succ dg u)
    done;
    if parent.(dst) < 0 then None
    else
      let rec walk v acc = if v = src then v :: acc else walk parent.(v) (v :: acc) in
      Some (walk dst [])
  end

let test_affects_edge () =
  let fm = edge_model () in
  Fault_model.fail_edge fm 1 2;
  Alcotest.(check bool) "route using edge dies" true
    (Fault_model.affects fm (Path.of_list [ 0; 1; 2 ]));
  Alcotest.(check bool) "other direction too" true
    (Fault_model.affects fm (Path.of_list [ 2; 1; 0 ]));
  Alcotest.(check bool) "vertex-only touch survives" false
    (Fault_model.affects fm (Path.of_list [ 0; 1 ]))

let test_affects_node () =
  let fm = edge_model () in
  Fault_model.fail_node fm 3;
  Alcotest.(check bool) "interior" true (Fault_model.affects fm (Path.of_list [ 2; 3; 4 ]));
  Alcotest.(check bool) "endpoint" true (Fault_model.affects fm (Path.of_list [ 3; 4 ]));
  Alcotest.(check bool) "unrelated" false (Fault_model.affects fm (Path.of_list [ 0; 1 ]))

let test_fail_edge_validates () =
  let fm = edge_model () in
  Alcotest.check_raises "non-edge" (Invalid_argument "Fault_model.fail_edge: not an edge")
    (fun () -> Fault_model.fail_edge fm 0 3)

let test_endpoint_projection () =
  let fm = edge_model () in
  Fault_model.fail_node fm 5;
  Fault_model.fail_edge fm 2 1;
  let proj = Fault_model.endpoint_projection fm in
  Alcotest.(check (list int)) "node + smaller endpoint" [ 1; 5 ] (Bitset.elements proj)

let test_edge_fault_diameter () =
  let fm = edge_model () in
  Fault_model.fail_edge fm 0 1;
  (* all nodes alive; 0 and 1 reconnect the long way *)
  Alcotest.(check distance) "diameter 5" (Metrics.Finite 5) (Fault_model.diameter fm);
  Alcotest.(check distance) "reference agrees" (Metrics.Finite 5)
    (Surviving.diameter_of_digraph (reference_graph fm) ~faults:(Bitset.create 6))

let test_edge_faults_weaker_than_node_faults () =
  (* The paper's reduction: projecting each failed edge to an endpoint
     fault can only shrink the surviving graph (on surviving nodes).
     Check arc-set inclusion exhaustively over single edge faults. *)
  let g = Families.torus 4 4 in
  let c = Kernel.make g ~t:3 in
  let r = c.Construction.routing in
  let none = Bitset.create 16 in
  Graph.iter_edges
    (fun u v ->
      let dg_edge = Surviving.graph ~links:[ (u, v) ] r ~faults:none in
      let dg_node = Surviving.graph r ~faults:(Bitset.of_list 16 [ min u v ]) in
      for x = 0 to 15 do
        Array.iter
          (fun y ->
            Alcotest.(check bool)
              (Printf.sprintf "arc %d->%d survives under weaker edge fault" x y)
              true (Digraph.mem_arc dg_edge x y))
          (Digraph.succ dg_node x)
      done)
    g

let test_kernel_under_edge_faults () =
  (* t edge faults: every pair of nodes outside the projected endpoint
     set keeps the theorem distance; measure the full diameter too. *)
  let g = Families.hypercube 3 in
  let c = Kernel.make g ~t:2 in
  let fm = Fault_model.create c.Construction.routing in
  let edges = Graph.edges g in
  List.iter
    (fun ((u1, v1), (u2, v2)) ->
      Fault_model.fail_edge fm u1 v1;
      Fault_model.fail_edge fm u2 v2;
      Alcotest.(check bool) "finite" true
        (match Fault_model.diameter fm with Metrics.Finite _ -> true | Metrics.Infinite -> false);
      Fault_model.recover_edge fm u1 v1;
      Fault_model.recover_edge fm u2 v2)
    (List.concat_map (fun e1 -> List.map (fun e2 -> (e1, e2)) edges) edges)

let test_recovery () =
  let fm = edge_model () in
  let healthy = Fault_model.diameter fm in
  Fault_model.fail_node fm 2;
  Fault_model.fail_edge fm 4 5;
  Alcotest.(check int) "mixed fault count" 2 (Fault_model.fault_count fm);
  Alcotest.(check bool) "edge failed, either order" true
    (Fault_model.edge_failed fm 5 4);
  Fault_model.recover_edge fm 5 4;
  Alcotest.(check bool) "edge recovered" false (Fault_model.edge_failed fm 4 5);
  Fault_model.recover_node fm 2;
  Alcotest.(check int) "all recovered" 0 (Fault_model.fault_count fm);
  Alcotest.check distance "diameter restored" healthy (Fault_model.diameter fm);
  (* recovery of a healthy element is a no-op, not an error *)
  Fault_model.recover_node fm 2;
  Fault_model.recover_edge fm 4 5;
  Alcotest.(check int) "still clean" 0 (Fault_model.fault_count fm)

(* The paper's reduction as a graph property: over the projection's
   surviving nodes, the edge-fault surviving graph is a supergraph of
   the endpoint-projection surviving graph — randomised over graphs,
   routings and mixed node/link fault sets. *)
let prop_edge_surviving_supergraph_of_projection =
  let gen =
    QCheck.Gen.(
      let* n = int_range 5 12 in
      let* extra = int_range 0 n in
      let* seed = int_range 0 1_000_000 in
      let rng = Random.State.make [| seed |] in
      let chords =
        List.init extra (fun _ -> (Random.State.int rng n, Random.State.int rng n))
      in
      let cycle = List.init n (fun i -> (i, (i + 1) mod n)) in
      let g = Graph.of_edges ~n (cycle @ chords) in
      let all_edges = Graph.edges g in
      let m = List.length all_edges in
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
  in
  QCheck.Test.make
    ~name:"edge-fault surviving graph ⊇ projection's (on its survivors)"
    ~count:80
    (QCheck.make
       ~print:(fun (g, nodes, edges) ->
         Format.asprintf "n=%d F={%a} E={%a}" (Graph.n g)
           Fmt.(list ~sep:comma int)
           nodes
           Fmt.(list ~sep:comma (pair ~sep:(any "-") int int))
           edges)
       gen)
    (fun (g, nodes, edges) ->
      let n = Graph.n g in
      QCheck.assume (List.length (Graph.edges g) < n * (n - 1) / 2);
      let r = (Kernel.make g ~t:(max 1 (Connectivity.vertex_connectivity g - 1)))
                .Construction.routing
      in
      let fm = Fault_model.create r in
      List.iter (Fault_model.fail_node fm) nodes;
      List.iter (fun (u, v) -> Fault_model.fail_edge fm u v) edges;
      let proj = Fault_model.endpoint_projection fm in
      let dg_edge = reference_graph fm in
      let dg_proj = Surviving.graph r ~faults:proj in
      let ok = ref true in
      for x = 0 to n - 1 do
        if not (Bitset.mem proj x) then
          Array.iter
            (fun y -> if not (Digraph.mem_arc dg_edge x y) then ok := false)
            (Digraph.succ dg_proj x)
      done;
      !ok)

let test_counts () =
  let fm = edge_model () in
  Fault_model.fail_edge fm 0 1;
  Fault_model.fail_edge fm 1 0;
  Alcotest.(check int) "normalised" 1 (Fault_model.edge_fault_count fm);
  Fault_model.fail_node fm 4;
  Fault_model.fail_node fm 4;
  Alcotest.(check (list int)) "nodes" [ 4 ] (Fault_model.node_faults fm)

(* ---------------- gray failures ---------------- *)

let test_degrade_basics () =
  let fm = edge_model () in
  Alcotest.(check (float 0.0)) "healthy factor" 1.0
    (Fault_model.edge_degradation fm 0 1);
  Fault_model.degrade_edge fm 1 0 ~factor:3.5;
  Alcotest.(check (float 0.0)) "either order" 3.5
    (Fault_model.edge_degradation fm 0 1);
  Alcotest.(check int) "counted" 1 (Fault_model.degraded_edge_count fm);
  Alcotest.(check int) "hard faults unaffected" 0 (Fault_model.fault_count fm);
  Fault_model.restore_edge fm 0 1;
  Alcotest.(check (float 0.0)) "restored" 1.0
    (Fault_model.edge_degradation fm 0 1);
  Alcotest.(check int) "empty again" 0 (Fault_model.degraded_edge_count fm)

let test_degrade_validates () =
  let fm = edge_model () in
  Alcotest.check_raises "non-edge"
    (Invalid_argument "Fault_model.degrade_edge: not an edge") (fun () ->
      Fault_model.degrade_edge fm 0 3 ~factor:2.0);
  Alcotest.check_raises "factor below 1"
    (Invalid_argument "Fault_model.degrade_edge: factor must be finite and >= 1")
    (fun () -> Fault_model.degrade_edge fm 0 1 ~factor:0.5);
  Alcotest.check_raises "nan factor"
    (Invalid_argument "Fault_model.degrade_edge: factor must be finite and >= 1")
    (fun () -> Fault_model.degrade_edge fm 0 1 ~factor:Float.nan)

let test_degrade_factor_one_is_canonical () =
  let fm = edge_model () in
  let clean = Fault_model.digest fm in
  Fault_model.degrade_edge fm 0 1 ~factor:1.0;
  Alcotest.(check int) "factor 1 never recorded" 0
    (Fault_model.degraded_edge_count fm);
  Alcotest.(check string) "digest untouched" clean (Fault_model.digest fm);
  Fault_model.degrade_edge fm 0 1 ~factor:2.0;
  Fault_model.degrade_edge fm 0 1 ~factor:1.0;
  Alcotest.(check string) "re-degrading to 1 erases" clean
    (Fault_model.digest fm)

let test_path_delay_factor_is_mean () =
  let fm = edge_model () in
  Fault_model.degrade_edge fm 0 1 ~factor:4.0;
  Alcotest.(check (float 1e-9)) "healthy path" 1.0
    (Fault_model.path_delay_factor fm (Path.of_list [ 2; 3; 4 ]));
  Alcotest.(check (float 1e-9)) "single degraded hop" 4.0
    (Fault_model.path_delay_factor fm (Path.of_list [ 0; 1 ]));
  (* two hops, one at 4x, one healthy: mean 2.5 *)
  Alcotest.(check (float 1e-9)) "mean over hops" 2.5
    (Fault_model.path_delay_factor fm (Path.of_list [ 0; 1; 2 ]));
  Alcotest.(check (float 1e-9)) "trivial path" 1.0
    (Fault_model.path_delay_factor fm (Path.of_list [ 3 ]))

let test_degrade_digest_section () =
  let fm = edge_model () in
  Fault_model.degrade_edge fm 2 1 ~factor:2.0;
  Fault_model.degrade_edge fm 4 5 ~factor:8.0;
  Alcotest.(check string) "sorted canonical slow section"
    "nodes{} links{} slow{1-2*2,4-5*8}" (Fault_model.digest fm)

(* Shared generator for the gray-failure properties: a random chorded
   cycle plus a random degradation set (edges of the graph, factors in
   [1, 16]). *)
let gray_gen =
  QCheck.Gen.(
    let* n = int_range 5 12 in
    let* extra = int_range 0 n in
    let* seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| seed |] in
    let chords =
      List.init extra (fun _ -> (Random.State.int rng n, Random.State.int rng n))
    in
    let cycle = List.init n (fun i -> (i, (i + 1) mod n)) in
    let g = Graph.of_edges ~n (cycle @ chords) in
    let all_edges = Graph.edges g in
    let m = List.length all_edges in
    let k = Random.State.int rng (min 5 m) in
    let degrades =
      List.map
        (fun _ ->
          let u, v = List.nth all_edges (Random.State.int rng m) in
          (u, v, 1.5 +. Random.State.float rng 14.5))
        (List.init k Fun.id)
    in
    return (g, degrades))

let gray_print (g, degrades) =
  Format.asprintf "n=%d slow={%a}" (Graph.n g)
    Fmt.(
      list ~sep:comma (fun ppf (u, v, f) -> Fmt.pf ppf "%d-%d*%.3g" u v f))
    degrades

(* Degrade + restore is a digest round trip: applying a wave of
   degradations and then restoring exactly those links must return the
   digest to its starting bytes (the chaos harness's convergence gate
   at the model level). *)
let prop_degrade_restore_roundtrips_digest =
  QCheck.Test.make ~name:"degrade+restore round-trips the digest" ~count:120
    (QCheck.make ~print:gray_print gray_gen)
    (fun (g, degrades) ->
      let fm = Fault_model.create (edge_routing g) in
      let before = Fault_model.digest fm in
      List.iter (fun (u, v, f) -> Fault_model.degrade_edge fm u v ~factor:f) degrades;
      let during = Fault_model.digest fm in
      List.iter (fun (u, v, _) -> Fault_model.restore_edge fm u v) degrades;
      (degrades = [] || during <> before) && Fault_model.digest fm = before)

(* All-pairs route answers, the part of the model no memo covers. *)
let all_routes fm n =
  List.init (n * n) (fun i -> Fault_model.route fm ~src:(i / n) ~dst:(i mod n))

(* The gray-failure contract: latency degradation never changes
   reachability verdicts. Whatever the degradation set, [affects],
   every route answer and the surviving diameter must be identical to
   the healthy model's, and the diameter to the reference's. *)
let prop_degraded_links_never_change_verdicts =
  QCheck.Test.make
    ~name:"degraded links never change surviving-diameter verdicts" ~count:80
    (QCheck.make ~print:gray_print gray_gen)
    (fun (g, degrades) ->
      let r =
        (Kernel.make g ~t:(max 1 (Connectivity.vertex_connectivity g - 1)))
          .Construction.routing
      in
      let n = Graph.n g in
      let fm = Fault_model.create r in
      let healthy_routes = all_routes fm n in
      List.iter (fun (u, v, f) -> Fault_model.degrade_edge fm u v ~factor:f) degrades;
      let routes_unaffected =
        List.for_all
          (fun (u, v, _) -> not (Fault_model.affects fm (Path.of_list [ u; v ])))
          degrades
      in
      routes_unaffected
      && all_routes fm n = healthy_routes
      && Fault_model.diameter fm = Surviving.diameter r ~faults:(Bitset.create n))

(* ---------------- the fault state against the reference ---------------- *)

type delta =
  | Fail_node of int
  | Recover_node of int
  | Fail_link of int * int
  | Recover_link of int * int
  | Degrade of int * int * float
  | Restore of int * int

let delta_to_string = function
  | Fail_node v -> Printf.sprintf "fail %d" v
  | Recover_node v -> Printf.sprintf "recover %d" v
  | Fail_link (u, v) -> Printf.sprintf "fail %d-%d" u v
  | Recover_link (u, v) -> Printf.sprintf "recover %d-%d" u v
  | Degrade (u, v, f) -> Printf.sprintf "degrade %d-%d*%g" u v f
  | Restore (u, v) -> Printf.sprintf "restore %d-%d" u v

(* Small constructions, symmetric and not, each built once. *)
let state_constructions =
  lazy
    [|
      ("kernel torus(4x4)", (Kernel.make (Families.torus 4 4) ~t:3).Construction.routing);
      ("kernel hypercube(3)", (Kernel.make (Families.hypercube 3) ~t:2).Construction.routing);
      ( "bipolar-uni cycle(10)",
        (Bipolar.make_unidirectional (Families.cycle 10) ~t:1).Construction.routing );
      ( "bipolar-bi cycle(10)",
        (Bipolar.make_bidirectional (Families.cycle 10) ~t:1).Construction.routing );
      ("edge routes cycle(7)", edge_routing (Families.cycle 7));
    |]

(* A random delta sequence over a few nodes and links of the chosen
   construction, so repeats (failing what is down, recovering what is
   up) are common; link endpoints come in either order. *)
let state_gen =
  QCheck.Gen.(
    let* k = int_bound (Array.length (Lazy.force state_constructions) - 1) in
    let _, r = (Lazy.force state_constructions).(k) in
    let g = Routing.graph r in
    let n = Graph.n g and edges = Array.of_list (Graph.edges g) in
    let* nodes = list_repeat 3 (int_bound (n - 1)) in
    let* links = list_repeat 3 (int_bound (Array.length edges - 1)) in
    let node = oneofl nodes in
    let link =
      let* u, v = map (fun i -> edges.(i)) (oneofl links) in
      map (fun swap -> if swap then (v, u) else (u, v)) bool
    in
    let delta =
      frequency
        [
          (3, map (fun v -> Fail_node v) node);
          (2, map (fun v -> Recover_node v) node);
          (3, map (fun (u, v) -> Fail_link (u, v)) link);
          (2, map (fun (u, v) -> Recover_link (u, v)) link);
          (1, map2 (fun (u, v) f -> Degrade (u, v, f)) link (oneofl [ 1.0; 2.5; 8.0 ]));
          (1, map (fun (u, v) -> Restore (u, v)) link);
        ]
    in
    let* deltas = list_size (int_range 1 24) delta in
    return (k, deltas))

let state_print (k, deltas) =
  Printf.sprintf "%s: %s"
    (fst (Lazy.force state_constructions).(k))
    (String.concat "; " (List.map delta_to_string deltas))

(* After every delta: the model's route answers and diameter equal the
   reference table walk over the fault sets the test tracks itself,
   gray deltas leave both unchanged, and the digest equals that of a
   fresh model the surviving state is replayed into. *)
let prop_fault_state_matches_reference =
  QCheck.Test.make ~name:"fault state = reference after every delta" ~count:100
    (QCheck.make ~print:state_print state_gen)
    (fun (k, deltas) ->
      let _, r = (Lazy.force state_constructions).(k) in
      let n = Graph.n (Routing.graph r) in
      let fm = Fault_model.create r in
      let down = Bitset.create n in
      let links = Hashtbl.create 8 and slow = Hashtbl.create 8 in
      let norm u v = (min u v, max u v) in
      let prev = ref (all_routes fm n, Fault_model.diameter fm) in
      List.for_all
        (fun d ->
          let gray =
            match d with
            | Fail_node v ->
                Fault_model.fail_node fm v;
                Bitset.add down v;
                false
            | Recover_node v ->
                Fault_model.recover_node fm v;
                Bitset.remove down v;
                false
            | Fail_link (u, v) ->
                Fault_model.fail_edge fm u v;
                Hashtbl.replace links (norm u v) ();
                false
            | Recover_link (u, v) ->
                Fault_model.recover_edge fm u v;
                Hashtbl.remove links (norm u v);
                false
            | Degrade (u, v, f) ->
                Fault_model.degrade_edge fm u v ~factor:f;
                if f = 1.0 then Hashtbl.remove slow (norm u v)
                else Hashtbl.replace slow (norm u v) f;
                true
            | Restore (u, v) ->
                Fault_model.restore_edge fm u v;
                Hashtbl.remove slow (norm u v);
                true
          in
          let link_list = Hashtbl.fold (fun e () acc -> e :: acc) links [] in
          let dg = Surviving.graph ~links:link_list r ~faults:down in
          let hops plan =
            let rec sum = function
              | a :: (b :: _ as rest) -> Path.length (Option.get (Routing.find r a b)) + sum rest
              | _ -> 0
            in
            sum plan
          in
          let pairs = List.init (n * n) (fun i -> (i / n, i mod n)) in
          let alive (src, dst) = not (Bitset.mem down src || Bitset.mem down dst) in
          let answers =
            List.map
              (fun ((src, dst) as p) -> if alive p then Fault_model.route fm ~src ~dst else None)
              pairs
          in
          let routes_ok =
            List.for_all2
              (fun ((src, dst) as p) answer ->
                (not (alive p))
                ||
                match (answer, reference_plan dg ~faults:down ~src ~dst) with
                | Some (plan, h), Some want -> plan = want && h = hops want
                | None, None -> true
                | _ -> false)
              pairs answers
          in
          let now = (answers, Fault_model.diameter fm) in
          let diameter_ok = snd now = Surviving.diameter_of_digraph dg ~faults:down in
          let replayed = Fault_model.create r in
          List.iter (Fault_model.fail_node replayed) (Bitset.elements down);
          List.iter (fun (u, v) -> Fault_model.fail_edge replayed u v) link_list;
          Hashtbl.iter (fun (u, v) f -> Fault_model.degrade_edge replayed u v ~factor:f) slow;
          let digest_ok = Fault_model.digest fm = Fault_model.digest replayed in
          let gray_ok = (not gray) || now = !prev in
          prev := now;
          routes_ok && diameter_ok && digest_ok && gray_ok)
        deltas)

(* ---------------- a network's view of the fault state ---------------- *)

let test_crash_recover () =
  let fm = edge_model () in
  Alcotest.(check bool) "initially healthy" false (Fault_model.is_faulty fm 2);
  Fault_model.fail_node fm 2;
  Alcotest.(check bool) "faulty" true (Fault_model.is_faulty fm 2);
  Alcotest.(check int) "count" 1 (Fault_model.node_fault_count fm);
  Fault_model.recover_node fm 2;
  Alcotest.(check bool) "recovered" false (Fault_model.is_faulty fm 2);
  Alcotest.(check int) "count 0" 0 (Fault_model.node_fault_count fm)

(* The diameter is memoised; a crash and a recovery must each clear
   the memo, and the reference graph must track both. *)
let test_surviving_cache_invalidation () =
  let fm = edge_model () in
  let arcs () = Digraph.arc_count (reference_graph fm) in
  Alcotest.(check int) "before" 12 (arcs ());
  Alcotest.(check distance) "healthy" (Metrics.Finite 3) (Fault_model.diameter fm);
  Fault_model.fail_node fm 0;
  Alcotest.(check int) "after: 4 arcs dead" 8 (arcs ());
  Alcotest.(check distance) "path of five" (Metrics.Finite 4) (Fault_model.diameter fm);
  Fault_model.recover_node fm 0;
  Alcotest.(check int) "restored" 12 (arcs ());
  Alcotest.(check distance) "memo cleared" (Metrics.Finite 3) (Fault_model.diameter fm)

let test_surviving_diameter () =
  let fm = edge_model () in
  Alcotest.(check distance) "healthy" (Metrics.Finite 3) (Fault_model.diameter fm);
  Fault_model.fail_node fm 1;
  Alcotest.(check distance) "after crash" (Metrics.Finite 4) (Fault_model.diameter fm)

let plan fm ~src ~dst = Option.map fst (Fault_model.route fm ~src ~dst)

let test_route_plan_direct () =
  let fm = edge_model () in
  Alcotest.(check (option (list int))) "adjacent" (Some [ 0; 1 ]) (plan fm ~src:0 ~dst:1);
  Alcotest.(check (option (list int))) "self" (Some [ 3 ]) (plan fm ~src:3 ~dst:3)

let test_route_plan_multihop () =
  let fm = edge_model () in
  match Fault_model.route fm ~src:0 ~dst:3 with
  | Some (waypoints, hops) ->
      Alcotest.(check int) "three routes" 4 (List.length waypoints);
      Alcotest.(check int) "three hops" 3 hops
  | None -> Alcotest.fail "expected plan"

let test_route_plan_avoids_faults () =
  let fm = edge_model () in
  Fault_model.fail_node fm 1;
  Alcotest.(check (option (list int))) "goes the long way" (Some [ 0; 5; 4; 3; 2 ])
    (plan fm ~src:0 ~dst:2);
  Alcotest.check_raises "faulty endpoint"
    (Invalid_argument "Surviving.evaluator_route: faulty endpoint") (fun () ->
      ignore (Fault_model.route fm ~src:0 ~dst:1))

let test_route_survives () =
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Bidirectional in
  Routing.add r (Path.of_list [ 0; 1; 2 ]);
  let fm = Fault_model.create r in
  let survives src dst =
    match Routing.find r src dst with
    | Some p -> not (Fault_model.affects fm p)
    | None -> false
  in
  Alcotest.(check bool) "alive" true (survives 0 2);
  Fault_model.fail_node fm 1;
  Alcotest.(check bool) "dead via interior" false (survives 0 2);
  Alcotest.(check bool) "undefined pair" false (survives 0 3)

let test_link_fail_restore () =
  let fm = edge_model () in
  Alcotest.(check bool) "initially up" false (Fault_model.edge_failed fm 0 1);
  Fault_model.fail_edge fm 1 0;
  Alcotest.(check bool) "down, as failed" true (Fault_model.edge_failed fm 1 0);
  Alcotest.(check bool) "down, other order" true (Fault_model.edge_failed fm 0 1);
  Alcotest.(check int) "link count" 1 (Fault_model.edge_fault_count fm);
  Alcotest.(check (list (pair int int))) "normalised listing" [ (0, 1) ]
    (Fault_model.edge_faults fm);
  Alcotest.(check int) "nodes unaffected" 0 (Fault_model.node_fault_count fm);
  Fault_model.recover_edge fm 0 1;
  Alcotest.(check bool) "restored" false (Fault_model.edge_failed fm 1 0);
  Alcotest.(check int) "link count 0" 0 (Fault_model.edge_fault_count fm)

let test_link_fault_cache_invalidation () =
  let fm = edge_model () in
  let arcs () = Digraph.arc_count (reference_graph fm) in
  Alcotest.(check int) "healthy arcs" 12 (arcs ());
  Alcotest.(check distance) "healthy" (Metrics.Finite 3) (Fault_model.diameter fm);
  Fault_model.fail_edge fm 2 3;
  (* only the two arcs over the downed link die; endpoints stay *)
  Alcotest.(check int) "two arcs dead" 10 (arcs ());
  Alcotest.(check distance) "cycle minus one edge" (Metrics.Finite 5)
    (Fault_model.diameter fm);
  Fault_model.recover_edge fm 3 2;
  Alcotest.(check int) "arcs back" 12 (arcs ());
  Alcotest.(check distance) "diameter back" (Metrics.Finite 3) (Fault_model.diameter fm)

let test_route_plan_under_link_faults () =
  let fm = edge_model () in
  Fault_model.fail_edge fm 0 1;
  Alcotest.(check (option (list int))) "both endpoints alive, long way round"
    (Some [ 0; 5; 4; 3; 2; 1 ]) (plan fm ~src:0 ~dst:1);
  Alcotest.(check bool) "direct route is dead" true
    (Fault_model.affects fm (Path.of_list [ 0; 1 ]))

let () =
  Alcotest.run "fault_model"
    [
      ( "fault_model",
        [
          Alcotest.test_case "affects edge" `Quick test_affects_edge;
          Alcotest.test_case "affects node" `Quick test_affects_node;
          Alcotest.test_case "fail_edge validates" `Quick test_fail_edge_validates;
          Alcotest.test_case "endpoint projection" `Quick test_endpoint_projection;
          Alcotest.test_case "edge fault diameter" `Quick test_edge_fault_diameter;
          Alcotest.test_case "edge weaker than node" `Slow test_edge_faults_weaker_than_node_faults;
          Alcotest.test_case "kernel under edge faults" `Slow test_kernel_under_edge_faults;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "recovery round trip" `Quick test_recovery;
          Alcotest.test_case "degrade basics" `Quick test_degrade_basics;
          Alcotest.test_case "degrade validates" `Quick test_degrade_validates;
          Alcotest.test_case "factor 1 is canonical" `Quick
            test_degrade_factor_one_is_canonical;
          Alcotest.test_case "path delay factor is the hop mean" `Quick
            test_path_delay_factor_is_mean;
          Alcotest.test_case "digest slow section" `Quick
            test_degrade_digest_section;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_edge_surviving_supergraph_of_projection;
              prop_degrade_restore_roundtrips_digest;
              prop_degraded_links_never_change_verdicts;
            ] );
      ( "network",
        [
          Alcotest.test_case "crash/recover" `Quick test_crash_recover;
          Alcotest.test_case "cache invalidation" `Quick test_surviving_cache_invalidation;
          Alcotest.test_case "surviving diameter" `Quick test_surviving_diameter;
          Alcotest.test_case "plan: direct & self" `Quick test_route_plan_direct;
          Alcotest.test_case "plan: multihop" `Quick test_route_plan_multihop;
          Alcotest.test_case "plan avoids faults" `Quick test_route_plan_avoids_faults;
          Alcotest.test_case "route_survives" `Quick test_route_survives;
          Alcotest.test_case "link fail/restore" `Quick test_link_fail_restore;
          Alcotest.test_case "link fault cache invalidation" `Quick
            test_link_fault_cache_invalidation;
          Alcotest.test_case "plan under link faults" `Quick
            test_route_plan_under_link_faults;
        ] );
      ("state", List.map QCheck_alcotest.to_alcotest [ prop_fault_state_matches_reference ]);
    ]
