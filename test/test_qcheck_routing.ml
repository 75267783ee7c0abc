(* Property-based tests of the central claims: on randomly generated
   2-connected graphs, the constructions stay within their claimed
   surviving-diameter bounds under random fault sets. *)

open Ftr_graph
open Ftr_core

let graph_print g =
  Format.asprintf "n=%d edges=%a" (Graph.n g)
    Fmt.(list ~sep:sp (pair ~sep:(any "-") int int))
    (Graph.edges g)

(* Random cycle + chords: 2-connected, i.e. t >= 1. *)
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

(* A graph plus a random fault set of size at most [t(g)]. *)
let with_faults_gen ~nmin ~nmax =
  QCheck.Gen.(
    let* g = chorded_cycle_gen ~nmin ~nmax in
    let t = Connectivity.vertex_connectivity g - 1 in
    let* fault_seed = int_range 0 1_000_000 in
    let rng = Random.State.make [| fault_seed |] in
    let f = if t = 0 then 0 else Random.State.int rng (t + 1) in
    let faults =
      List.sort_uniq compare
        (List.init f (fun _ -> Random.State.int rng (Graph.n g)))
    in
    return (g, t, faults))

let arb_with_faults ~nmin ~nmax =
  QCheck.make
    ~print:(fun (g, t, faults) ->
      Printf.sprintf "%s t=%d F={%s}" (graph_print g) t
        (String.concat "," (List.map string_of_int faults)))
    (with_faults_gen ~nmin ~nmax)

let surviving_within routing faults ~bound =
  let n = Graph.n (Routing.graph routing) in
  let faults = Bitset.of_list n faults in
  Metrics.distance_le (Surviving.diameter routing ~faults) (Metrics.Finite bound)

let prop_kernel_theorem3 =
  QCheck.Test.make ~name:"Theorem 3: kernel within max(2t,4) under <=t faults"
    ~count:40 (arb_with_faults ~nmin:6 ~nmax:14)
    (fun (g, t, faults) ->
      let c = Kernel.make g ~t in
      surviving_within c.Construction.routing faults ~bound:(max (2 * t) 4))

let prop_kernel_theorem4 =
  QCheck.Test.make ~name:"Theorem 4: kernel within 4 under <=t/2 faults" ~count:40
    (arb_with_faults ~nmin:6 ~nmax:14)
    (fun (g, t, faults) ->
      let faults = List.filteri (fun i _ -> i < t / 2) faults in
      let c = Kernel.make g ~t in
      surviving_within c.Construction.routing faults ~bound:4)

let prop_kernel_routing_valid =
  QCheck.Test.make ~name:"kernel routing table is always valid" ~count:40
    (QCheck.make ~print:graph_print (chorded_cycle_gen ~nmin:6 ~nmax:14))
    (fun g ->
      let t = Connectivity.vertex_connectivity g - 1 in
      let c = Kernel.make g ~t in
      Routing.validate c.Construction.routing = Ok ())

let prop_circular_theorem10 =
  QCheck.Test.make ~name:"Theorem 10: circular within 6 when a set exists" ~count:40
    (arb_with_faults ~nmin:12 ~nmax:24)
    (fun (g, t, faults) ->
      let m = Independent.greedy g in
      QCheck.assume (List.length m >= Circular.required_k ~t);
      let c = Circular.make ~m g ~t in
      surviving_within c.Construction.routing faults ~bound:6)

let prop_bipolar_theorems =
  QCheck.Test.make ~name:"Theorems 20/23: bipolar bounds when roots exist" ~count:40
    (arb_with_faults ~nmin:12 ~nmax:24)
    (fun (g, t, faults) ->
      match Two_trees.find g with
      | None -> QCheck.assume_fail ()
      | Some roots ->
          let uni = Bipolar.make_unidirectional ~roots g ~t in
          let bi = Bipolar.make_bidirectional ~roots g ~t in
          surviving_within uni.Construction.routing faults ~bound:4
          && surviving_within bi.Construction.routing faults ~bound:5)

let prop_auto_respects_strongest_claim =
  QCheck.Test.make ~name:"auto-built construction honors its strongest claim"
    ~count:25 (arb_with_faults ~nmin:8 ~nmax:16)
    (fun (g, _, faults) ->
      let choice = Builder.auto g in
      let c = choice.Builder.construction in
      let claim = Construction.strongest_claim c in
      let faults =
        List.filteri (fun i _ -> i < claim.Construction.max_faults) faults
      in
      surviving_within c.Construction.routing faults
        ~bound:claim.Construction.diameter_bound)

let prop_surviving_antitone =
  QCheck.Test.make ~name:"more faults never add surviving arcs" ~count:40
    (arb_with_faults ~nmin:6 ~nmax:14)
    (fun (g, t, faults) ->
      let c = Kernel.make g ~t in
      let n = Graph.n g in
      let sub = match faults with [] -> [] | _ :: rest -> rest in
      let dg_all = Surviving.graph c.Construction.routing ~faults:(Bitset.of_list n faults) in
      let dg_sub = Surviving.graph c.Construction.routing ~faults:(Bitset.of_list n sub) in
      let ok = ref true in
      for u = 0 to n - 1 do
        Array.iter
          (fun v -> if not (Digraph.mem_arc dg_sub u v) then ok := false)
          (Digraph.succ dg_all u)
      done;
      !ok)

let prop_tree_routing_verifies =
  QCheck.Test.make ~name:"tree routings satisfy their defining properties" ~count:60
    (QCheck.make
       ~print:(fun (g, src, center) ->
         Printf.sprintf "%s src=%d center=%d" (graph_print g) src center)
       QCheck.Gen.(
         let* g = chorded_cycle_gen ~nmin:6 ~nmax:16 in
         let n = Graph.n g in
         let* src = int_range 0 (n - 1) in
         let* center = int_range 0 (n - 1) in
         return (g, src, center)))
    (fun (g, src, center) ->
      QCheck.assume (src <> center);
      QCheck.assume (not (Graph.mem_edge g src center));
      let targets = Array.to_list (Graph.neighbors g center) in
      QCheck.assume (not (List.mem src targets));
      let t = Connectivity.vertex_connectivity g - 1 in
      let k = min (t + 1) (List.length targets) in
      let paths = Tree_routing.make g ~src ~targets ~k in
      Tree_routing.verify g ~src ~targets ~k paths = Ok ())

let prop_kernel_lemma_properties =
  QCheck.Test.make ~name:"kernel lemma properties hold under <=t faults" ~count:30
    (arb_with_faults ~nmin:6 ~nmax:14)
    (fun (g, t, faults) ->
      let c = Kernel.make g ~t in
      let n = Graph.n g in
      Properties.all_hold (Properties.check c ~faults:(Bitset.of_list n faults)))

let prop_bipolar_lemma_properties =
  QCheck.Test.make ~name:"bipolar lemma properties hold under <=t faults" ~count:30
    (arb_with_faults ~nmin:12 ~nmax:24)
    (fun (g, t, faults) ->
      match Two_trees.find g with
      | None -> QCheck.assume_fail ()
      | Some roots ->
          let n = Graph.n g in
          let fs = Bitset.of_list n faults in
          Properties.all_hold
            (Properties.check (Bipolar.make_unidirectional ~roots g ~t) ~faults:fs)
          && Properties.all_hold
               (Properties.check (Bipolar.make_bidirectional ~roots g ~t) ~faults:fs))

let prop_minimal_routing_stretch_one =
  QCheck.Test.make ~name:"minimal routing always has stretch 1" ~count:30
    (QCheck.make ~print:graph_print (chorded_cycle_gen ~nmin:5 ~nmax:15))
    (fun g ->
      let c = Minimal_routing.make g in
      Routing.stretch c.Construction.routing = 1.0)

let prop_routing_io_roundtrip =
  QCheck.Test.make ~name:"routing tables survive save/load" ~count:30
    (QCheck.make ~print:graph_print (chorded_cycle_gen ~nmin:5 ~nmax:12))
    (fun g ->
      let t = Connectivity.vertex_connectivity g - 1 in
      let c = Kernel.make g ~t in
      match Routing_io.load g (Routing_io.to_string c.Construction.routing) with
      | Error _ -> false
      | Ok loaded ->
          Routing.route_count loaded = Routing.route_count c.Construction.routing
          && Routing.validate loaded = Ok ())

let prop_attack_cross_validates =
  QCheck.Test.make
    ~name:"attack never exceeds exhaustive worst; shrunk witness reproduces it"
    ~count:15
    (QCheck.make ~print:graph_print (chorded_cycle_gen ~nmin:6 ~nmax:10))
    (fun g ->
      let t = Connectivity.vertex_connectivity g - 1 in
      let c = Kernel.make g ~t in
      let routing = c.Construction.routing in
      let f = max 1 t in
      let n = Graph.n g in
      let truth = Tolerance.exhaustive routing ~f in
      let rng = Random.State.make [| 11; n |] in
      let o =
        Attack.search
          ~config:{ Attack.default_config with Attack.budget = 400 }
          ~rng ~pools:c.Construction.pools routing ~f
      in
      let reproduced =
        Surviving.diameter routing ~faults:(Bitset.of_list n o.Attack.witness.nodes)
      in
      Attack.score ~n o.Attack.worst <= Attack.score ~n truth.Tolerance.worst
      && reproduced = o.Attack.worst)

let prop_full_multirouting_diameter_one =
  QCheck.Test.make ~name:"Section 6 (1): full multirouting diameter 1" ~count:15
    (arb_with_faults ~nmin:5 ~nmax:9)
    (fun (g, t, faults) ->
      QCheck.assume (List.length faults <= t);
      let mt = Multirouting.full g ~t in
      let n = Graph.n g in
      let d = Multirouting.diameter mt ~faults:(Bitset.of_list n faults) in
      let survivors = n - List.length faults in
      Metrics.distance_le d (Metrics.Finite (if survivors <= 1 then 0 else 1)))

let () =
  let suite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_kernel_theorem3;
        prop_kernel_theorem4;
        prop_kernel_routing_valid;
        prop_circular_theorem10;
        prop_bipolar_theorems;
        prop_auto_respects_strongest_claim;
        prop_surviving_antitone;
        prop_tree_routing_verifies;
        prop_kernel_lemma_properties;
        prop_bipolar_lemma_properties;
        prop_minimal_routing_stretch_one;
        prop_routing_io_roundtrip;
        prop_attack_cross_validates;
        prop_full_multirouting_diameter_one;
      ]
  in
  Alcotest.run "qcheck_routing" [ ("properties", suite) ]
