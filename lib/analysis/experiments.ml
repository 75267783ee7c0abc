open Ftr_graph
open Ftr_core

type context = { seed : int; quick : bool; out_dir : string option; jobs : int }

let default_context ?(seed = 0xBEEF) ?(quick = false) ?out_dir ?jobs () =
  let jobs = match jobs with Some j -> j | None -> Par.recommended_jobs () in
  { seed; quick; out_dir; jobs }

let rng_for ctx id = Random.State.make [| ctx.seed; Hashtbl.hash id |]

let dist_cell = Format.asprintf "%a" Metrics.pp_distance

(* ------------------------------------------------------------------ *)
(* Testbeds                                                           *)
(* ------------------------------------------------------------------ *)

type testbed = { name : string; graph : Graph.t; t : int }

let bed name graph t =
  assert (Connectivity.is_k_connected graph (t + 1));
  { name; graph; t }

let random_regular_bed ~rng ~n ~d =
  let graph = Random_graphs.regular ~rng n d in
  let t = Connectivity.vertex_connectivity graph - 1 in
  { name = Printf.sprintf "random-%d-regular(n=%d)" d n; graph; t }

(* ------------------------------------------------------------------ *)
(* Claim evaluation                                                   *)
(* ------------------------------------------------------------------ *)

(* (exhaustive set budget, random samples, attack evaluation budget) *)
let budgets ctx = if ctx.quick then (2_000, 60, 150) else (20_000, 300, 500)

(* Total claim lookups. Every construction ships with at least one
   claim, but if one ever does not, a diagnostic [Invalid_argument]
   naming the experiment beats [Failure "hd"] escaping to the user. *)
let leading_claim ~where (c : Construction.t) =
  match c.Construction.claims with
  | claim :: _ -> claim
  | [] ->
      invalid_arg
        (Printf.sprintf "%s: construction %s carries no claims" where
           c.Construction.name)

let nth_claim ~where (c : Construction.t) i =
  match List.nth_opt c.Construction.claims i with
  | Some claim -> claim
  | None ->
      invalid_arg
        (Printf.sprintf "%s: construction %s has no claim #%d (it has %d)"
           where c.Construction.name i
           (List.length c.Construction.claims))

let claim_headers =
  [ "graph"; "n"; "t"; "construction"; "claim"; "f"; "bound"; "worst"; "sets";
    "mode"; "atk worst"; "atk evals"; "atk wsize"; "props"; "verdict" ]

let claim_row ctx ~rng tb (c : Construction.t) (claim : Construction.claim) =
  let exhaustive_budget, samples, attack_budget = budgets ctx in
  (* The attack engine runs separately from [Tolerance.evaluate] so a
     definitive exhaustive verdict stays definitive and the search's
     own columns stay visible. *)
  let v =
    Tolerance.evaluate ~exhaustive_budget ~samples ~attack_budget:0 ~jobs:ctx.jobs ~rng
      c ~f:claim.max_faults
  in
  let atk =
    Attack.search
      ~config:{ Attack.default_config with Attack.budget = attack_budget }
      ~jobs:ctx.jobs ~rng ~pools:c.Construction.pools c.Construction.routing
      ~f:claim.max_faults
  in
  let n = Graph.n tb.graph in
  let worst_witness =
    if Attack.score ~n atk.Attack.worst > Attack.score ~n v.Tolerance.worst then
      atk.Attack.witness.nodes
    else v.Tolerance.witness.nodes
  in
  let ok =
    Tolerance.respects v ~bound:claim.diameter_bound
    && Metrics.distance_le atk.Attack.worst (Metrics.Finite claim.diameter_bound)
  in
  (* Check the lemma-level properties on the worst fault set found
     (only meaningful within the claim's fault budget). *)
  let props =
    if List.length worst_witness > claim.Construction.max_faults then "-"
    else
      let faults = Bitset.of_list n worst_witness in
      if Properties.all_hold (Properties.check c ~faults) then "hold" else "FAIL"
  in
  [
    tb.name;
    string_of_int (Graph.n tb.graph);
    string_of_int tb.t;
    c.Construction.name;
    claim.source;
    string_of_int claim.max_faults;
    string_of_int claim.diameter_bound;
    dist_cell v.Tolerance.worst;
    string_of_int v.Tolerance.sets_checked;
    (if v.Tolerance.definitive then "exhaustive" else "sampled");
    dist_cell atk.Attack.worst;
    string_of_int atk.Attack.evals;
    string_of_int (List.length atk.Attack.witness.nodes);
    props;
    (if ok && props <> "FAIL" then "ok" else "VIOLATION");
  ]

let skipped_row tb name reason =
  [ tb.name; string_of_int (Graph.n tb.graph); string_of_int tb.t; name; reason;
    "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "skipped" ]

(* ------------------------------------------------------------------ *)
(* E1 / E2: the kernel construction                                   *)
(* ------------------------------------------------------------------ *)

let kernel_beds ctx ~rng =
  let base =
    [
      bed "hypercube(3)" (Families.hypercube 3) 2;
      bed "torus(5x5)" (Families.torus 5 5) 3;
      bed "petersen" (Families.petersen ()) 2;
      bed "ccc(3)" (Families.ccc 3) 2;
    ]
  in
  if ctx.quick then base
  else
    base
    @ [
        bed "hypercube(4)" (Families.hypercube 4) 3;
        bed "butterfly(3)" (Families.butterfly 3) 3;
        random_regular_bed ~rng ~n:24 ~d:4;
      ]

let kernel_experiment ctx ~which_claim ~id =
  let rng = rng_for ctx id in
  let rows =
    List.map
      (fun tb ->
        let c = Kernel.make tb.graph ~t:tb.t in
        let claim = nth_claim ~where:id c which_claim in
        claim_row ctx ~rng tb c claim)
      (kernel_beds ctx ~rng)
  in
  rows

let e1 ctx =
  Table.make ~title:"E1 (Theorem 3): kernel routing is (max(2t,4), t)-tolerant"
    ~headers:claim_headers
    (kernel_experiment ctx ~which_claim:0 ~id:"E1")

let e2 ctx =
  Table.make ~title:"E2 (Theorem 4): kernel routing is (4, floor(t/2))-tolerant"
    ~headers:claim_headers
    (kernel_experiment ctx ~which_claim:1 ~id:"E2")

(* ------------------------------------------------------------------ *)
(* E3: circular                                                       *)
(* ------------------------------------------------------------------ *)

let circular_beds ctx ~rng =
  let base =
    [ bed "cycle(12)" (Families.cycle 12) 1; bed "ccc(4)" (Families.ccc 4) 2 ]
  in
  if ctx.quick then base
  else
    base
    @ [
        bed "grid(6x6)" (Families.grid 6 6) 1;
        bed "torus(7x7)" (Families.torus 7 7) 3;
        bed "torus(9x9)" (Families.torus 9 9) 3;
        random_regular_bed ~rng ~n:60 ~d:4;
      ]

let take k l = List.filteri (fun i _ -> i < k) l

let e3 ctx =
  let rng = rng_for ctx "E3" in
  let rows =
    List.concat_map
      (fun tb ->
        let m = Independent.best_of ~rng ~tries:30 tb.graph in
        let need = Circular.required_k ~t:tb.t in
        if List.length m < need then
          [ skipped_row tb "circular" (Printf.sprintf "K=%d < %d" (List.length m) need) ]
        else begin
          (* Two regimes: the minimal K of Lemma 9 and the full set. *)
          let ks =
            List.sort_uniq compare
              [ need; min (List.length m) ((2 * tb.t) + 1); List.length m ]
          in
          List.map
            (fun k ->
              let c = Circular.make ~m:(take k m) tb.graph ~t:tb.t in
              claim_row ctx ~rng tb c (leading_claim ~where:"E3" c))
            ks
        end)
      (circular_beds ctx ~rng)
  in
  Table.make ~title:"E3 (Theorem 10): circular routing is (6, t)-tolerant"
    ~headers:claim_headers rows
    ~notes:
      [
        "each testbed is run at the minimal K of Lemma 9, at K=2t+1 (Lemma 7) and \
         at the full neighborhood set found";
      ]

(* ------------------------------------------------------------------ *)
(* E4 / E5: tri-circular                                              *)
(* ------------------------------------------------------------------ *)

let tri_experiment ctx ~variant ~id ~title ~beds =
  let rng = rng_for ctx id in
  let rows =
    List.map
      (fun tb ->
        let m = Independent.best_of ~rng ~tries:30 tb.graph in
        let need = Tri_circular.required_k ~t:tb.t ~variant in
        if List.length m < need then
          skipped_row tb "tri-circular" (Printf.sprintf "K=%d < %d" (List.length m) need)
        else
          let c = Tri_circular.make ~m tb.graph ~t:tb.t ~variant in
          claim_row ctx ~rng tb c (leading_claim ~where:id c))
      beds
  in
  Table.make ~title ~headers:claim_headers rows

let e4 ctx =
  let rng = rng_for ctx "E4-beds" in
  let beds =
    if ctx.quick then [ bed "cycle(45)" (Families.cycle 45) 1 ]
    else
      [
        bed "cycle(45)" (Families.cycle 45) 1;
        bed "ccc(5)" (Families.ccc 5) 2;
        bed "torus(15x15)" (Families.torus 15 15) 3;
        random_regular_bed ~rng ~n:160 ~d:3;
      ]
  in
  tri_experiment ctx ~variant:Tri_circular.Full ~id:"E4"
    ~title:"E4 (Theorem 13): tri-circular routing is (4, t)-tolerant (K >= 6t+9)"
    ~beds

let e5 ctx =
  let beds =
    if ctx.quick then [ bed "cycle(27)" (Families.cycle 27) 1 ]
    else
      [
        bed "cycle(27)" (Families.cycle 27) 1;
        bed "ccc(4)" (Families.ccc 4) 2;
        bed "torus(10x10)" (Families.torus 10 10) 3;
      ]
  in
  tri_experiment ctx ~variant:Tri_circular.Small ~id:"E5"
    ~title:"E5 (Remark 14): small tri-circular routing is (5, t)-tolerant (K >= 3(t+1)/3(t+2))"
    ~beds

(* ------------------------------------------------------------------ *)
(* E6 / E7: bipolar                                                   *)
(* ------------------------------------------------------------------ *)

let bipolar_beds ctx ~rng =
  let base = [ bed "cycle(12)" (Families.cycle 12) 1; bed "cycle(16)" (Families.cycle 16) 1 ] in
  if ctx.quick then base
  else base @ [ bed "ccc(5)" (Families.ccc 5) 2; random_regular_bed ~rng ~n:60 ~d:3 ]

let bipolar_experiment ctx ~make ~id ~title =
  let rng = rng_for ctx id in
  let rows =
    List.map
      (fun tb ->
        match Two_trees.find tb.graph with
        | None -> skipped_row tb "bipolar" "no two-trees roots"
        | Some roots ->
            let c = make ~roots tb.graph ~t:tb.t in
            claim_row ctx ~rng tb c (leading_claim ~where:id c))
      (bipolar_beds ctx ~rng)
  in
  Table.make ~title ~headers:claim_headers rows

let e6 ctx =
  bipolar_experiment ctx ~id:"E6"
    ~make:(fun ~roots g ~t -> Bipolar.make_unidirectional ~roots g ~t)
    ~title:"E6 (Theorem 20): unidirectional bipolar routing is (4, t)-tolerant"

let e7 ctx =
  bipolar_experiment ctx ~id:"E7"
    ~make:(fun ~roots g ~t -> Bipolar.make_bidirectional ~roots g ~t)
    ~title:"E7 (Theorem 23): bidirectional bipolar routing is (5, t)-tolerant"

(* ------------------------------------------------------------------ *)
(* E8: Lemma 15 / Corollary 17                                        *)
(* ------------------------------------------------------------------ *)

let e8 ctx =
  let graphs =
    [
      ("cycle(30)", Families.cycle 30);
      ("grid(8x8)", Families.grid 8 8);
      ("torus(8x8)", Families.torus 8 8);
      ("hypercube(4)", Families.hypercube 4);
      ("hypercube(6)", Families.hypercube 6);
      ("ccc(4)", Families.ccc 4);
      ("ccc(5)", Families.ccc 5);
      ("butterfly(4)", Families.butterfly 4);
      ("de_bruijn(6)", Families.de_bruijn 6);
      ("shuffle_exchange(6)", Families.shuffle_exchange 6);
      ("petersen", Families.petersen ());
    ]
    @ (if ctx.quick then [] else [ ("torus3(5x5x5)", Families.torus3 5 5 5) ])
  in
  let rows =
    List.map
      (fun (name, g) ->
        let n = Graph.n g and d = Graph.max_degree g in
        let k = List.length (Independent.greedy g) in
        let bound = Independent.greedy_bound g in
        let cbrt = float_of_int n ** (1.0 /. 3.0) in
        let circ = float_of_int d < Independent.circular_threshold *. cbrt in
        let tri = float_of_int d < Independent.tri_circular_threshold *. cbrt in
        [
          name;
          string_of_int n;
          string_of_int d;
          string_of_int k;
          string_of_int bound;
          (if k >= bound then "ok" else "VIOLATION");
          (if circ then "yes" else "no");
          (if tri then "yes" else "no");
        ])
      graphs
  in
  Table.make
    ~title:"E8 (Lemma 15 / Corollary 17): greedy neighborhood sets vs ceil(n/(d^2+1))"
    ~headers:[ "graph"; "n"; "maxdeg"; "greedy K"; "bound"; "K>=bound";
               "d<0.79 n^1/3"; "d<0.46 n^1/3" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9: Lemma 24 / Theorem 25                                          *)
(* ------------------------------------------------------------------ *)

let e9 ctx =
  let rng = rng_for ctx "E9" in
  let sizes = if ctx.quick then [ 64; 128 ] else [ 64; 128; 256; 512 ] in
  let epsilons = [ 0.05; 0.15; 0.25 ] in
  let trials = if ctx.quick then 10 else 40 in
  let rows =
    List.map
      (fun (n, eps) ->
        let p = (float_of_int n ** eps) /. float_of_int n in
        let weak = ref 0 and formal = ref 0 in
        for _ = 1 to trials do
          let g = Random_graphs.gnp ~rng n p in
          (match Two_trees.find_weak g with Some _ -> incr weak | None -> ());
          match Two_trees.find g with Some _ -> incr formal | None -> ()
        done;
        [
          string_of_int n;
          Sweep.float_cell eps;
          Printf.sprintf "%.4f" p;
          Sweep.ratio_cell !weak trials;
          Sweep.ratio_cell !formal trials;
        ])
      (Sweep.cartesian sizes epsilons)
  in
  Table.make
    ~title:
      "E9 (Lemma 24 / Theorem 25): frequency of the two-trees property in G(n,p), \
       p = n^eps / n"
    ~headers:[ "n"; "eps"; "p"; "prose (dist>=4)"; "formal (disjoint)" ]
    ~notes:
      [
        "Lemma 24 predicts probability -> 1 as n grows for eps < 1/4; the formal \
         definition is slightly stronger (see DESIGN.md)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E10 / E11: multiroutings                                           *)
(* ------------------------------------------------------------------ *)

let multi_worst mt ~f =
  let n = Graph.n (Multirouting.graph mt) in
  let worst = ref (Metrics.Finite 0) in
  let count = ref 0 in
  Seq.iter
    (fun faults_list ->
      incr count;
      let faults = Bitset.of_list n faults_list in
      worst := Metrics.max_distance !worst (Multirouting.diameter mt ~faults))
    (Tolerance.subsets_up_to (List.init n Fun.id) f);
  (!worst, !count)

let multi_headers = [ "graph"; "n"; "t"; "scheme"; "bound"; "worst"; "sets"; "width"; "verdict" ]

let multi_row tb scheme ~bound mt ~f =
  let worst, count = multi_worst mt ~f in
  let ok = Metrics.distance_le worst (Metrics.Finite bound) in
  [
    tb.name;
    string_of_int (Graph.n tb.graph);
    string_of_int tb.t;
    scheme;
    string_of_int bound;
    dist_cell worst;
    string_of_int count;
    string_of_int (Multirouting.max_width mt);
    (if ok then "ok" else "VIOLATION");
  ]

let small_beds ctx =
  let base = [ bed "cycle(8)" (Families.cycle 8) 1; bed "petersen" (Families.petersen ()) 2 ] in
  if ctx.quick then base
  else
    base
    @ [ bed "hypercube(3)" (Families.hypercube 3) 2; bed "complete(5)" (Families.complete 5) 3 ]

let e10 ctx =
  let rows =
    List.map
      (fun tb -> multi_row tb "full multirouting" ~bound:1 (Multirouting.full tb.graph ~t:tb.t) ~f:tb.t)
      (small_beds ctx)
  in
  Table.make
    ~title:"E10 (Section 6, obs. 1): t+1 parallel routes give surviving diameter 1"
    ~headers:multi_headers rows

let e11 ctx =
  let beds = List.filter (fun tb -> tb.name <> "complete(5)") (small_beds ctx) in
  let rows =
    List.concat_map
      (fun tb ->
        let kp, _ = Multirouting.kernel_plus tb.graph ~t:tb.t in
        let mu, _ = Multirouting.mult tb.graph ~t:tb.t in
        [
          multi_row tb "kernel + multi-M" ~bound:3 kp ~f:tb.t;
          (* Observation (3) states no explicit bound; we record the
             measured worst against the bipolar-like 4. *)
          multi_row tb "MULT 1-3 (width 2)" ~bound:4 mu ~f:tb.t;
        ])
      beds
  in
  Table.make
    ~title:"E11 (Section 6, obs. 2-3): kernel+concentrator multiroutes (<=3) and MULT"
    ~headers:multi_headers rows

(* ------------------------------------------------------------------ *)
(* E12: augmentation                                                  *)
(* ------------------------------------------------------------------ *)

let e12 ctx =
  let rng = rng_for ctx "E12" in
  let beds =
    [ bed "cycle(12)" (Families.cycle 12) 1; bed "ccc(3)" (Families.ccc 3) 2 ]
    @
    if ctx.quick then []
    else [ bed "torus(5x5)" (Families.torus 5 5) 3; bed "hypercube(3)" (Families.hypercube 3) 2 ]
  in
  let exhaustive_budget, samples, _ = budgets ctx in
  let rows =
    List.map
      (fun tb ->
        let r = Augment.clique_concentrator tb.graph ~t:tb.t in
        let claim = leading_claim ~where:"E12" r.Augment.construction in
        let v =
          Tolerance.evaluate ~exhaustive_budget ~samples ~attack_budget:0 ~jobs:ctx.jobs
            ~rng r.Augment.construction ~f:claim.Construction.max_faults
        in
        let cap = tb.t * (tb.t + 1) / 2 in
        let ok =
          Tolerance.respects v ~bound:claim.Construction.diameter_bound
          && List.length r.Augment.added <= cap
        in
        [
          tb.name;
          string_of_int (Graph.n tb.graph);
          string_of_int tb.t;
          string_of_int (List.length r.Augment.added);
          string_of_int cap;
          dist_cell v.Tolerance.worst;
          string_of_int v.Tolerance.sets_checked;
          (if v.Tolerance.definitive then "exhaustive" else "sampled");
          (if ok then "ok" else "VIOLATION");
        ])
      beds
  in
  Table.make
    ~title:"E12 (Section 6): concentrator clique gives a (3, t)-tolerant routing"
    ~headers:[ "graph"; "n"; "t"; "edges added"; "cap t(t+1)/2"; "worst"; "sets"; "mode"; "verdict" ]
    rows

(* ------------------------------------------------------------------ *)
(* F1-F3: figures                                                     *)
(* ------------------------------------------------------------------ *)

exception Write_failed of string

(* A directory that cannot be made surfaces as the failed write of the
   file inside it. *)
let ensure_dir dir = if not (Sys.file_exists dir) then try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let write_figure ctx ~file contents =
  match ctx.out_dir with
  | None -> "not written (no --out-dir)"
  | Some dir ->
      ensure_dir dir;
      let path = Filename.concat dir file in
      if Ftr_obs.Output.write_file path contents then path else raise (Write_failed path)

let figure_headers = [ "figure"; "graph"; "groups"; "file" ]

let f1 ctx =
  let g = Families.cycle 15 in
  let c = Circular.make g ~t:1 in
  let m = c.Construction.concentrator in
  let groups =
    ("M", m)
    :: List.mapi
         (fun i mi -> (Printf.sprintf "Gamma_%d" i, Array.to_list (Graph.neighbors g mi)))
         m
  in
  let dot = Dot.with_colored_groups ~name:"circular" ~groups g in
  let file = write_figure ctx ~file:"fig1_circular.dot" dot in
  Table.make ~title:"F1 (Figure 1): the circular routing's concentrator structure"
    ~headers:figure_headers
    [ [ "Figure 1"; "cycle(15)"; string_of_int (List.length groups); file ] ]

let f2 ctx =
  let g = Families.cycle 27 in
  let c = Tri_circular.make g ~t:1 ~variant:Tri_circular.Small in
  let m = Array.of_list c.Construction.concentrator in
  let ring = Array.length m / 3 in
  let groups =
    List.init 3 (fun j ->
        ( Printf.sprintf "M^%d" j,
          List.concat
            (List.init ring (fun i ->
                 let mi = m.((j * ring) + i) in
                 mi :: Array.to_list (Graph.neighbors g mi))) ))
  in
  let dot = Dot.with_colored_groups ~name:"tri_circular" ~groups g in
  let file = write_figure ctx ~file:"fig2_tri_circular.dot" dot in
  Table.make ~title:"F2 (Figure 2): the tri-circular routing's three rings"
    ~headers:figure_headers
    [ [ "Figure 2"; "cycle(27)"; "3 rings"; file ] ]

let f3 ctx =
  let g = Families.cycle 16 in
  match Two_trees.find g with
  | None -> Table.make ~title:"F3 (Figure 3)" ~headers:figure_headers []
  | Some (r1, r2) ->
      let m1 = Array.to_list (Graph.neighbors g r1) in
      let m2 = Array.to_list (Graph.neighbors g r2) in
      let fringe ms root =
        List.concat_map
          (fun m -> List.filter (fun v -> v <> root) (Array.to_list (Graph.neighbors g m)))
          ms
      in
      let groups =
        [
          ("r1", [ r1 ]); ("r2", [ r2 ]); ("M1", m1); ("M2", m2);
          ("Gamma_1", fringe m1 r1); ("Gamma_2", fringe m2 r2);
        ]
      in
      let dot = Dot.with_colored_groups ~name:"bipolar" ~groups g in
      let file = write_figure ctx ~file:"fig3_bipolar.dot" dot in
      Table.make ~title:"F3 (Figure 3): the bipolar routing's two trees"
        ~headers:figure_headers
        [ [ "Figure 3"; "cycle(16)"; "r1/r2/M1/M2/fringes"; file ] ]

(* ------------------------------------------------------------------ *)
(* S1: the simulator scenario                                         *)
(* ------------------------------------------------------------------ *)

let s1 ctx =
  let rng = rng_for ctx "S1" in
  let scenarios =
    let torus = Families.torus 7 7 in
    let base = [ ("kernel/torus(7x7)", Kernel.make torus ~t:3, 3) ] in
    if ctx.quick then base
    else
      base
      @ [
          ("circular/torus(9x9)", Circular.make (Families.torus 9 9) ~t:3, 3);
          ("bipolar-bi/cycle(16)", Bipolar.make_bidirectional (Families.cycle 16) ~t:1, 1);
        ]
  in
  let rows =
    List.map
      (fun (name, c, f) ->
        let net = Fault_model.create c.Construction.routing in
        let n = Graph.n (Routing.graph c.Construction.routing) in
        let sim = Ftr_sim.Sim.create () in
        let config = Ftr_sim.Protocol.default_config in
        (* Crash f random nodes at time 50, send traffic throughout. *)
        Ftr_sim.Faults.schedule_on sim net
          (Ftr_sim.Faults.random_crashes ~rng ~n ~count:f ~window:(50.0, 50.0));
        let entries =
          Ftr_sim.Workload.uniform ~rng ~n ~count:(if ctx.quick then 100 else 400)
            ~horizon:200.0
        in
        let messages = Ftr_sim.Protocol.deliver_all sim net config entries in
        let delivered =
          List.filter (fun m -> m.Ftr_sim.Message.status = Ftr_sim.Message.Delivered) messages
        in
        let routes = List.map (fun m -> m.Ftr_sim.Message.routes_traversed) delivered in
        let summary =
          match Ftr_sim.Stats.of_ints routes with
          | Some s -> s
          | None -> { Ftr_sim.Stats.count = 0; mean = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.; p99 = 0. }
        in
        let diam = Fault_model.diameter net in
        let bcast =
          let origin =
            let rec first v = if Fault_model.is_faulty net v then first (v + 1) else v in
            first 0
          in
          Ftr_sim.Protocol.broadcast net ~origin
            ~counter_bound:
              (match diam with Metrics.Finite d -> d | Metrics.Infinite -> n)
        in
        [
          name;
          string_of_int n;
          string_of_int f;
          Printf.sprintf "%d/%d" (List.length delivered) (List.length messages);
          Printf.sprintf "%.2f" summary.Ftr_sim.Stats.mean;
          Printf.sprintf "%.0f" summary.Ftr_sim.Stats.max;
          dist_cell diam;
          string_of_int bcast.Ftr_sim.Protocol.rounds;
          string_of_int bcast.Ftr_sim.Protocol.reached;
        ])
      scenarios
  in
  Table.make
    ~title:
      "S1 (Section 1): transmission cost ~ routes traversed; broadcast rebuild within \
       the surviving diameter"
    ~headers:
      [ "scenario"; "n"; "crashes"; "delivered"; "mean routes"; "max routes";
        "surv diam"; "bcast rounds"; "bcast reached" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13: open problem 3 — behaviour beyond the connectivity bound      *)
(* ------------------------------------------------------------------ *)

let e13 ctx =
  let rng = rng_for ctx "E13" in
  let beds =
    [ bed "cycle(12)" (Families.cycle 12) 1; bed "torus(5x5)" (Families.torus 5 5) 3 ]
    @ (if ctx.quick then [] else [ bed "ccc(4)" (Families.ccc 4) 2 ])
  in
  let samples = if ctx.quick then 100 else 400 in
  let rows =
    List.concat_map
      (fun tb ->
        let c = Kernel.make tb.graph ~t:tb.t in
        let n = Graph.n tb.graph in
        List.map
          (fun extra ->
            let f = tb.t + extra in
            let worst = ref (Metrics.Finite 0) in
            let disconnected = ref 0 in
            for _ = 1 to samples do
              let faults =
                Bitset.of_list n
                  (List.sort_uniq compare
                     (List.init f (fun _ -> Random.State.int rng n)))
              in
              let comps = Surviving.component_diameters c.Construction.routing ~faults in
              if List.length comps > 1 then incr disconnected;
              List.iter
                (fun (members, d) ->
                  if List.length members > 1 then
                    worst := Metrics.max_distance !worst d)
                comps
            done;
            [
              tb.name;
              string_of_int n;
              string_of_int tb.t;
              string_of_int f;
              string_of_int samples;
              string_of_int !disconnected;
              dist_cell !worst;
            ])
          [ 1; 2; 3 ])
      beds
  in
  Table.make
    ~title:
      "E13 (Section 7, open problem 3): kernel routing beyond t faults - diameters \
       inside surviving components"
    ~headers:[ "graph"; "n"; "t"; "f"; "samples"; "disconnected"; "worst comp diam" ]
    ~notes:
      [
        "the paper leaves open whether routings stay well behaved per component once \
         faults exceed the connectivity; 'worst comp diam' is the largest internal \
         diameter observed over any multi-node surviving component (Infinite means a \
         component whose members could not all reach each other through surviving \
         routes)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E14: the minimal-path baseline (cf. Feldman 1985)                  *)
(* ------------------------------------------------------------------ *)

let worst_of ctx ~rng routing ~pools ~f =
  let exhaustive_budget, samples, _ = budgets ctx in
  let n = Graph.n (Routing.graph routing) in
  if Tolerance.count_subsets_up_to ~n ~k:f <= exhaustive_budget then
    Tolerance.exhaustive ~jobs:ctx.jobs routing ~f
  else
    let adv = Tolerance.adversarial ~jobs:ctx.jobs routing ~f ~pools in
    let rnd = Tolerance.random ~jobs:ctx.jobs routing ~f ~rng ~samples in
    {
      rnd with
      Tolerance.worst = Metrics.max_distance adv.Tolerance.worst rnd.Tolerance.worst;
      sets_checked = adv.Tolerance.sets_checked + rnd.Tolerance.sets_checked;
      definitive = false;
    }

let e14 ctx =
  let rng = rng_for ctx "E14" in
  let beds =
    [ bed "cycle(16)" (Families.cycle 16) 1; bed "torus(5x5)" (Families.torus 5 5) 3 ]
    @
    if ctx.quick then []
    else [ bed "ccc(4)" (Families.ccc 4) 2; bed "torus(7x7)" (Families.torus 7 7) 3 ]
  in
  let rows =
    List.concat_map
      (fun tb ->
        let paper = Builder.auto ~rng:(rng_for ctx "E14-build") tb.graph in
        let pc = paper.Builder.construction in
        let claim = Construction.strongest_claim pc in
        let baseline = Minimal_routing.make tb.graph in
        let scheme name (routing : Routing.t) pools bound_cell =
          let v = worst_of ctx ~rng routing ~pools ~f:tb.t in
          [
            tb.name;
            string_of_int (Graph.n tb.graph);
            string_of_int tb.t;
            name;
            bound_cell;
            dist_cell v.Tolerance.worst;
            string_of_int v.Tolerance.sets_checked;
            Printf.sprintf "%.2f" (Routing.stretch routing);
          ]
        in
        [
          scheme pc.Construction.name pc.Construction.routing pc.Construction.pools
            (string_of_int claim.Construction.diameter_bound);
          scheme baseline.Construction.name baseline.Construction.routing
            [ pc.Construction.concentrator ]
            "none";
        ])
      beds
  in
  Table.make
    ~title:
      "E14 (baseline, cf. Feldman 1985): minimal-path routing vs the paper's \
       construction, worst surviving diameter with up to t faults"
    ~headers:[ "graph"; "n"; "t"; "scheme"; "claimed"; "worst"; "sets"; "stretch" ]
    ~notes:
      [
        "the baseline promises nothing: with fixed shortest paths the surviving \
         diameter is whatever the fault pattern leaves (Feldman's analysis is \
         worst-case over graphs); the constructions trade longer routes (stretch) \
         for a constant bound";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E15: the hypercube reference point of the introduction             *)
(* ------------------------------------------------------------------ *)

let e15 ctx =
  let dims = if ctx.quick then [ 3 ] else [ 3; 4 ] in
  let rows =
    List.concat_map
      (fun d ->
        let t = d - 1 in
        let row (c : Construction.t) =
          let v = Tolerance.exhaustive c.Construction.routing ~f:t in
          [
            Printf.sprintf "hypercube(%d)" d;
            string_of_int (1 lsl d);
            string_of_int t;
            c.Construction.name;
            dist_cell v.Tolerance.worst;
            string_of_int v.Tolerance.sets_checked;
          ]
        in
        [ row (Hypercube_routing.ecube d); row (Hypercube_routing.ecube_bidirectional d) ])
      dims
  in
  Table.make
    ~title:
      "E15 (introduction): dimension-ordered hypercube routings under d-1 faults \
       (Dolev et al. 1984 constructed routings achieving 2 / 3)"
    ~headers:[ "graph"; "n"; "t"; "scheme"; "worst"; "sets" ]
    ~notes:
      [
        "e-cube is the natural concrete routing; the 2/3 bounds of Dolev et al. \
         need their tailored construction, so e-cube's measured worst is the \
         gap this paper's general constructions compete against";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E16: kernel growth with t vs the constant-bound constructions      *)
(* ------------------------------------------------------------------ *)

let e16 ctx =
  let rng = rng_for ctx "E16" in
  (* Families with growing connectivity where only the kernel applies
     (neighborhood sets are too small, 4-cycles kill the two-trees
     property): exactly the dense regime of open problem 1. *)
  let beds =
    [
      bed "hypercube(3)" (Families.hypercube 3) 2;
      bed "hypercube(4)" (Families.hypercube 4) 3;
      bed "hypercube(5)" (Families.hypercube 5) 4;
    ]
    @
    if ctx.quick then []
    else [ bed "hypercube(6)" (Families.hypercube 6) 5; bed "torus3(4x4x4)" (Families.torus3 4 4 4) 5 ]
  in
  let rows =
    List.map
      (fun tb ->
        let c = Kernel.make tb.graph ~t:tb.t in
        let v = worst_of ctx ~rng c.Construction.routing ~pools:c.Construction.pools ~f:tb.t in
        let half = tb.t / 2 in
        let vh =
          worst_of ctx ~rng c.Construction.routing ~pools:c.Construction.pools ~f:half
        in
        [
          tb.name;
          string_of_int (Graph.n tb.graph);
          string_of_int tb.t;
          string_of_int (max (2 * tb.t) 4);
          dist_cell v.Tolerance.worst;
          string_of_int half;
          dist_cell vh.Tolerance.worst;
          string_of_int (v.Tolerance.sets_checked + vh.Tolerance.sets_checked);
        ])
      beds
  in
  Table.make
    ~title:
      "E16 (open problem 1 motivation): kernel surviving diameter as t grows, \
       where no constant-bound construction applies"
    ~headers:
      [ "graph"; "n"; "t"; "2t bound"; "worst@f=t"; "t/2"; "worst@f=t/2"; "sets" ]
    ~notes:
      [
        "on dense families (degree >= n^(1/3)) only the kernel applies; the paper's \
         open problem 1 asks whether constant-diameter routings exist there at all. \
         Theorem 4's constant 4 at half the fault budget is visible in the last \
         columns";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E17: ablation of the fault-search methodology                      *)
(* ------------------------------------------------------------------ *)

let e17 ctx =
  let rng = rng_for ctx "E17" in
  let beds =
    [
      ("kernel", bed "torus(5x5)" (Families.torus 5 5) 3, fun tb -> Kernel.make tb.graph ~t:tb.t);
      ( "circular",
        bed "ccc(4)" (Families.ccc 4) 2,
        fun tb -> Circular.make tb.graph ~t:tb.t );
    ]
    @
    if ctx.quick then []
    else
      [
        ( "bipolar/uni",
          bed "ccc(5)" (Families.ccc 5) 2,
          fun tb -> Bipolar.make_unidirectional tb.graph ~t:tb.t );
      ]
  in
  let rows =
    List.concat_map
      (fun (label, tb, build) ->
        let c = build tb in
        let routing = c.Construction.routing in
        let n = Graph.n tb.graph in
        let truth =
          if Tolerance.count_subsets_up_to ~n ~k:tb.t <= 30_000 then
            Some (Tolerance.exhaustive routing ~f:tb.t)
          else None
        in
        let adv = Tolerance.adversarial routing ~f:tb.t ~pools:c.Construction.pools in
        let rnd = Tolerance.random routing ~f:tb.t ~rng ~samples:adv.Tolerance.sets_checked in
        let cell name (v : Tolerance.verdict) =
          [
            tb.name; label; name; dist_cell v.Tolerance.worst;
            string_of_int v.Tolerance.sets_checked;
          ]
        in
        (match truth with Some v -> [ cell "exhaustive (truth)" v ] | None -> [])
        @ [ cell "adversarial pools" adv; cell "uniform random" rnd ])
      beds
  in
  Table.make
    ~title:
      "E17 (methodology ablation): do the proof-guided adversarial pools find the \
       worst fault sets?"
    ~headers:[ "graph"; "construction"; "search"; "worst found"; "sets" ]
    ~notes:
      [
        "uniform random search gets the same budget as the adversarial pools; the \
         pools target the structures the proofs identify (concentrator members, \
         single neighborhoods, minimum cuts)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* S2: endpoint queueing under hotspot load                           *)
(* ------------------------------------------------------------------ *)

let s2 ctx =
  let rng = rng_for ctx "S2" in
  let g = Families.torus 7 7 in
  let c = Kernel.make g ~t:3 in
  let n = Graph.n g in
  let count = if ctx.quick then 200 else 600 in
  let fractions = [ 0.0; 0.3; 0.6; 0.9 ] in
  let rows =
    List.map
      (fun fraction ->
        let net = Fault_model.create c.Construction.routing in
        let sim = Ftr_sim.Sim.create () in
        let servers =
          Ftr_sim.Queueing.create ~n
            ~service_time:Ftr_sim.Protocol.default_config.endpoint_overhead
        in
        let entries =
          Ftr_sim.Workload.hotspot ~rng ~n ~hub:0 ~fraction ~count ~horizon:400.0
        in
        let messages =
          Ftr_sim.Protocol.deliver_all_queued sim net servers
            Ftr_sim.Protocol.default_config entries
        in
        let latencies = List.filter_map Ftr_sim.Message.latency messages in
        let summary =
          match Ftr_sim.Stats.summarize latencies with
          | Some s -> s
          | None ->
              { Ftr_sim.Stats.count = 0; mean = 0.; min = 0.; max = 0.; p50 = 0.;
                p95 = 0.; p99 = 0. }
        in
        let hub_jobs = Ftr_sim.Queueing.served_at servers 0 in
        [
          Printf.sprintf "%.0f%%" (100.0 *. fraction);
          string_of_int (List.length messages);
          Printf.sprintf "%.1f" summary.Ftr_sim.Stats.mean;
          Printf.sprintf "%.0f" summary.Ftr_sim.Stats.p95;
          Printf.sprintf "%.0f" summary.Ftr_sim.Stats.max;
          string_of_int hub_jobs;
          Printf.sprintf "%.1f" (Ftr_sim.Queueing.total_wait servers);
        ])
      fractions
  in
  Table.make
    ~title:
      "S2 (Section 1 cost model under load): endpoint queueing as traffic \
       concentrates on one node (torus 7x7, kernel routing)"
    ~headers:
      [ "to-hub fraction"; "messages"; "mean latency"; "p95"; "max"; "hub jobs";
        "total queue wait" ]
    ~notes:
      [
        "endpoint processing is a shared per-node resource here; as the hotspot \
         fraction grows, latency is dominated by queueing at the hub rather than \
         by route counts - the regime where the paper's constant-route guarantees \
         stop being the bottleneck";
        "note the hub is busy even at fraction 0: concentrator members are \
         waypoints of most multi-route plans, so this routing style concentrates \
         load by design - the flip side of routing through a small set M";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E18: design ablation — the circular window                         *)
(* ------------------------------------------------------------------ *)

let e18 ctx =
  let rng = rng_for ctx "E18" in
  let beds =
    [ bed "ccc(4)" (Families.ccc 4) 2 ]
    @ if ctx.quick then [] else [ bed "torus(7x7)" (Families.torus 7 7) 3 ]
  in
  let rows =
    List.concat_map
      (fun tb ->
        let m = Independent.best_of ~rng:(rng_for ctx "E18-m") ~tries:30 tb.graph in
        let k = List.length m in
        let max_window = ((k + 1) / 2) - 1 in
        List.map
          (fun w ->
            let c = Circular.make ~m ~window:w tb.graph ~t:tb.t in
            let v = worst_of ctx ~rng c.Construction.routing ~pools:c.Construction.pools ~f:tb.t in
            let within = Tolerance.respects v ~bound:6 in
            [
              tb.name;
              string_of_int tb.t;
              string_of_int k;
              string_of_int w;
              string_of_int (Routing.route_count c.Construction.routing);
              dist_cell v.Tolerance.worst;
              string_of_int v.Tolerance.sets_checked;
              (if within then "<= 6" else "EXCEEDS 6");
            ])
          (List.init max_window (fun i -> i + 1)))
      beds
  in
  Table.make
    ~title:
      "E18 (design ablation): shrinking the circular routing's CIRC 2 window - \
       route-table size vs fault tolerance"
    ~headers:[ "graph"; "t"; "K"; "window"; "routes"; "worst"; "sets"; "vs bound" ]
    ~notes:
      [
        "the paper's window is ceil(K/2)-1; a fringe node with window w can only \
         reach w+1 concentrator members directly, so once w+1 <= t a fault set \
         can isolate it from all of them and the Theorem 10 argument collapses - \
         the ablation shows where that actually starts costing diameter";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E19: open problem 2 — O(t) added edges instead of the clique       *)
(* ------------------------------------------------------------------ *)

let e19 ctx =
  let rng = rng_for ctx "E19" in
  let beds =
    [ bed "cycle(12)" (Families.cycle 12) 1; bed "ccc(3)" (Families.ccc 3) 2 ]
    @
    if ctx.quick then []
    else [ bed "torus(5x5)" (Families.torus 5 5) 3; bed "hypercube(4)" (Families.hypercube 4) 3 ]
  in
  let rows =
    List.concat_map
      (fun tb ->
        let scheme (r : Augment.result) =
          let c = r.Augment.construction in
          let v =
            worst_of ctx ~rng c.Construction.routing ~pools:c.Construction.pools ~f:tb.t
          in
          [
            tb.name;
            string_of_int tb.t;
            c.Construction.name;
            string_of_int (List.length r.Augment.added);
            dist_cell v.Tolerance.worst;
            string_of_int v.Tolerance.sets_checked;
          ]
        in
        [
          scheme (Augment.clique_concentrator tb.graph ~t:tb.t);
          scheme (Augment.ring_concentrator tb.graph ~t:tb.t);
        ])
      beds
  in
  Table.make
    ~title:
      "E19 (Section 7, open problem 2): a ring on the concentrator (O(t) added \
       edges) vs the clique (O(t^2))"
    ~headers:[ "graph"; "t"; "scheme"; "edges added"; "worst"; "sets" ]
    ~notes:
      [
        "the paper asks whether a (c, t)-tolerant routing can be had for O(t) \
         added links; the ring is the natural candidate - its measured worst is \
         an empirical data point, not a theorem";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E20: the attack engine vs exhaustive truth and uniform random      *)
(* ------------------------------------------------------------------ *)

let e20 ctx =
  let _, samples, _ = budgets ctx in
  let runs = if ctx.quick then 5 else 10 in
  (* Small instances where exhaustive enumeration gives the ground
     truth: does the search (default config) reach it from every seed? *)
  let instances =
    [
      ("hypercube(3)/kernel", Kernel.make (Families.hypercube 3) ~t:2, 2);
      ("ccc(3)/kernel", Kernel.make (Families.ccc 3) ~t:2, 2);
      ( "cycle(12)/bipolar-uni",
        Bipolar.make_unidirectional (Families.cycle 12) ~t:1,
        1 );
    ]
  in
  let small_rows =
    List.map
      (fun (name, c, f) ->
        let routing = c.Construction.routing in
        let n = Graph.n (Routing.graph routing) in
        let truth = Tolerance.exhaustive routing ~f in
        let hits = ref 0 and evals = ref 0 and best = ref (Metrics.Finite 0) in
        for i = 1 to runs do
          let rng = Random.State.make [| ctx.seed; Hashtbl.hash "E20"; i |] in
          let o = Attack.search ~jobs:ctx.jobs ~rng ~pools:c.Construction.pools routing ~f in
          if Attack.score ~n o.Attack.worst >= Attack.score ~n truth.Tolerance.worst
          then incr hits;
          evals := !evals + o.Attack.evals;
          best := Metrics.max_distance !best o.Attack.worst
        done;
        [
          name;
          string_of_int n;
          string_of_int f;
          dist_cell truth.Tolerance.worst;
          Printf.sprintf "%d/%d" !hits runs;
          dist_cell !best;
          "-";
          string_of_int (!evals / runs);
        ])
      instances
  in
  (* One instance beyond the exhaustive budget (grid(15x15) at f=2 has
     ~25.4k fault sets): guided search vs uniform sampling. *)
  let large_row =
    let g = Families.grid 15 15 in
    let c = Kernel.make g ~t:1 in
    let routing = c.Construction.routing in
    let f = 2 in
    let rng = rng_for ctx "E20-large" in
    let o = Attack.search ~jobs:ctx.jobs ~rng ~pools:c.Construction.pools routing ~f in
    let rnd = Tolerance.random ~jobs:ctx.jobs routing ~f ~rng ~samples in
    [
      "grid(15x15)/kernel";
      string_of_int (Graph.n g);
      string_of_int f;
      "infeasible";
      "-";
      dist_cell o.Attack.worst;
      dist_cell rnd.Tolerance.worst;
      string_of_int o.Attack.evals;
    ]
  in
  Table.make
    ~title:
      "E20 (attack engine): pool-seeded hill-climbing with annealing escapes vs \
       exhaustive truth and uniform random search"
    ~headers:
      [ "instance"; "n"; "f"; "exhaustive worst"; "hits"; "attack worst";
        "random worst"; "evals/run" ]
    ~notes:
      [
        "'hits' counts seeded default-config runs whose worst matches the \
         exhaustive worst-case diameter; on grid(15x15) the search is seeded by \
         the minimum-cut pool and finds a disconnecting fault pair that uniform \
         sampling misses";
      ]
    (small_rows @ [ large_row ])

(* ------------------------------------------------------------------ *)
(* E21: the paper's edge-fault reduction under true link faults       *)
(* ------------------------------------------------------------------ *)

(* The paper covers faulty edges by declaring one endpoint faulty and
   notes this "can only weaken our results". E21 checks the claim
   empirically on the witness-corpus constructions: for every edge
   fault set, the surviving diameter under the true link faults must
   not exceed the diameter under the endpoint projection — both
   exhaustively for small sets and on adversarially chosen large
   ones. *)
let e21 ctx =
  let exhaustive_budget, _, attack_budget = budgets ctx in
  let instances =
    [
      ("hypercube(3)/kernel", Kernel.make (Families.hypercube 3) ~t:2);
      ("ccc(3)/kernel", Kernel.make (Families.ccc 3) ~t:2);
      ( "cycle(12)/bipolar-uni",
        Bipolar.make_unidirectional (Families.cycle 12) ~t:1 );
      ("torus(5x5)/kernel", Kernel.make (Families.torus 5 5) ~t:3);
      ("grid(15x15)/kernel", Kernel.make (Families.grid 15 15) ~t:1);
    ]
  in
  let rows =
    List.map
      (fun (name, c) ->
        let routing = c.Construction.routing in
        let g = Routing.graph routing in
        let n = Graph.n g and m = Graph.m g in
        (* Largest f <= 2 whose <= f edge sets fit the exhaustive
           budget (each set costs two diameter evaluations). *)
        let f =
          if 2 * Tolerance.count_subsets_up_to ~n:m ~k:2 <= exhaustive_budget
          then 2
          else 1
        in
        let red = Tolerance.reduction ~jobs:ctx.jobs routing ~f in
        (* Adversarial large sets: a link-only attack at the claim's
           full fault budget, its witness checked against its own
           endpoint projection. *)
        let fa = max 1 (Construction.fault_budget c) in
        let rng =
          Random.State.make [| ctx.seed; Hashtbl.hash "E21"; Hashtbl.hash name |]
        in
        let o =
          Attack.search
            ~config:{ Attack.default_config with Attack.budget = attack_budget }
            ~jobs:ctx.jobs ~rng ~pools:c.Construction.pools ~universe:Surviving.Links
            routing ~f:fa
        in
        let compiled = Surviving.compile_cached routing in
        let d_restr, d_proj =
          Tolerance.reduction_diameters compiled (Surviving.evaluator compiled)
            ~edges:(Surviving.ids_of_fault_set compiled Surviving.Links o.Attack.witness)
        in
        let atk_ok = Metrics.distance_le d_restr d_proj in
        let ok = red.Tolerance.red_violations = 0 && atk_ok in
        [
          name;
          string_of_int n;
          string_of_int m;
          string_of_int f;
          string_of_int red.Tolerance.red_sets;
          string_of_int red.Tolerance.red_violations;
          dist_cell red.Tolerance.red_worst_edge;
          dist_cell red.Tolerance.red_worst_proj;
          string_of_int fa;
          string_of_int (List.length o.Attack.witness.links);
          dist_cell o.Attack.worst;
          dist_cell d_restr;
          dist_cell d_proj;
          (if ok then "ok" else "VIOLATION");
        ])
      instances
  in
  Table.make
    ~title:
      "E21 (edge-fault reduction): surviving diameter under true link faults \
       vs the endpoint projection, exhaustive small sets plus adversarial \
       link attacks"
    ~headers:
      [ "instance"; "n"; "m"; "f"; "sets"; "viol"; "worst links";
        "worst proj"; "atk f"; "atk #links"; "atk full"; "atk restr";
        "atk proj"; "verdict" ]
    ~notes:
      [
        "for every enumerated edge set the link-fault surviving diameter over \
         the projection's surviving nodes ('worst links'; projected endpoints \
         stay alive and may relay) is compared against the endpoint \
         projection's diameter ('worst proj'; each link mapped to its smaller \
         endpoint, as in Fault_model.endpoint_projection); 'viol' counts sets \
         where the restricted link diameter exceeded the projected one - the \
         paper's reduction predicts zero everywhere; the attack columns run \
         Attack.search over links only at the construction's full fault \
         budget ('atk full' is the unrestricted surviving diameter of its \
         witness, which MAY exceed the projection: the projected endpoints \
         themselves are reachable but remote) and re-check the shrunk witness \
         restricted the same way ('atk restr' vs 'atk proj')";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let registry : (string * string * (context -> Table.t)) list =
  [
    ("E1", "Theorem 3: kernel is (max(2t,4), t)-tolerant", e1);
    ("E2", "Theorem 4: kernel is (4, floor(t/2))-tolerant", e2);
    ("E3", "Theorem 10: circular is (6, t)-tolerant", e3);
    ("E4", "Theorem 13: tri-circular is (4, t)-tolerant", e4);
    ("E5", "Remark 14: small tri-circular is (5, t)-tolerant", e5);
    ("E6", "Theorem 20: unidirectional bipolar is (4, t)-tolerant", e6);
    ("E7", "Theorem 23: bidirectional bipolar is (5, t)-tolerant", e7);
    ("E8", "Lemma 15 / Corollary 17: neighborhood-set sizes", e8);
    ("E9", "Lemma 24 / Theorem 25: two-trees property in G(n,p)", e9);
    ("E10", "Section 6 (1): full multirouting diameter 1", e10);
    ("E11", "Section 6 (2,3): kernel+multi-M and MULT constructions", e11);
    ("E12", "Section 6: concentrator clique augmentation", e12);
    ("E13", "Section 7 open problem 3: beyond-connectivity fault sets", e13);
    ("E14", "Baseline: minimal-path routing vs the constructions", e14);
    ("E15", "Introduction: hypercube e-cube routings under d-1 faults", e15);
    ("E16", "Open problem 1: kernel diameter growth with t", e16);
    ("E17", "Methodology ablation: adversarial pools vs uniform sampling", e17);
    ("E18", "Design ablation: circular routing window size", e18);
    ("E19", "Open problem 2: ring vs clique concentrator augmentation", e19);
    ("E20", "Attack engine: guided search vs exhaustive truth and random", e20);
    ("E21", "Edge-fault reduction: true link faults vs endpoint projection", e21);
    ("F1", "Figure 1: circular routing diagram", f1);
    ("F2", "Figure 2: tri-circular routing diagram", f2);
    ("F3", "Figure 3: bipolar routing diagram", f3);
    ("S1", "Section 1: simulator cost model and broadcast rebuild", s1);
    ("S2", "Section 1 under load: endpoint queueing at a hotspot", s2);
  ]

let ids = List.map (fun (id, _, _) -> id) registry

let unknown_id id =
  invalid_arg
    (Printf.sprintf "unknown experiment id %S (available: %s)" id
       (String.concat ", " (List.map (fun (i, _, _) -> i) registry)))

let describe id =
  match List.find_opt (fun (i, _, _) -> i = id) registry with
  | Some (_, d, _) -> d
  | None -> unknown_id id

let with_jobs ?jobs ctx =
  match jobs with Some j -> { ctx with jobs = j } | None -> ctx

let run ?jobs ctx id =
  let ctx = with_jobs ?jobs ctx in
  match List.find_opt (fun (i, _, _) -> i = id) registry with
  | Some (_, _, f) -> f ctx
  | None -> unknown_id id

let all ?jobs ctx =
  let ctx = with_jobs ?jobs ctx in
  List.map (fun (id, _, f) -> (id, f ctx)) registry
