open Ftr_graph

type strategy =
  | Tri_circular_full
  | Bipolar_uni
  | Tri_circular_small
  | Bipolar_bi
  | Circular
  | Kernel

let strategy_name = function
  | Tri_circular_full -> "tri-circular"
  | Bipolar_uni -> "bipolar-uni"
  | Tri_circular_small -> "tri-circular-small"
  | Bipolar_bi -> "bipolar-bi"
  | Circular -> "circular"
  | Kernel -> "kernel"

type request = Auto | Fixed of strategy

let requests =
  ("auto", Auto)
  :: List.map
       (fun s -> (strategy_name s, Fixed s))
       [ Kernel; Circular; Tri_circular_full; Tri_circular_small; Bipolar_uni; Bipolar_bi ]

let request_name = function Auto -> "auto" | Fixed s -> strategy_name s

type choice = { strategy : strategy; construction : Construction.t; t : int }

let neighborhood_set ?rng g =
  match rng with
  | Some rng -> Independent.best_of ~rng ~tries:20 g
  | None -> Independent.greedy g

let applicable_with ?rng g ~t =
  let m = neighborhood_set ?rng g in
  let k = List.length m in
  let roots = Two_trees.find g in
  let strategies =
    List.concat
      [
        (if k >= Tri_circular.required_k ~t ~variant:Tri_circular.Full then
           [ Tri_circular_full ]
         else []);
        (if roots <> None then [ Bipolar_uni; Bipolar_bi ] else []);
        (if k >= Tri_circular.required_k ~t ~variant:Tri_circular.Small then
           [ Tri_circular_small ]
         else []);
        (if k >= Circular.required_k ~t then [ Circular ] else []);
        (* Exactly [Connectivity.min_vertex_cut g <> None], which is
           [None] iff n <= 1 or [g] is complete, without its flows. *)
        (if Graph.n g > 1 && not (Connectivity.is_complete g) then [ Kernel ] else []);
      ]
  in
  let order = function
    | Tri_circular_full -> 0
    | Bipolar_uni -> 1
    | Tri_circular_small -> 2
    | Bipolar_bi -> 3
    | Circular -> 4
    | Kernel -> 5
  in
  (List.sort (fun a b -> compare (order a) (order b)) strategies, m, roots)

let applicable g ~t =
  let strategies, _, _ = applicable_with g ~t in
  strategies

(* [m] is a thunk: the kernel needs no neighborhood set. *)
let make ~m ?roots g ~t = function
  | Tri_circular_full -> Tri_circular.make ~m:(m ()) g ~t ~variant:Tri_circular.Full
  | Tri_circular_small -> Tri_circular.make ~m:(m ()) g ~t ~variant:Tri_circular.Small
  | Bipolar_uni -> Bipolar.make_unidirectional ?roots g ~t
  | Bipolar_bi -> Bipolar.make_bidirectional ?roots g ~t
  | Circular -> Circular.make ~m:(m ()) g ~t
  | Kernel -> Kernel.make g ~t

let auto ?rng ?(prefer_bidirectional = false) g =
  let kappa = Connectivity.vertex_connectivity g in
  if kappa < 1 then invalid_arg "Builder.auto: graph is disconnected";
  let t = kappa - 1 in
  let strategies, m, roots = applicable_with ?rng g ~t in
  let strategies =
    if prefer_bidirectional then
      List.filter (fun s -> s <> Bipolar_uni) strategies
    else strategies
  in
  match strategies with
  | [] -> invalid_arg "Builder.auto: no construction applies (complete graph?)"
  | strategy :: _ ->
      { strategy; construction = make ~m:(fun () -> m) ?roots g ~t strategy; t }

let build g request ~seed =
  let rng = Random.State.make [| seed |] in
  let construct = function
    | Auto -> (auto ~rng g).construction
    | Fixed strategy ->
        (* [auto] computes its own [t] and neighborhood set; a fixed
           strategy searches 30 greedy restarts, not auto's 20. *)
        let m () = Independent.best_of ~rng ~tries:30 g in
        make ~m g ~t:(Connectivity.vertex_connectivity g - 1) strategy
  in
  match construct request with c -> Ok c | exception Invalid_argument msg -> Error msg

let build_named g name ~seed =
  match List.assoc_opt name requests with
  | None -> Error ("unknown strategy " ^ name)
  | Some request -> build g request ~seed
