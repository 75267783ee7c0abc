(* Node-splitting: graph vertex [v] becomes flow nodes [2v] (in-copy)
   and [2v+1] (out-copy). A unit arc 2v -> 2v+1 enforces that a vertex
   carries at most one path. *)

let in_node v = 2 * v
let out_node v = (2 * v) + 1

(* One template network per graph answers every query. Node [2n] is a
   sink for fans. Vertex [v] owns edge [2v] (in(v) -> out(v), base
   capacity 1) and edge [2v+1] (in(v) -> sink, base 0); then each graph
   edge (u, v), in [Graph.iter_edges] order, adds out(u) -> in(v) and
   out(v) -> in(u), base 1. A query resets the base capacities and
   overrides a few; an arc its own network would lack gets capacity 0,
   which Dinic never traverses, so the live arcs keep the relative
   order of a freshly built network and the flow found is the same.
   [into] lists, per vertex [v], the edges entering in(v), in CSR form
   over [into_off]. *)
type template = {
  net : Maxflow.t;
  n : int;
  edges : int; (* number of template edges *)
  into_off : int array;
  into : int array;
}

let through v = 2 * v
let to_sink v = (2 * v) + 1

let build g =
  let n = Graph.n g in
  let net = Maxflow.create ((2 * n) + 1) in
  for v = 0 to n - 1 do
    Maxflow.add_edge net ~src:(in_node v) ~dst:(out_node v) ~cap:1;
    Maxflow.add_edge net ~src:(in_node v) ~dst:(2 * n) ~cap:0
  done;
  let into_off = Array.make (n + 1) 0 in
  Graph.iter_edges
    (fun u v ->
      into_off.(u + 1) <- into_off.(u + 1) + 1;
      into_off.(v + 1) <- into_off.(v + 1) + 1)
    g;
  for v = 0 to n - 1 do
    into_off.(v + 1) <- into_off.(v + 1) + into_off.(v)
  done;
  let into = Array.make into_off.(n) 0 in
  let fill = Array.sub into_off 0 n in
  let edge = ref (2 * n) in
  let add a b =
    Maxflow.add_edge net ~src:(out_node a) ~dst:(in_node b) ~cap:1;
    into.(fill.(b)) <- !edge;
    fill.(b) <- fill.(b) + 1;
    incr edge
  in
  Graph.iter_edges
    (fun u v ->
      add u v;
      add v u)
    g;
  { net; n; edges = !edge; into_off; into }

(* A one-slot cache per domain, keyed by the graph's physical identity:
   consecutive queries on one graph share its template, and [Par]
   workers never share a network. *)
let slot : (Graph.t * template) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let template g =
  match Domain.DLS.get slot with
  | Some (g', tpl) when g' == g -> tpl
  | _ ->
      let tpl = build g in
      Domain.DLS.set slot (Some (g, tpl));
      tpl

let check_vertex name tpl v =
  if v < 0 || v >= tpl.n then
    invalid_arg (Printf.sprintf "Disjoint_paths.%s: vertex %d out of range" name v)

(* The template specialised to an s-t query: [src] and [dst] may carry
   any number of paths. *)
let st_network name g ~src ~dst =
  let tpl = template g in
  check_vertex name tpl src;
  check_vertex name tpl dst;
  Maxflow.reset tpl.net;
  Maxflow.set_capacity tpl.net (through src) tpl.n;
  Maxflow.set_capacity tpl.net (through dst) tpl.n;
  tpl

(* Peel one unit path out of [start] by taking flow off the newest
   flow-carrying edge at each step; [vertex_of] maps a flow node to the
   graph vertex it records, or [-1]. *)
let peel_path net ~start ~stop ~vertex_of =
  let rec walk node acc =
    if node = stop then List.rev acc
    else
      let next = Maxflow.take_unit net node in
      if next < 0 then invalid_arg "Disjoint_paths: broken flow decomposition";
      let v = vertex_of next in
      walk next (if v >= 0 then v :: acc else acc)
  in
  walk start []

let st_paths g ~src ~dst ?k () =
  if src = dst then invalid_arg "Disjoint_paths.st_paths: src = dst";
  let { net; _ } = st_network "st_paths" g ~src ~dst in
  let limit = match k with Some k -> k | None -> max_int in
  let value = Maxflow.max_flow net ~src:(out_node src) ~dst:(in_node dst) ~limit () in
  (* A flow node [2v] or [2v+1] maps back to vertex [v]; we record a
     vertex when traversing its in->out arc, plus the endpoints. *)
  let vertex_of node = if node land 1 = 1 then node / 2 else -1 in
  List.init value (fun _ ->
      let vs = peel_path net ~start:(out_node src) ~stop:(in_node dst) ~vertex_of in
      Path.of_list ((src :: vs) @ [ dst ]))

let st_connectivity g ~src ~dst ?limit () =
  if src = dst then invalid_arg "Disjoint_paths.st_connectivity: src = dst";
  let { net; _ } = st_network "st_connectivity" g ~src ~dst in
  let limit = Option.value limit ~default:max_int in
  Maxflow.max_flow net ~src:(out_node src) ~dst:(in_node dst) ~limit ()

let st_min_separator g ~src ~dst =
  if src = dst then invalid_arg "Disjoint_paths.st_min_separator: src = dst";
  if Graph.mem_edge g src dst then
    invalid_arg "Disjoint_paths.st_min_separator: adjacent vertices";
  let tpl = st_network "st_min_separator" g ~src ~dst in
  let n = tpl.n in
  (* Fat edge arcs force the minimum cut onto the unit in->out arcs,
     i.e. onto vertices. *)
  for i = 2 * n to tpl.edges - 1 do
    Maxflow.set_capacity tpl.net i n
  done;
  let _ = Maxflow.max_flow tpl.net ~src:(out_node src) ~dst:(in_node dst) () in
  let side = Maxflow.min_cut_side tpl.net ~src:(out_node src) in
  let cut = ref [] in
  for v = n - 1 downto 0 do
    if Bitset.mem side (in_node v) && not (Bitset.mem side (out_node v)) then
      cut := v :: !cut
  done;
  !cut

let fan_to_set g ~src ~targets ?k () =
  let n = Graph.n g in
  let targets = List.sort_uniq compare targets in
  if List.mem src targets then
    invalid_arg "Disjoint_paths.fan_to_set: src is a target";
  let is_target = Bitset.of_list n targets in
  let tpl = template g in
  check_vertex "fan_to_set" tpl src;
  let net = tpl.net in
  let sink = 2 * n in
  (* No arcs into the source; targets absorb flow into the sink and
     have no in->out arc, so path interiors avoid them. *)
  Maxflow.reset net;
  Maxflow.set_capacity net (through src) 0;
  for j = tpl.into_off.(src) to tpl.into_off.(src + 1) - 1 do
    Maxflow.set_capacity net tpl.into.(j) 0
  done;
  List.iter
    (fun v ->
      Maxflow.set_capacity net (through v) 0;
      Maxflow.set_capacity net (to_sink v) 1)
    targets;
  let limit = match k with Some k -> k | None -> max_int in
  let value = Maxflow.max_flow net ~src:(out_node src) ~dst:sink ~limit () in
  let vertex_of node =
    if node = sink then -1
    else if node land 1 = 1 || Bitset.mem is_target (node / 2) then node / 2
    else -1
  in
  List.init value (fun _ ->
      let vs = peel_path net ~start:(out_node src) ~stop:sink ~vertex_of in
      Path.of_list (src :: vs))
