open Ftr_graph

type t = {
  routing : Routing.t;
  compiled : Surviving.compiled;
  ev : Surviving.evaluator;
  degraded : (int * int, float) Hashtbl.t; (* normalised (min, max) -> factor >= 1 *)
  mutable diameter : Metrics.distance option;
      (* memo of the evaluator's diameter; only crisp changes clear it *)
}

(* The compiled table is immutable, so it may be shared: a model of a
   routing the checkers just compiled reuses their table. *)
let create routing =
  let compiled = Surviving.compile_cached routing in
  {
    routing;
    compiled;
    ev = Surviving.evaluator compiled;
    degraded = Hashtbl.create 16;
    diameter = None;
  }

let routing t = t.routing
let n t = Surviving.compiled_n t.compiled
let is_faulty t v = Surviving.is_faulty t.ev v

let check_vertex t v what =
  if v < 0 || v >= n t then invalid_arg ("Fault_model." ^ what ^ ": bad vertex")

(* A crisp change: [f] updates the evaluator, and the diameter memo
   goes. The evaluator rejects a repeated fault or recovery, so the
   callers below test the current state first. *)
let change t f =
  f t.ev;
  t.diameter <- None

let fail_node t v =
  check_vertex t v "fail_node";
  if not (is_faulty t v) then change t (fun ev -> Surviving.apply_fault ev v)

let recover_node t v =
  check_vertex t v "recover_node";
  if is_faulty t v then change t (fun ev -> Surviving.revert_fault ev v)

let edge_failed t u v =
  match Surviving.edge_id t.compiled u v with
  | Some id -> Surviving.is_edge_faulty t.ev id
  | None -> false

let fail_edge t u v =
  match Surviving.edge_id t.compiled u v with
  | None -> invalid_arg "Fault_model.fail_edge: not an edge"
  | Some id ->
      if not (Surviving.is_edge_faulty t.ev id) then
        change t (fun ev -> Surviving.apply_edge_fault ev id)

let recover_edge t u v =
  match Surviving.edge_id t.compiled u v with
  | Some id when Surviving.is_edge_faulty t.ev id ->
      change t (fun ev -> Surviving.revert_edge_fault ev id)
  | _ -> ()

let node_faults t = Surviving.faults t.ev
let node_fault_count t = Surviving.fault_count t.ev
let edge_fault_count t = Surviving.edge_fault_count t.ev

(* Edge ids number the [(min, max)] pairs in lexicographic order, so
   increasing ids list the pairs sorted. *)
let edge_faults t = List.map (Surviving.edge_pair t.compiled) (Surviving.edge_faults t.ev)
let fault_count t = node_fault_count t + edge_fault_count t

(* Normalised (min, max) endpoints, ordered lexicographically. *)
let edge_compare (u1, v1) (u2, v2) =
  let c = Int.compare u1 u2 in
  if c <> 0 then c else Int.compare v1 v2

let degrade_edge t u v ~factor =
  if Surviving.edge_id t.compiled u v = None then
    invalid_arg "Fault_model.degrade_edge: not an edge";
  if not (Float.is_finite factor) || factor < 1.0 then
    invalid_arg "Fault_model.degrade_edge: factor must be finite and >= 1";
  if factor = 1.0 then Hashtbl.remove t.degraded (min u v, max u v)
  else Hashtbl.replace t.degraded (min u v, max u v) factor

let restore_edge t u v = Hashtbl.remove t.degraded (min u v, max u v)

let edge_degradation t u v =
  match Hashtbl.find_opt t.degraded (min u v, max u v) with
  | Some f -> f
  | None -> 1.0

let degraded_edges t =
  (* The third component is a float factor; Float.compare keeps the
     order total even if a NaN ever slipped past validation. *)
  List.sort
    (fun (u1, v1, f1) (u2, v2, f2) ->
      let c = edge_compare (u1, v1) (u2, v2) in
      if c <> 0 then c else Float.compare f1 f2)
    (Hashtbl.fold (fun (u, v) f acc -> (u, v, f) :: acc) t.degraded [])

let degraded_edge_count t = Hashtbl.length t.degraded

let path_delay_factor t p =
  let a = Path.to_array p in
  if Array.length a < 2 then 1.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to Array.length a - 2 do
      sum := !sum +. edge_degradation t a.(i) a.(i + 1)
    done;
    !sum /. float_of_int (Array.length a - 1)
  end

let digest t =
  Printf.sprintf "nodes{%s} links{%s} slow{%s}"
    (String.concat "," (List.map string_of_int (node_faults t)))
    (String.concat "," (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) (edge_faults t)))
    (String.concat ","
       (List.map (fun (u, v, f) -> Printf.sprintf "%d-%d*%.17g" u v f) (degraded_edges t)))

let affects t p =
  let len = Path.vertex_count p in
  let rec node i = i < len && (is_faulty t (Path.nth p i) || node (i + 1)) in
  let rec edge i = i + 1 < len && (edge_failed t (Path.nth p i) (Path.nth p (i + 1)) || edge (i + 1)) in
  node 0 || (edge_fault_count t > 0 && edge 0)

let endpoint_projection t =
  Bitset.of_list (n t) (node_faults t @ List.map fst (edge_faults t))

let route t ~src ~dst = Surviving.evaluator_route t.ev ~src ~dst

let diameter t =
  match t.diameter with
  | Some d -> d
  | None ->
      let d = Surviving.evaluator_diameter t.ev in
      t.diameter <- Some d;
      d
