(* Request generators for the query workloads. A generator is a pure
   function of (graph, kind, seed): the same seed yields a
   byte-identical line stream however the caller batches it.

   - [Read]: route requests only; sources uniform, destinations
     Zipf(1.1) over the vertex ids (Workload.zipf_pairs).
   - [Churn]: about one op in eight is a fault delta (node or link
     fail/recover, gray degrade/restore) keeping at most [max_crisp]
     crisp faults and [max_gray] degraded links live, so the fault
     state mixes quickly and every seed sees the same mix of states
     (each delta reply carries the digest, whose size grows with the
     live fault set); every delta is followed by a diameter op, and
     the remaining ops are Zipf routes between live endpoints. Every
     delta changes the state, so each must be answered
     ["applied": true]. *)

open Ftr_sim
module Wire = Ftr_serve.Wire

type kind = Read | Churn

let zipf_s = 1.1
let max_crisp = 5
let max_gray = 4
let delta_one_in = 8
let read_chunk = 1024
let gray_factors = [| 1.5; 2.0; 4.0; 8.0 |]

type t = {
  kind : kind;
  model : Model.t;
  rng : Random.State.t;
  pending : (int * int) Queue.t;
  mutable diameter_next : bool;
}

let create ~kind ~graph ~seed =
  {
    kind;
    model = Model.create graph;
    rng = Random.State.make [| seed |];
    pending = Queue.create ();
    diameter_next = false;
  }

(* A uniform pick among the indices in [0, n) satisfying [ok]. *)
let pick_index rng n ok =
  let cands = List.filter ok (List.init n Fun.id) in
  List.nth cands (Random.State.int rng (List.length cands))

let delta t =
  let m = t.model in
  let e = Model.edge_count m in
  let kinds =
    List.concat
      [
        (if Model.crisp m < max_crisp then [ `Fail_node; `Fail_link ] else []);
        (if m.Model.nodes_down > 0 then [ `Recover_node ] else []);
        (if m.Model.links_down > 0 then [ `Recover_link ] else []);
        (if m.Model.degraded < max_gray then [ `Degrade ] else []);
        (if m.Model.degraded > 0 then [ `Restore ] else []);
      ]
  in
  let action =
    match List.nth kinds (Random.State.int t.rng (List.length kinds)) with
    | `Fail_node ->
        Wire.Fail_node (pick_index t.rng (Model.n m) (fun v -> not m.Model.node_down.(v)))
    | `Recover_node ->
        Wire.Recover_node (pick_index t.rng (Model.n m) (fun v -> m.Model.node_down.(v)))
    | `Fail_link ->
        let u, v = Model.edge m (pick_index t.rng e (fun i -> not m.Model.link_down.(i))) in
        Wire.Fail_link (u, v)
    | `Recover_link ->
        let u, v = Model.edge m (pick_index t.rng e (fun i -> m.Model.link_down.(i))) in
        Wire.Recover_link (u, v)
    | `Degrade ->
        let u, v = Model.edge m (pick_index t.rng e (fun i -> not (Model.link_degraded m i))) in
        let f = gray_factors.(Random.State.int t.rng (Array.length gray_factors)) in
        Wire.Degrade_link (u, v, f)
    | `Restore ->
        let u, v = Model.edge m (pick_index t.rng e (Model.link_degraded m)) in
        Wire.Restore_link (u, v)
  in
  ignore (Model.apply m action);
  Wire.Fault action

let route t =
  if Queue.is_empty t.pending then begin
    let alive = Model.alive t.model in
    let count = match t.kind with Read -> read_chunk | Churn -> 1 in
    List.iter
      (fun p -> Queue.add p t.pending)
      (Workload.zipf_pairs ~rng:t.rng ~alive ~s:zipf_s ~count)
  end;
  let src, dst = Queue.pop t.pending in
  Wire.Route { src; dst }

let next t =
  match t.kind with
  | Read -> route t
  | Churn ->
      if t.diameter_next then begin
        t.diameter_next <- false;
        Wire.Diameter
      end
      else if Random.State.int t.rng delta_one_in = 0 then begin
        t.diameter_next <- true;
        delta t
      end
      else route t

let batch t ~count = Array.init count (fun _ -> next t)
