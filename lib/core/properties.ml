open Ftr_graph

type report = { property : string; holds : bool; counterexample : string option }

let ok property = { property; holds = true; counterexample = None }

let bad property fmt =
  Printf.ksprintf
    (fun s -> { property; holds = false; counterexample = Some s })
    fmt

let all_hold = List.for_all (fun r -> r.holds)

let pp_report ppf r =
  match r.counterexample with
  | None -> Fmt.pf ppf "%s: %s" r.property (if r.holds then "holds" else "fails")
  | Some c -> Fmt.pf ppf "%s: fails (%s)" r.property c

(* Shared context: the surviving graph and per-source BFS distances
   over it. *)
type ctx = {
  n : int;
  faults : Bitset.t;
  dg : Digraph.t;
  dist_cache : (int, int array) Hashtbl.t;
}

let make_ctx routing ~faults =
  {
    n = Graph.n (Routing.graph routing);
    faults;
    dg = Surviving.graph routing ~faults;
    dist_cache = Hashtbl.create 64;
  }

let alive ctx v = not (Bitset.mem ctx.faults v)

let dist_from ctx src =
  match Hashtbl.find_opt ctx.dist_cache src with
  | Some d -> d
  | None ->
      let d = Digraph.bfs ctx.dg ~allowed:(alive ctx) src in
      Hashtbl.add ctx.dist_cache src d;
      d

let dist ctx x y =
  let d = (dist_from ctx x).(y) in
  if d < 0 then max_int else d

let alive_vertices ctx = List.filter (alive ctx) (List.init ctx.n Fun.id)
let alive_members ctx members = List.filter (alive ctx) members

(* ------------------------------------------------------------------ *)
(* Kernel: Lemma 1 both ways                                          *)
(* ------------------------------------------------------------------ *)

let kernel_reports ctx m =
  let in_m = Bitset.of_list ctx.n m in
  let live_m = alive_members ctx m in
  let missing name what has =
    List.find_opt
      (fun x -> (not (Bitset.mem in_m x)) && not (List.exists (has x) live_m))
      (alive_vertices ctx)
    |> function
    | None -> ok name
    | Some x -> bad name "node %d has no surviving %s" x what
  in
  [
    missing "KERNEL (Lemma 1, out)" "edge into M" (fun x y -> Digraph.mem_arc ctx.dg x y);
    missing "KERNEL (Lemma 1, in)" "edge from M" (fun x y -> Digraph.mem_arc ctx.dg y x);
  ]

(* ------------------------------------------------------------------ *)
(* Circular: CIRC 1, CIRC 2 (large K) / Property CIRC (small K)       *)
(* ------------------------------------------------------------------ *)

let circ1 ctx members =
  let live_m = alive_members ctx members in
  let outside =
    List.filter (fun x -> not (List.mem x members)) (alive_vertices ctx)
  in
  match
    List.find_opt
      (fun x -> not (List.exists (fun y -> dist ctx x y <= 2) live_m))
      outside
  with
  | None -> ok "CIRC 1"
  | Some x -> bad "CIRC 1" "node %d is > 2 from every surviving member" x

let circ2 ctx members =
  let live_m = alive_members ctx members in
  let offenders =
    List.concat_map
      (fun x ->
        List.filter_map
          (fun y -> if x <> y && dist ctx x y > 2 then Some (x, y) else None)
          live_m)
      live_m
  in
  match offenders with
  | [] -> ok "CIRC 2"
  | (x, y) :: _ -> bad "CIRC 2" "members %d and %d are > 2 apart" x y

let common_member ctx members ~r1 ~r2 name =
  let live_m = alive_members ctx members in
  let vertices = alive_vertices ctx in
  let pair_fails x y =
    not
      (List.exists (fun z -> dist ctx x z <= r1 && dist ctx z y <= r2) live_m
      || List.exists (fun z -> dist ctx x z <= r2 && dist ctx z y <= r1) live_m)
  in
  let offender =
    List.find_map
      (fun x ->
        List.find_map
          (fun y -> if x <> y && pair_fails x y then Some (x, y) else None)
          vertices)
      vertices
  in
  match offender with
  | None -> ok name
  | Some (x, y) ->
      bad name "no surviving member within (%d,%d) of both %d and %d" r1 r2 x y

let circular_reports ctx members ~t ~window =
  (* CIRC 1 needs each fringe node's own member plus its window of
     onward members to exceed the fault budget (Lemma 7's argument),
     which holds for the paper's full window when K >= 2t+1. Narrower
     windows only support the weaker Property CIRC of Lemma 9. *)
  if List.length members >= (2 * t) + 1 && window >= t then
    [ circ1 ctx members; circ2 ctx members ]
  else [ common_member ctx members ~r1:3 ~r2:3 "CIRC" ]

(* ------------------------------------------------------------------ *)
(* Tri-circular: T-CIRC                                               *)
(* ------------------------------------------------------------------ *)

let tri_reports ctx members ~t ~within_window =
  (* Full variant routes to t+1 sets within the ring; the small variant
     uses the circular half-window and only supports the (2,3) radius
     argument of Remark 14. *)
  if within_window >= t + 1 then [ common_member ctx members ~r1:2 ~r2:2 "T-CIRC" ]
  else [ common_member ctx members ~r1:2 ~r2:3 "T-CIRC (small)" ]

(* ------------------------------------------------------------------ *)
(* Bipolar: B-POL 1-4 / 2B-POL 1-3                                    *)
(* ------------------------------------------------------------------ *)

let exists_at_one ctx x live ~incoming =
  List.exists
    (fun y -> if incoming then Digraph.mem_arc ctx.dg y x else Digraph.mem_arc ctx.dg x y)
    live

let bpol_side ctx name ~members ~skip ~incoming =
  let live = alive_members ctx members in
  match
    List.find_opt
      (fun x -> (not (List.mem x skip)) && not (exists_at_one ctx x live ~incoming))
      (alive_vertices ctx)
  with
  | None -> ok name
  | Some x ->
      bad name "node %d has no surviving %s at distance 1" x
        (if incoming then "in-neighbor" else "out-neighbor")

let within_two ctx name members =
  let live = alive_members ctx members in
  let offenders =
    List.concat_map
      (fun x ->
        List.filter_map
          (fun y -> if x <> y && dist ctx x y > 2 then Some (x, y) else None)
          live)
      live
  in
  match offenders with
  | [] -> ok name
  | (x, y) :: _ -> bad name "members %d and %d are > 2 apart" x y

let bipolar_uni_reports ctx g ~r1 ~r2 =
  let m1 = Array.to_list (Graph.neighbors g r1) in
  let m2 = Array.to_list (Graph.neighbors g r2) in
  [
    bpol_side ctx "B-POL 1" ~members:m1 ~skip:m1 ~incoming:false;
    bpol_side ctx "B-POL 2" ~members:m2 ~skip:m2 ~incoming:false;
    bpol_side ctx "B-POL 3" ~members:(m1 @ m2) ~skip:(m1 @ m2) ~incoming:true;
    within_two ctx "B-POL 4 (M1)" m1;
    within_two ctx "B-POL 4 (M2)" m2;
  ]

let bipolar_bi_reports ctx g ~r1 ~r2 =
  let m1 = Array.to_list (Graph.neighbors g r1) in
  let m2 = Array.to_list (Graph.neighbors g r2) in
  let live_m2 = alive_members ctx m2 in
  let prop3 =
    match
      List.find_opt
        (fun x -> not (exists_at_one ctx x live_m2 ~incoming:false))
        (alive_members ctx m1)
    with
    | None -> ok "2B-POL 3"
    | Some x -> bad "2B-POL 3" "M1 member %d has no surviving M2 neighbor" x
  in
  [
    bpol_side ctx "2B-POL 1" ~members:(m1 @ m2) ~skip:(m1 @ m2) ~incoming:false;
    within_two ctx "2B-POL 2 (M1)" m1;
    within_two ctx "2B-POL 2 (M2)" m2;
    prop3;
  ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)
(* ------------------------------------------------------------------ *)

let check (c : Construction.t) ~faults =
  let ctx = make_ctx c.Construction.routing ~faults in
  let g = Routing.graph c.Construction.routing in
  let t = Construction.fault_budget c in
  match c.Construction.structure with
  | Construction.Separator m -> kernel_reports ctx m
  | Construction.Neighborhood { members; window } ->
      circular_reports ctx members ~t ~window
  | Construction.Tri_rings { members; ring = _; within_window } ->
      tri_reports ctx members ~t ~within_window
  | Construction.Two_poles { r1; r2 } -> (
      match Routing.kind c.Construction.routing with
      | Routing.Unidirectional -> bipolar_uni_reports ctx g ~r1 ~r2
      | Routing.Bidirectional -> bipolar_bi_reports ctx g ~r1 ~r2)
  | Construction.Unstructured -> []
