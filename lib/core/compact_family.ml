open Ftr_graph

let neighborhood_pools g =
  let n = Graph.n g in
  if n = 0 then []
  else
    let pool v = Array.to_list (Graph.neighbors g v) in
    if n = 1 then [ pool 0 ] else [ pool 0; pool (n - 1) ]

let make ~name ~claims g kind compact =
  {
    Construction.name;
    routing = Routing.of_compact g kind compact;
    concentrator = [];
    structure = Construction.Unstructured;
    pools = neighborhood_pools g;
    claims;
  }

let hypercube ?(bidirectional = false) d =
  let g = Families.hypercube d in
  let kind = if bidirectional then Routing.Bidirectional else Routing.Unidirectional in
  let name =
    Printf.sprintf "compact-ecube%s(Q%d)" (if bidirectional then "-bi" else "") d
  in
  make ~name
    ~claims:
      [
        Construction.claim ~bound:2 ~faults:1 "empirical (sampled)";
        Construction.claim ~bound:4 ~faults:(max 1 (d - 1)) "empirical (sampled)";
      ]
    g kind
    (Compact.hypercube ~bidirectional d)

let de_bruijn d =
  let g = Families.de_bruijn d in
  make
    ~name:(Printf.sprintf "compact-debruijn(DB%d)" d)
    ~claims:[ Construction.claim ~bound:4 ~faults:1 "empirical (sampled)" ]
    g Routing.Unidirectional (Compact.de_bruijn d)

let ccc d =
  let g = Families.ccc d in
  make
    ~name:(Printf.sprintf "compact-ccc(CCC%d)" d)
    ~claims:[ Construction.claim ~bound:4 ~faults:2 "empirical (sampled)" ]
    g Routing.Unidirectional (Compact.ccc d)

let tree ?(name = "compact-tree") g ~root =
  let n = Graph.n g in
  if root < 0 || root >= n then invalid_arg "Compact_family.tree: root out of range";
  {
    Construction.name;
    routing = Routing.of_compact g Routing.Unidirectional (Compact.bfs_tree g ~root);
    concentrator = [ root ];
    structure = Construction.Unstructured;
    pools = (if n = 0 then [] else [ Array.to_list (Graph.neighbors g root) ]);
    (* A tree routing tolerates no internal fault; no claims. *)
    claims = [];
  }

let of_spec s =
  match String.split_on_char ':' (String.trim s) with
  | [ "hypercube"; d ] | [ "hypercube"; d; "uni" ] -> (
      match Decimal.parse d with
      | Some d when d >= 1 && d <= 20 -> Ok (hypercube d)
      | _ -> Error "hypercube dimension must be in [1, 20]")
  | [ "hypercube"; d; "bi" ] -> (
      match Decimal.parse d with
      | Some d when d >= 1 && d <= 20 -> Ok (hypercube ~bidirectional:true d)
      | _ -> Error "hypercube dimension must be in [1, 20]")
  | [ "debruijn"; d ] -> (
      match Decimal.parse d with
      | Some d when d >= 2 && d <= 24 -> Ok (de_bruijn d)
      | _ -> Error "de Bruijn dimension must be in [2, 24]")
  | [ "ccc"; d ] -> (
      match Decimal.parse d with
      | Some d when d >= 3 && d < 20 -> Ok (ccc d)
      | _ -> Error "CCC dimension must be in [3, 20)")
  | _ ->
      Error
        (Printf.sprintf
           "unknown compact family %S (expected hypercube:D[:bi], debruijn:D or \
            ccc:D)"
           s)
