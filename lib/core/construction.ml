type claim = { diameter_bound : int; max_faults : int; source : string }

type structure =
  | Separator of int list
  | Neighborhood of { members : int list; window : int }
  | Tri_rings of { members : int list; ring : int; within_window : int }
  | Two_poles of { r1 : int; r2 : int }
  | Unstructured

type t = {
  name : string;
  routing : Routing.t;
  concentrator : int list;
  structure : structure;
  pools : int list list;
  claims : claim list;
}

let claim ~bound ~faults source =
  { diameter_bound = bound; max_faults = faults; source }

let strongest_claim t =
  match t.claims with
  | [] -> invalid_arg "Construction.strongest_claim: no claims"
  | c :: rest ->
      List.fold_left
        (fun best c ->
          if
            c.diameter_bound < best.diameter_bound
            || (c.diameter_bound = best.diameter_bound && c.max_faults > best.max_faults)
          then c
          else best)
        c rest

let bound_for t ~f =
  List.fold_left
    (fun acc c ->
      if c.max_faults >= f then
        Some
          (match acc with
          | None -> c.diameter_bound
          | Some b -> min b c.diameter_bound)
      else acc)
    None t.claims

let fault_budget t = List.fold_left (fun acc c -> max acc c.max_faults) 0 t.claims

let pp ppf t =
  Fmt.pf ppf "@[<v>%s: %d routes, concentrator size %d, claims:@,%a@]" t.name
    (Routing.route_count t.routing)
    (List.length t.concentrator)
    Fmt.(
      list ~sep:cut (fun ppf c ->
          pf ppf "  (%d,%d)-tolerant [%s]" c.diameter_bound c.max_faults c.source))
    t.claims
