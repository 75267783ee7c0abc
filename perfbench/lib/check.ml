(* Output checks and failure accounting for the query workloads.

   A response fails when it is [ok:false] (an [unreachable] included:
   the generator keeps at most five crisp faults on a 6-connected
   graph, so every pair stays connected), when a path has the wrong
   endpoints, visits a faulty vertex or uses a failed link or an
   undefined route, when a delta is not applied, or when it differs
   from the in-process replay of the same line stream. *)

open Ftr_graph
open Ftr_core
module Sjson = Ftr_serve.Sjson
module Wire = Ftr_serve.Wire

type outcome = Pass | Fail of string

let ( let* ) r f = match r with Pass -> f () | Fail _ as e -> e
let need cond msg = if cond then Pass else Fail msg

let field name j = Sjson.member name j

let int_path j =
  match Option.bind (field "path" j) Sjson.to_list with
  | None -> None
  | Some l ->
      let ints = List.filter_map Sjson.to_int l in
      if List.length ints = List.length l then Some ints else None

let rec consecutive f = function
  | a :: (b :: _ as rest) -> (
      match f a b with Pass -> consecutive f rest | Fail _ as e -> e)
  | _ -> Pass

let route_alive model routing a b =
  match Routing.find routing a b with
  | None -> Fail (Printf.sprintf "no route %d->%d" a b)
  | Some p ->
      let vs = Path.to_list p in
      let* () =
        need
          (not (List.exists (Model.node_down model) vs))
          (Printf.sprintf "route %d->%d crosses a faulty vertex" a b)
      in
      consecutive
        (fun x y ->
          need
            (not (Model.link_down model x y))
            (Printf.sprintf "route %d->%d uses failed link %d-%d" a b x y))
        vs

(* [classify ~routing ~model req resp] judges one daemon response
   against the client's fault state [model] as it stood when the
   request was served (deltas are applied by the caller afterwards). *)
let classify ~routing ~model (req : Wire.request) (resp : Sjson.t) =
  let ok = Option.bind (field "ok" resp) Sjson.to_bool = Some true in
  let error () =
    match Option.bind (field "error" resp) Sjson.to_str with
    | Some e -> e
    | None -> "ok is not true"
  in
  if not ok then Fail (error ())
  else
    match req with
    | Wire.Route { src; dst } -> (
        let mode = Option.bind (field "mode" resp) Sjson.to_str in
        match int_path resp with
        | None | Some [] -> Fail "route reply without a path"
        | Some path ->
            let* () =
              need
                (List.hd path = src && List.nth path (List.length path - 1) = dst)
                "path has the wrong endpoints"
            in
            let* () =
              need
                (not (List.exists (Model.node_down model) path))
                "path visits a faulty vertex"
            in
            (match mode with
            | Some "routed" ->
                let* () =
                  need
                    (Option.bind (field "routes" resp) Sjson.to_int
                    = Some (List.length path - 1))
                    "route count disagrees with the path"
                in
                consecutive (route_alive model routing) path
            | Some "detour" ->
                consecutive
                  (fun a b ->
                    need
                      (Graph.mem_edge model.Model.graph a b
                      && not (Model.link_down model a b))
                      (Printf.sprintf "detour step %d-%d is not a live link" a b))
                  path
            | _ -> Fail "unknown route mode"))
    | Wire.Fault _ ->
        let* () =
          need
            (Option.bind (field "applied" resp) Sjson.to_bool = Some true)
            "delta not applied"
        in
        need (Option.bind (field "digest" resp) Sjson.to_str <> None) "delta without digest"
    | Wire.Diameter ->
        need (field "diameter" resp <> None) "diameter reply without a diameter"
    | Wire.Health | Wire.Ready | Wire.Stats | Wire.Drain -> Pass

(* A response with its live timing telemetry removed: what must be
   identical between the daemon and the in-process replay. *)
let strip_timing (j : Sjson.t) =
  match j with
  | Sjson.Obj fields -> Sjson.Obj (List.filter (fun (k, _) -> k <> "service_ms") fields)
  | other -> other

(* Failure accounting: every attempted operation lands here once. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
}

let tally () = { attempted = 0; failed = 0; first_failure = None }

let record t = function
  | Pass -> t.attempted <- t.attempted + 1
  | Fail msg ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      if t.first_failure = None then t.first_failure <- Some msg

let failed_frac t =
  if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted

(* Judge one response line: structural checks against [model], then
   equality with the in-process replay's response [expected]. *)
let judge ~routing ~model req ~line ~expected =
  match Sjson.parse line with
  | Error e -> Fail ("unparseable response: " ^ e)
  | Ok resp ->
      let* () = classify ~routing ~model req resp in
      need (strip_timing resp = strip_timing expected)
        (Printf.sprintf "response differs from the in-process replay: %s" line)
