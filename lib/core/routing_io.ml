open Ftr_graph

let kind_tag = function
  | Routing.Unidirectional -> "uni"
  | Routing.Bidirectional -> "bi"

let kind_of_tag = function
  | "uni" -> Some Routing.Unidirectional
  | "bi" -> Some Routing.Bidirectional
  | _ -> None

let save buf routing =
  let n = Graph.n (Routing.graph routing) in
  match Option.bind (Routing.compact routing) Compact.spec with
  | Some spec ->
      (* Label and tree schemes reconstruct from their spec: one header
         line instead of O(n^2) rows. *)
      Buffer.add_string buf
        (Printf.sprintf "ftr-routing 2 %d %s compact %s\n" n
           (kind_tag (Routing.kind routing))
           spec)
  | None ->
      Buffer.add_string buf
        (Printf.sprintf "ftr-routing 1 %d %s\n" n (kind_tag (Routing.kind routing)));
      let emit src dst p =
        Buffer.add_string buf
          (Printf.sprintf "%d %d %s\n" src dst
             (String.concat "," (List.map string_of_int (Path.to_list p))))
      in
      (* Stable output order; one orientation per pair for bidirectional
         tables. *)
      let rows = ref [] in
      Routing.iter
        (fun src dst p ->
          let keep =
            match Routing.kind routing with
            | Routing.Unidirectional -> true
            | Routing.Bidirectional -> src < dst
          in
          if keep then rows := (src, dst, p) :: !rows)
        routing;
      List.iter
        (fun (src, dst, p) -> emit src dst p)
        (List.sort
           (fun (s1, d1, _) (s2, d2, _) ->
             if s1 <> s2 then Int.compare s1 s2 else Int.compare d1 d2)
           !rows)

let to_string routing =
  let buf = Buffer.create 4096 in
  save buf routing;
  Buffer.contents buf

let load g text =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match String.split_on_char '\n' (String.trim text) with
  | [] | [ "" ] -> Error "empty routing file"
  | header :: lines -> (
      match String.split_on_char ' ' header with
      | [ "ftr-routing"; "2"; n_str; kind_str; "compact"; spec ] -> (
          match (Decimal.parse n_str, kind_of_tag kind_str) with
          | Some n, Some kind when n = Graph.n g -> (
              if List.exists (fun l -> String.trim l <> "") lines then
                err "compact routing file must be a single header line"
              else
                match Compact.of_spec ~n spec with
                | Ok c -> Ok (Routing.of_compact g kind c)
                | Error e -> err "bad compact spec: %s" e)
          | Some n, Some _ when n <> Graph.n g ->
              err "vertex count mismatch: file has %d, graph has %d" n (Graph.n g)
          | _ -> err "malformed header: %s" header)
      | [ "ftr-routing"; "1"; n_str; kind_str ] -> (
          match (Decimal.parse n_str, kind_of_tag kind_str) with
          | Some n, Some kind when n = Graph.n g -> (
              let routing = Routing.create g kind in
              let parse_line idx line =
                match String.split_on_char ' ' line with
                | [ src_s; dst_s; path_s ] -> (
                    (* Total parse: succeeds iff every comma-separated
                       part is a decimal integer. *)
                    match
                      ( Decimal.parse src_s,
                        Decimal.parse dst_s,
                        Decimal.parse_list ',' path_s )
                    with
                    | Some src, Some dst, Some vs -> (
                        match Path.of_list vs with
                        | exception Invalid_argument m -> err "line %d: %s" idx m
                        | p ->
                            if Path.source p <> src || Path.target p <> dst then
                              err "line %d: endpoints disagree with path" idx
                            else (
                              try
                                Routing.add routing p;
                                Ok ()
                              with
                              | Invalid_argument m -> err "line %d: %s" idx m
                              | Routing.Conflict _ ->
                                  err "line %d: conflicting route for (%d,%d)" idx src
                                    dst))
                    | _ -> err "line %d: malformed integers" idx)
                | _ -> err "line %d: expected 'src dst v0,v1,...'" idx
              in
              let rec go idx = function
                | [] -> Ok routing
                | "" :: rest -> go (idx + 1) rest
                | line :: rest -> (
                    match parse_line idx line with
                    | Ok () -> go (idx + 1) rest
                    | Error e -> Error e)
              in
              go 2 lines)
          | Some n, Some _ when n <> Graph.n g ->
              err "vertex count mismatch: file has %d, graph has %d" n (Graph.n g)
          | _ -> err "malformed header: %s" header)
      | _ -> err "not an ftr-routing file")
