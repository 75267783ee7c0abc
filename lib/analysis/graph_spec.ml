open Ftr_graph
open Ftr_core

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let rng_of = function
  | Some seed -> (
      match Decimal.parse ~signed:true seed with
      | Some s -> Random.State.make [| s |]
      | None ->
          (* Caught by [parse]'s Invalid_argument handler and turned
             into an Error, where the old Failure escaped to the CLI. *)
          invalid_arg (Printf.sprintf "seed: expected an integer, got %S" seed))
  | None -> Random.State.make [| 0xC0FFEE |]

let parse spec =
  let int_arg name s k =
    match Decimal.parse s with
    | Some v -> k v
    | None -> fail "%s: expected an integer, got %S" name s
  in
  try
    match String.split_on_char ':' spec with
    | [ "petersen" ] -> Ok (Families.petersen ())
    | [ "cycle"; n ] -> int_arg "cycle" n (fun n -> Ok (Families.cycle n))
    | [ "path"; n ] -> int_arg "path" n (fun n -> Ok (Families.path_graph n))
    | [ "complete"; n ] -> int_arg "complete" n (fun n -> Ok (Families.complete n))
    | [ "star"; n ] -> int_arg "star" n (fun n -> Ok (Families.star n))
    | [ "wheel"; n ] -> int_arg "wheel" n (fun n -> Ok (Families.wheel n))
    | [ "hypercube"; d ] -> int_arg "hypercube" d (fun d -> Ok (Families.hypercube d))
    | [ "ccc"; d ] -> int_arg "ccc" d (fun d -> Ok (Families.ccc d))
    | [ "butterfly"; d ] -> int_arg "butterfly" d (fun d -> Ok (Families.butterfly d))
    | [ "debruijn"; d ] -> int_arg "debruijn" d (fun d -> Ok (Families.de_bruijn d))
    | [ "shuffle"; d ] -> int_arg "shuffle" d (fun d -> Ok (Families.shuffle_exchange d))
    | [ "grid"; d ] -> (
        match Decimal.parse_list 'x' d with
        | Some [ r; c ] -> Ok (Families.grid r c)
        | _ -> fail "grid: expected RxC")
    | [ "torus"; d ] -> (
        match Decimal.parse_list 'x' d with
        | Some [ r; c ] -> Ok (Families.torus r c)
        | _ -> fail "torus: expected RxC")
    | [ "torus3"; d ] -> (
        match Decimal.parse_list 'x' d with
        | Some [ a; b; c ] -> Ok (Families.torus3 a b c)
        | _ -> fail "torus3: expected AxBxC")
    | [ "bipartite"; a; b ] ->
        int_arg "bipartite" a (fun a ->
            int_arg "bipartite" b (fun b -> Ok (Families.complete_bipartite a b)))
    | [ "circulant"; n; offsets ] ->
        int_arg "circulant" n (fun n ->
            match Decimal.parse_list ',' offsets with
            | Some offs -> Ok (Families.circulant n offs)
            | None -> fail "circulant: expected offsets o1,o2,..., got %S" offsets)
    | "gnp" :: n :: p :: seed ->
        int_arg "gnp" n (fun n ->
            match float_of_string_opt p with
            | Some p ->
                Ok (Random_graphs.gnp ~rng:(rng_of (List.nth_opt seed 0)) n p)
            | None -> fail "gnp: bad probability %S" p)
    | "gnm" :: n :: m :: seed ->
        int_arg "gnm" n (fun n ->
            int_arg "gnm" m (fun m ->
                Ok (Random_graphs.gnm ~rng:(rng_of (List.nth_opt seed 0)) n m)))
    | "regular" :: n :: d :: seed ->
        int_arg "regular" n (fun n ->
            int_arg "regular" d (fun d ->
                Ok (Random_graphs.regular ~rng:(rng_of (List.nth_opt seed 0)) n d)))
    | _ -> fail "unknown graph spec %S" spec
  with Invalid_argument msg -> fail "%s" msg

let conv =
  let parser s = parse s in
  let printer ppf g = Fmt.pf ppf "<graph n=%d m=%d>" (Graph.n g) (Graph.m g) in
  (parser, printer)
