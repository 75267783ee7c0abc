open Ftr_obs

let header = "ftr-journal/1"

type t = { path : string; oc : out_channel }

let line_of_event = function
  | Wire.Fail_node v -> Printf.sprintf "fail-node %d" v
  | Wire.Recover_node v -> Printf.sprintf "recover-node %d" v
  | Wire.Fail_link (u, v) -> Printf.sprintf "fail-link %d %d" u v
  | Wire.Recover_link (u, v) -> Printf.sprintf "recover-link %d %d" u v
  | Wire.Degrade_link (u, v, f) ->
      (* %.17g: every finite double round-trips exactly, so replay
         reconstructs the identical degradation factor. *)
      Printf.sprintf "degrade-link %d %d %.17g" u v f
  | Wire.Restore_link (u, v) -> Printf.sprintf "restore-link %d %d" u v

(* Strict decimal fields: a journal line that [int_of_string_opt]
   would stretch to fit ([0x1F], [+2], [1_0]) is corruption, not a
   delta. *)
let node v = Ftr_core.Decimal.parse v

let link u v =
  match (node u, node v) with
  | Some u, Some v -> Some (u, v)
  | _ -> None

let event_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "fail-node"; v ] -> Option.map (fun v -> Wire.Fail_node v) (node v)
  | [ "recover-node"; v ] -> Option.map (fun v -> Wire.Recover_node v) (node v)
  | [ "fail-link"; u; v ] ->
      Option.map (fun (u, v) -> Wire.Fail_link (u, v)) (link u v)
  | [ "recover-link"; u; v ] ->
      Option.map (fun (u, v) -> Wire.Recover_link (u, v)) (link u v)
  | [ "degrade-link"; u; v; f ] -> (
      match (link u v, float_of_string_opt f) with
      | Some (u, v), Some f when Float.is_finite f && f >= 1.0 ->
          Some (Wire.Degrade_link (u, v, f))
      | _ -> None)
  | [ "restore-link"; u; v ] ->
      Option.map (fun (u, v) -> Wire.Restore_link (u, v)) (link u v)
  | _ -> None

let c_torn_tails = Obs.counter "serve.journal.torn_tails"

(* Every line, the header included, is written with its newline, so
   the durable journal is the file up to and including its last
   newline. Bytes after it are the torn tail of a write that a crash
   cut short: never acknowledged, so never replayed. [read] returns
   the committed records (the lines after the header), the byte length
   of the committed prefix and whether a torn tail follows it, or the
   first line of a file that is not a journal. A file holding only a
   prefix of the header line is an empty journal with a torn tail. *)
let read path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let keep = match String.rindex_opt s '\n' with Some i -> i + 1 | None -> 0 in
  let torn = keep < String.length s in
  if keep = 0 && String.starts_with ~prefix:s header then Ok ([], 0, torn)
  else
    match String.split_on_char '\n' (String.sub s 0 (max 0 (keep - 1))) with
    | h :: records when h = header -> Ok (records, keep, torn)
    | _ -> Error (match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s)

let create path =
  match
    match if Sys.file_exists path then read path else Ok ([], 0, false) with
    | Error first ->
        Error
          (Printf.sprintf "%s: not a fault journal (expected %S, got %S)" path
             header first)
    | Ok (_, keep, torn) ->
        (* Appending after a torn tail would glue the next record onto
           it ([fail-node 12fail-node 5]): cut the tail first. *)
        if torn then Unix.truncate path keep;
        let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
        if keep = 0 then begin
          output_string oc (header ^ "\n");
          flush oc
        end;
        Ok oc
  with
  | Ok oc -> Ok { path; oc }
  | Error _ as e -> e
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let c_fsyncs = Obs.counter "serve.journal.fsyncs"

let commit t events =
  if events = [] then Ok ()
  else
    match
      List.iter
        (fun e ->
          output_string t.oc (line_of_event e);
          output_char t.oc '\n')
        events;
      flush t.oc;
      (* fsync: the group must survive a crash of the whole host
         process before the engine acts on any of it, or replay would
         under-shoot. *)
      Unix.fsync (Unix.descr_of_out_channel t.oc)
    with
    | () ->
        Obs.incr c_fsyncs;
        Ok ()
    | exception Sys_error msg -> Error msg
    | exception Unix.Unix_error (e, fn, _) ->
        Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let append t event = commit t [ event ]
let path t = t.path
let close t = try close_out t.oc with Sys_error _ -> ()

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    match read path with
    | exception Sys_error msg -> Error msg
    | Error first -> Error (Printf.sprintf "%s: bad journal header %S" path first)
    | Ok (records, _, torn) ->
        if torn then Obs.incr c_torn_tails;
        let rec loop lineno acc = function
          | [] -> Ok (List.rev acc)
          | "" :: rest -> loop (lineno + 1) acc rest
          | line :: rest -> (
              match event_of_line line with
              | Some e -> loop (lineno + 1) (e :: acc) rest
              | None ->
                  Error (Printf.sprintf "%s:%d: bad journal line %S" path lineno line))
        in
        loop 2 [] records
