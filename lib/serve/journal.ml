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

let create path =
  match
    let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
    if size > 0 then begin
      (* Existing journal: verify the header before appending to it. *)
      let ic = open_in path in
      let first = try input_line ic with End_of_file -> "" in
      close_in ic;
      if first <> header then
        Error
          (Printf.sprintf "%s: not a fault journal (expected %S, got %S)" path
             header first)
      else
        Ok
          (open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path)
    end
    else begin
      let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
      output_string oc (header ^ "\n");
      flush oc;
      Ok oc
    end
  with
  | Ok oc -> Ok { path; oc }
  | Error _ as e -> e
  | exception Sys_error msg -> Error msg

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
    match
      let ic = open_in path in
      let first = try Some (input_line ic) with End_of_file -> None in
      match first with
      | None ->
          close_in ic;
          Ok []
      | Some h when h <> header ->
          close_in ic;
          Error (Printf.sprintf "%s: bad journal header %S" path h)
      | Some _ ->
          let rec loop lineno acc =
            match input_line ic with
            | exception End_of_file ->
                close_in ic;
                Ok (List.rev acc)
            | "" -> loop (lineno + 1) acc
            | line -> (
                match event_of_line line with
                | Some e -> loop (lineno + 1) (e :: acc)
                | None ->
                    close_in ic;
                    Error
                      (Printf.sprintf "%s:%d: bad journal line %S" path lineno
                         line))
          in
          loop 2 []
    with
    | r -> r
    | exception Sys_error msg -> Error msg
