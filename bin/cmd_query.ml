(* ftr query: client for a running serve daemon, with transport
   retries. *)

open Cmdliner
module Serve = Ftr_serve

(* Transport-level retries performed by `ftr query` (connect refused,
   connection lost, read timeout) — one tick per re-attempt. *)
let c_query_retries = Ftr_obs.Obs.counter "query.retries"

let parse_request s =
  if String.length s > 0 && s.[0] = '{' then Ok s
  else
    let line r = Ok (Serve.Wire.request_to_line r) in
    let int = Ftr_core.Decimal.parse ~signed:true in
    let node mk v =
      match int v with
      | Some v -> line (Serve.Wire.Fault (mk v))
      | None -> Error (Printf.sprintf "bad node in %S" s)
    in
    let link mk u v =
      match (int u, int v) with
      | Some u, Some v -> line (Serve.Wire.Fault (mk u v))
      | _ -> Error (Printf.sprintf "bad link in %S" s)
    in
    match String.split_on_char ':' s with
    | [ "health" ] -> line Serve.Wire.Health
    | [ "ready" ] -> line Serve.Wire.Ready
    | [ "stats" ] -> line Serve.Wire.Stats
    | [ "drain" ] -> line Serve.Wire.Drain
    | [ "diameter" ] -> line Serve.Wire.Diameter
    | [ "route"; a; b ] -> (
        match (int a, int b) with
        | Some src, Some dst -> line (Serve.Wire.Route { src; dst })
        | _ -> Error (Printf.sprintf "bad route endpoints in %S" s))
    | [ "fail"; v ] -> node (fun v -> Serve.Wire.Fail_node v) v
    | [ "recover"; v ] -> node (fun v -> Serve.Wire.Recover_node v) v
    | [ "fail-link"; u; v ] ->
        link (fun u v -> Serve.Wire.Fail_link (u, v)) u v
    | [ "recover-link"; u; v ] ->
        link (fun u v -> Serve.Wire.Recover_link (u, v)) u v
    | [ "degrade-link"; u; v; f ] -> (
        match float_of_string_opt f with
        | Some f when Float.is_finite f && f >= 1.0 ->
            link (fun u v -> Serve.Wire.Degrade_link (u, v, f)) u v
        | _ -> Error (Printf.sprintf "bad degrade factor in %S" s))
    | [ "restore-link"; u; v ] ->
        link (fun u v -> Serve.Wire.Restore_link (u, v)) u v
    | _ -> Error (Printf.sprintf "cannot parse request %S" s)

(* One full attempt: connect, send every request, read every
   response. [Error msg] means the daemon was unreachable or the
   connection died mid-stream — the transport failures a retry can
   fix. An ok=false response is an application answer, never
   retried. *)
let attempt socket timeout lines =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket
           (Unix.error_message e))
  | () ->
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
       with Unix.Unix_error _ -> ());
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let all_ok = ref true in
      let result =
        try
          List.iter
            (fun l ->
              output_string oc (l ^ "\n");
              flush oc;
              let resp = input_line ic in
              print_endline resp;
              match Serve.Sjson.parse resp with
              | Ok json
                when Option.value ~default:false
                       (Option.bind
                          (Serve.Sjson.member "ok" json)
                          Serve.Sjson.to_bool) ->
                  ()
              | _ -> all_ok := false)
            lines;
          Ok (if !all_ok then 0 else 1)
        with
        | End_of_file | Sys_error _ -> Error "connection lost"
        | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      result

let run socket timeout retries retry_deadline reqs metrics trace =
  Cli.with_obs metrics trace @@ fun () ->
  if reqs = [] then begin
    Printf.eprintf "query: no requests given\n";
    2
  end
  else begin
    let parsed = List.map parse_request reqs in
    let errors =
      List.filter_map (function Error e -> Some e | Ok _ -> None) parsed
    in
    if errors <> [] then begin
      List.iter (fun e -> Printf.eprintf "query: %s\n" e) errors;
      2
    end
    else begin
      let lines =
        List.filter_map (function Ok l -> Some l | Error _ -> None) parsed
      in
      (* Capped exponential backoff: 0.1s, 0.2s, 0.4s, ... topping
         out at 2s, all under one total wall-clock budget. *)
      let start = Unix.gettimeofday () in
      let backoff k = Float.min 2.0 (0.1 *. (2.0 ** float_of_int k)) in
      let rec go k =
        match attempt socket timeout lines with
        | Ok rc -> rc
        | Error msg ->
            let elapsed = Unix.gettimeofday () -. start in
            if k >= retries then begin
              Printf.eprintf "query: %s\n" msg;
              3
            end
            else if elapsed +. backoff k > retry_deadline then begin
              Printf.eprintf
                "query: %s (retry deadline %.1fs spent after %d attempt(s))\n"
                msg retry_deadline (k + 1);
              3
            end
            else begin
              Printf.eprintf "query: %s, retrying in %.1fs (%d/%d)\n" msg
                (backoff k) (k + 1) retries;
              Unix.sleepf (backoff k);
              Ftr_obs.Obs.incr c_query_retries;
              go (k + 1)
            end
      in
      go 0
    end
  end

let cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's socket.")
  in
  let timeout =
    Cli.flag ~range:Cli.positive_float Arg.float 10.0 ~names:[ "timeout" ] ~docv:"SEC"
      ~doc:"Give up on a response after $(docv) seconds."
  in
  let retries =
    Cli.flag ~range:Cli.non_negative Cli.int 0 ~names:[ "retries" ] ~docv:"N"
      ~doc:
        "Retry the whole request batch up to $(docv) times when the daemon \
         cannot be reached or the connection dies mid-stream (capped \
         exponential backoff between attempts). Application errors — a \
         response with ok=false — are never retried."
  in
  let retry_deadline =
    Cli.flag ~range:Cli.positive_float Arg.float 30.0 ~names:[ "retry-deadline" ]
      ~docv:"SEC"
      ~doc:
        "Total wall-clock budget across all attempts; once spent, no further \
         retry is scheduled even if $(b,--retries) remain."
  in
  let reqs =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Requests, sent in order: raw JSON (anything starting with '{') or \
             shorthand $(b,health), $(b,ready), $(b,stats), $(b,drain), \
             $(b,diameter), $(b,route:SRC:DST), $(b,fail:V), $(b,recover:V), \
             $(b,fail-link:U:V), $(b,recover-link:U:V), \
             $(b,degrade-link:U:V:FACTOR), $(b,restore-link:U:V).")
  in
  Cmd.v
    (Cmd.info "query" ~exits:Cli.soak_exits
       ~doc:
         "send requests to a running `ftr serve` daemon and print each \
          response; exits non-zero if any response is not ok; transport \
          failures retry under a capped exponential backoff when \
          $(b,--retries) is given")
    Term.(
      const run $ socket $ timeout $ retries $ retry_deadline $ reqs $ Cli.metrics
      $ Cli.trace)
