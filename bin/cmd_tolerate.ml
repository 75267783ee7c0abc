(* ftr tolerate: fault-injection check of a construction's claims. *)

open Cmdliner
open Ftr_core

let run g strategy seed faults jobs engine metrics trace =
  Cli.with_obs metrics trace @@ fun () ->
  match Cli.build g strategy seed with
  | Error code -> code
  | Ok c ->
      let rng = Random.State.make [| seed; 1 |] in
      let failures = ref 0 in
      List.iter
        (fun (claim : Construction.claim) ->
          let f = Option.value faults ~default:claim.max_faults in
          let v = Tolerance.evaluate ~rng ?jobs ?engine c ~f in
          let ok = Tolerance.respects v ~bound:claim.diameter_bound in
          if not ok then incr failures;
          Printf.printf "%-28s f=%d bound=%d worst=%s sets=%d%s -> %s\n" claim.source f
            claim.diameter_bound (Cli.dist_cell v.Tolerance.worst) v.Tolerance.sets_checked
            (if v.Tolerance.definitive then " (exhaustive)" else "")
            (if ok then "ok" else "VIOLATION");
          if not ok then
            Printf.printf "  witness fault set: %s\n"
              (Surviving.fault_set_to_string v.Tolerance.witness))
        c.claims;
      if !failures = 0 then 0 else 1

let cmd =
  Cmd.v
    (Cmd.info "tolerate" ~doc:"fault-injection check of a construction's claims")
    Term.(
      const run $ Cli.graph $ Cli.strategy $ Cli.seed $ Cli.faults $ Cli.jobs
      $ Cli.engine $ Cli.metrics $ Cli.trace)
