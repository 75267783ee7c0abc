let write_file path contents =
  match
    Out_channel.with_open_text path (fun oc ->
        output_string oc contents;
        Out_channel.flush oc)
  with
  | () -> true
  | exception Sys_error e ->
      Printf.eprintf "cannot write %s: %s\n" path e;
      false

let safe_name label =
  String.map
    (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.') as c -> c | _ -> '-')
    label
