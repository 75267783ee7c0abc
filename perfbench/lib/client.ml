(* A blocking newline-delimited client for the daemon's Unix socket.
   One connection, any number of requests in flight: responses come
   back in request order because the daemon serves one connection's
   lines first-in first-out. *)

type t = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; buf = Bytes.create 65536; pos = 0; len = 0; line = Buffer.create 256 }
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Unix.error_message e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t line =
  let s = Bytes.unsafe_of_string (line ^ "\n") in
  let n = Bytes.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write t.fd s !off (n - !off)
  done

(* The next response line, without its newline. Raises [End_of_file]
   when the daemon closes the connection. *)
let recv t =
  Buffer.clear t.line;
  let rec go () =
    if t.pos >= t.len then begin
      t.len <- Unix.read t.fd t.buf 0 (Bytes.length t.buf);
      t.pos <- 0;
      if t.len = 0 then raise End_of_file
    end;
    match Bytes.index_from_opt t.buf t.pos '\n' with
    | Some i when i < t.len ->
        Buffer.add_subbytes t.line t.buf t.pos (i - t.pos);
        t.pos <- i + 1;
        Buffer.contents t.line
    | _ ->
        Buffer.add_subbytes t.line t.buf t.pos (t.len - t.pos);
        t.pos <- t.len;
        go ()
  in
  go ()

let call t line =
  send t line;
  recv t
