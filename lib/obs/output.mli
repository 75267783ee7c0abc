(** Output files shared by the executables and the libraries that
    write reports: one writer whose failures are loud, and one mapping
    from labels to file names. *)

val write_file : string -> string -> bool
(** [write_file path contents] writes [contents] to [path]
    (truncating). On failure it prints [cannot write PATH: ...] to
    stderr and returns [false]; the commands then exit 3. The flush
    happens inside the open, so a failed write such as ENOSPC
    surfaces here: the closing [close_out_noerr] would drop it. *)

val safe_name : string -> string
(** [label] with every character outside [[A-Za-z0-9._-]] replaced by
    ['-'], for use as a file name. *)
