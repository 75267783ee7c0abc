(* [int_of_string_opt] alone would also accept hex, octal and binary
   prefixes, underscores and a leading '+'; it still does the
   conversion, so out-of-range values are rejected too. *)
let parse ?(signed = false) s =
  let len = String.length s in
  let start = if signed && len > 1 && s.[0] = '-' then 1 else 0 in
  let rec digits i = i = len || (s.[i] >= '0' && s.[i] <= '9' && digits (i + 1)) in
  if start < len && digits start then int_of_string_opt s else None

let parse_list ?signed sep s =
  let parts = String.split_on_char sep s in
  let ints = List.filter_map (parse ?signed) parts in
  if List.length ints = List.length parts then Some ints else None
