type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------------------------------------------------------------- *)
(* Printing                                                          *)

let needs_escape c = c = '"' || c = '\\' || c < ' '

let rec clean s i = i >= String.length s || ((not (needs_escape s.[i])) && clean s (i + 1))

let escape buf s =
  if clean s 0 then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

(* The decimal digits of [-i] for [i <= 0]: counting on the negative
   side reaches [min_int] too. *)
let rec add_digits buf i =
  if i <= -10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.chr (48 - (i mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

(* [x >= 0] in exactly [width] digits, zero-padded on the left. *)
let rec add_padded buf x width =
  if width > 1 then add_padded buf (x / 10) (width - 1);
  Buffer.add_char buf (Char.chr (48 + (x mod 10)))

(* The shortest of [%.12g] and [%.17g] that round-trips ([%.17g]
   always does).

   Fast path, exact: when [k = round (f * 1e6)] gives back [f] as
   [k / 1e6] (one correctly rounded division of two exact doubles), [f]
   is the double nearest the decimal [D = k * 10^-6]. With [|k| <
   10^12], [D] has at most 12 significant digits, so rounding [f] to 12
   digits gives [D] back and [%.12g] round-trips. With [10^-4 <= |f| <
   10^6] as well, [%g]'s exponent lies in [-4, 5], inside its fixed
   notation range [-4, 12), so [%.12g] prints [D] in fixed notation
   without trailing zeros: the integer part of [|k| / 10^6], then the
   six fraction digits of [|k| mod 10^6] with trailing zeros dropped.
   Positive zero ([%.12g] prints "0") takes the path too; negative zero
   ("-0") and the nonzero floats below [10^-4] (exponent notation) do
   not. Service times are whole nanoseconds in ms, so all of them from
   100 ns up, and zero, take this path; every other float takes the
   probe. *)
let add_float buf f =
  let k = Float.round (f *. 1e6) in
  if
    (Float.abs f >= 1e-4 || (f = 0.0 && not (Float.sign_bit f)))
    && Float.abs k < 1e12
    && k /. 1e6 = f
  then begin
    let k = int_of_float k in
    if k < 0 then Buffer.add_char buf '-';
    let a = abs k in
    add_int buf (a / 1_000_000);
    let frac = ref (a mod 1_000_000) and width = ref 6 in
    if !frac <> 0 then begin
      while !frac mod 10 = 0 do
        frac := !frac / 10;
        decr width
      done;
      Buffer.add_char buf '.';
      add_padded buf !frac !width
    end
  end
  else
    let s = Printf.sprintf "%.12g" f in
    Buffer.add_string buf
      (if float_of_string_opt s = Some f then s else Printf.sprintf "%.17g" f)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> if Float.is_finite f then add_float buf f else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* ---------------------------------------------------------------- *)
(* Parsing                                                           *)

(* One pass over [s] with a position index; every error names the
   offset where the scan stopped. *)
type cursor = { s : string; n : int; mutable pos : int }

exception Bad of string

let fail c msg = raise (Bad (Printf.sprintf "%s at offset %d" msg c.pos))
let at c ch = c.pos < c.n && c.s.[c.pos] = ch

let skip_ws c =
  while
    c.pos < c.n && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  if at c ch then c.pos <- c.pos + 1 else fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let l = String.length word in
  let rec same k = k = l || (c.s.[c.pos + k] = word.[k] && same (k + 1)) in
  if c.pos + l <= c.n && same 0 then begin
    c.pos <- c.pos + l;
    value
  end
  else fail c (Printf.sprintf "expected '%s'" word)

let hex_val c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c "bad \\u escape"

(* The rest of a string that has an escape, from [c.pos], appended to
   [buf]. *)
let rec escaped c buf =
  if c.pos >= c.n then fail c "unterminated string";
  match c.s.[c.pos] with
  | '"' ->
      c.pos <- c.pos + 1;
      Buffer.contents buf
  | '\\' ->
      c.pos <- c.pos + 1;
      let plain ch =
        Buffer.add_char buf ch;
        c.pos <- c.pos + 1
      in
      (match if c.pos < c.n then c.s.[c.pos] else '\000' with
      | '"' -> plain '"'
      | '\\' -> plain '\\'
      | '/' -> plain '/'
      | 'n' -> plain '\n'
      | 'r' -> plain '\r'
      | 't' -> plain '\t'
      | 'u' ->
          c.pos <- c.pos + 1;
          if c.pos + 4 > c.n then fail c "truncated \\u escape";
          (* Exactly four hex digits, checked character by character:
             int_of_string_opt "0x…" also accepts OCaml numeric-literal
             syntax (underscores, a second "0x"), so "\u00_a" or
             "\ux20a" would parse as a shorter number and silently
             decode the wrong codepoint. *)
          let code = ref 0 in
          for i = c.pos to c.pos + 3 do
            code := (!code * 16) + hex_val c c.s.[i]
          done;
          (* Only BMP codepoints below 0x80 round-trip as one byte;
             others degrade to '?' — the wire protocol is ASCII in
             practice. *)
          Buffer.add_char buf (if !code < 0x80 then Char.chr !code else '?');
          c.pos <- c.pos + 4
      | _ -> fail c "bad escape");
      escaped c buf
  | ch ->
      Buffer.add_char buf ch;
      c.pos <- c.pos + 1;
      escaped c buf

(* A string without escapes is one [String.sub]. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let i = ref start in
  while !i < c.n && c.s.[!i] <> '"' && c.s.[!i] <> '\\' do
    incr i
  done;
  if !i < c.n && c.s.[!i] = '"' then begin
    c.pos <- !i + 1;
    String.sub c.s start (!i - start)
  end
  else begin
    let buf = Buffer.create (!i - start + 16) in
    Buffer.add_substring buf c.s start (!i - start);
    c.pos <- !i;
    escaped c buf
  end

(* [Ftr_core.Decimal.parse ~signed:true] of [s.[lo, hi)], read in
   place: one leading '-' (not on its own), then digits only, within
   the range of [int]. The value is accumulated on the negative side,
   where [min_int] fits. *)
let decimal c lo hi =
  let s = c.s in
  let neg = hi - lo > 1 && s.[lo] = '-' in
  let acc = ref 0 in
  for i = (if neg then lo + 1 else lo) to hi - 1 do
    let ch = s.[i] in
    if ch < '0' || ch > '9' then fail c "bad number";
    let d = Char.code ch - 48 in
    if !acc < min_int / 10 || (!acc = min_int / 10 && d > -(min_int mod 10)) then
      fail c "bad number";
    acc := (!acc * 10) - d
  done;
  if neg then Int !acc
  else if !acc = min_int then fail c "bad number"
  else Int (- !acc)

(* A number token runs over [0-9+-.eE]; one with '.', 'e' or 'E' is a
   float for [float_of_string_opt], any other a strict decimal. *)
let parse_number c =
  let start = c.pos in
  let floating = ref false in
  while
    c.pos < c.n
    &&
    match c.s.[c.pos] with
    | '0' .. '9' | '-' | '+' -> true
    | '.' | 'e' | 'E' ->
        floating := true;
        true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  if !floating then
    match float_of_string_opt (String.sub c.s start (c.pos - start)) with
    | Some f -> Float f
    | None -> fail c "bad number"
  else decimal c start c.pos

let rec parse_value c =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match c.s.[c.pos] with
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (fields c [])
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else Arr (items c [])
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

and fields c acc =
  skip_ws c;
  let key = parse_string c in
  skip_ws c;
  expect c ':';
  let value = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    fields c ((key, value) :: acc)
  end
  else if at c '}' then begin
    c.pos <- c.pos + 1;
    List.rev ((key, value) :: acc)
  end
  else fail c "expected ',' or '}'"

and items c acc =
  let value = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    items c (value :: acc)
  end
  else if at c ']' then begin
    c.pos <- c.pos + 1;
    List.rev (value :: acc)
  end
  else fail c "expected ',' or ']'"

let parse s =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ---------------------------------------------------------------- *)
(* Accessors                                                         *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr items -> Some items | _ -> None

let int_pair = function
  | Arr [ Int a; Int b ] -> Some (a, b)
  | _ -> None
