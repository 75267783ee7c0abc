(* The serve layer: JSON dialect, wire protocol, write-ahead journal,
   admission control, the warm engine, the request core, and the
   scenario runner (SLO soak and chaos) — plus end-to-end checks that spawn the real
   `ftr serve` daemon over a Unix socket and exercise the documented
   exit codes through the real executable. *)

open Ftr_graph
open Ftr_core
module Serve = Ftr_serve
module Sjson = Serve.Sjson
module Wire = Serve.Wire
module Journal = Serve.Journal
module Admission = Serve.Admission
module Engine = Serve.Engine
module Server = Serve.Server
module Scenario = Serve.Scenario
module Exit_code = Serve.Exit_code
module Obs = Ftr_obs.Obs
module Diagnostic = Ftr_lint.Diagnostic

(* ---------------- sjson ---------------- *)

let test_sjson_print () =
  let v =
    Sjson.Obj
      [
        ("ok", Sjson.Bool true);
        ("n", Sjson.Int (-3));
        ("p", Sjson.Float 1.5);
        ("s", Sjson.Str "a\"b\n");
        ("xs", Sjson.Arr [ Sjson.Int 0; Sjson.Null ]);
      ]
  in
  Alcotest.(check string) "one canonical line"
    {|{"ok":true,"n":-3,"p":1.5,"s":"a\"b\n","xs":[0,null]}|}
    (Sjson.to_string v)

let test_sjson_nonfinite_floats () =
  Alcotest.(check string) "nan is null" "null" (Sjson.to_string (Sjson.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Sjson.to_string (Sjson.Float Float.infinity))

let test_sjson_roundtrip () =
  let v =
    Sjson.Obj
      [
        ("a", Sjson.Arr [ Sjson.Int 1; Sjson.Float 2.25; Sjson.Str "x" ]);
        ("b", Sjson.Obj [ ("c", Sjson.Bool false); ("d", Sjson.Null) ]);
      ]
  in
  match Sjson.parse (Sjson.to_string v) with
  | Error e -> Alcotest.fail ("roundtrip parse failed: " ^ e)
  | Ok v' ->
      Alcotest.(check string) "print/parse/print fixpoint" (Sjson.to_string v)
        (Sjson.to_string v')

let test_sjson_parse_errors () =
  let bad s =
    match Sjson.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
  in
  bad "";
  bad "{";
  bad "tru";
  bad "{\"a\":1} trailing";
  bad "[1,]";
  bad "\"unterminated";
  (* integers are strict decimals: the OCaml-literal spellings
     [int_of_string_opt] accepts are not JSON *)
  bad "+2";
  bad "{\"src\":+2}";
  bad "[0x1F]";
  bad "1_0";
  bad "-"

(* \u escapes are exactly four hex digits. The old decoder fed
   "0x" ^ hex to int_of_string_opt, whose OCaml-literal syntax also
   accepts underscores and a second 0x/0o/0b prefix — so junk like
   "\u00_a" decoded as 0xA instead of being rejected. *)
let test_sjson_unicode_escapes () =
  let ok wire expected =
    match Sjson.parse wire with
    | Ok (Sjson.Str s) -> Alcotest.(check string) wire expected s
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed to a non-string" wire)
    | Error e -> Alcotest.failf "%S should parse: %s" wire e
  in
  let bad wire =
    match Sjson.parse wire with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" wire)
  in
  ok "\"\\u0041\"" "A";
  ok "\"\\u006a\"" "j";
  ok "\"\\u006A\"" "j";
  ok "\"\\u0000\"" "\000";
  (* non-ASCII degrades to '?' (documented: the wire is ASCII) *)
  ok "\"\\u20ac\"" "?";
  bad "\"\\u00_a\"";
  bad "\"\\u0x41\"";
  bad "\"\\u004\"";
  bad "\"\\u004g\"";
  bad "\"\\u 041\"";
  bad "\"\\u+041\"";
  bad "\"\\u-041\""

let test_sjson_accessors () =
  match Sjson.parse {|{"i":7,"f":2.5,"s":"hi","b":true,"l":[3,4]}|} with
  | Error e -> Alcotest.fail e
  | Ok v ->
      let get name = Option.get (Sjson.member name v) in
      Alcotest.(check (option int)) "int" (Some 7) (Sjson.to_int (get "i"));
      Alcotest.(check (option (float 1e-9))) "float" (Some 2.5)
        (Sjson.to_float (get "f"));
      Alcotest.(check (option (float 1e-9))) "int reads as float" (Some 7.0)
        (Sjson.to_float (get "i"));
      Alcotest.(check (option string)) "str" (Some "hi") (Sjson.to_str (get "s"));
      Alcotest.(check (option bool)) "bool" (Some true) (Sjson.to_bool (get "b"));
      Alcotest.(check (option (pair int int))) "int pair" (Some (3, 4))
        (Sjson.int_pair (get "l"));
      Alcotest.(check bool) "missing member" true (Sjson.member "zz" v = None);
      Alcotest.(check bool) "shape mismatch is None" true
        (Sjson.to_int (get "s") = None)

(* Service times are rounded to whole nanoseconds where the server
   measures them, so they print in at most 12 significant digits:
   Sjson's first [%.12g] probe already round-trips them. *)
let test_sjson_quantised_roundtrip () =
  List.iter
    (fun ns ->
      let ms = Float.of_int ns /. 1e6 in
      let text = Sjson.to_string (Sjson.Float ms) in
      Alcotest.(check string) (Printf.sprintf "%d ns prints at %%.12g" ns)
        (Printf.sprintf "%.12g" ms) text;
      match Sjson.parse text with
      | Ok (Sjson.Float back) ->
          Alcotest.(check bool) (text ^ " round-trips exactly") true (back = ms)
      | Ok (Sjson.Int back) ->
          Alcotest.(check bool) (text ^ " round-trips exactly") true
            (Float.of_int back = ms)
      | Ok _ | Error _ -> Alcotest.failf "%s does not parse back as a number" text)
    [ 0; 1; 7; 999; 1000; 123_456; 987_654_321; 12_345_678_901; 999_999_999_999 ]

(* The codec as it stood before its one-pass scanner and fast
   encoder, kept verbatim as the oracle the properties below compare
   against: the rewrite must give the same Ok values and the same
   Error messages, and print every float with the same bytes. *)
module Oracle = struct
  let float_repr f =
    let s = Printf.sprintf "%.12g" f in
    if float_of_string_opt s = Some f then s else Printf.sprintf "%.17g" f

  exception Bad of string

  let parse s =
    let open Sjson in
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected '%s'" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
            advance ();
            (match peek () with
            | Some '"' -> Buffer.add_char buf '"'; advance ()
            | Some '\\' -> Buffer.add_char buf '\\'; advance ()
            | Some '/' -> Buffer.add_char buf '/'; advance ()
            | Some 'n' -> Buffer.add_char buf '\n'; advance ()
            | Some 'r' -> Buffer.add_char buf '\r'; advance ()
            | Some 't' -> Buffer.add_char buf '\t'; advance ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex_val c =
                  match c with
                  | '0' .. '9' -> Char.code c - Char.code '0'
                  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
                  | _ -> fail "bad \\u escape"
                in
                let code = ref 0 in
                for i = !pos to !pos + 3 do
                  code := (!code * 16) + hex_val s.[i]
                done;
                Buffer.add_char buf (if !code < 0x80 then Char.chr !code else '?');
                pos := !pos + 4
            | _ -> fail "bad escape");
            loop ()
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
      if is_float then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match Decimal.parse ~signed:true tok with
        | Some i -> Int i
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let value = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((key, value) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((key, value) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (fields [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec items acc =
              let value = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (value :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (value :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (items [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg
end

(* Floats the server writes (service times quantised to whole
   nanoseconds, in ms) and arbitrary finite ones print with the
   oracle's bytes. *)
let prop_float_repr_matches_oracle =
  let quantised =
    QCheck.Gen.(
      oneof
        [
          map (fun ns -> Float.of_int ns /. 1e6) (int_range 0 10_000_000_000);
          map (fun k -> Float.of_int k /. 1e6) (int_range (-999_999_999_999) 999_999_999_999);
          map (fun k -> Float.of_int k /. 1e6) (int_range (-2000) 2000);
        ])
  in
  (* the edges of the fast path: zeros, 10^-4, 10^6 and their
     neighbours *)
  let edges =
    QCheck.Gen.oneofl
      [ 0.0; -0.0; 1e-4; -1e-4; Float.pred 1e-4; Float.succ 1e-4; 999_999.999_999;
        -999_999.999_999; 1e6; Float.pred 1e6; 0.1; 0.3; 1e-6; 123456.5 ]
  in
  let arbitrary =
    QCheck.Gen.(
      oneof
        [
          float;
          map (fun (m, e) -> Float.ldexp m e) (pair (float_range (-1.0) 1.0) (int_range (-80) 80));
          map (fun k -> Float.of_int k /. 1e6 *. 1.0000001) (int_range (-1_000_000) 1_000_000);
        ])
  in
  QCheck.Test.make ~name:"float printing matches the %.12g/%.17g oracle" ~count:20_000
    QCheck.(make ~print:(Printf.sprintf "%h") QCheck.Gen.(oneof [ quantised; arbitrary; edges ]))
    (fun f ->
      QCheck.assume (Float.is_finite f);
      Sjson.to_string (Sjson.Float f) = Oracle.float_repr f)

(* Byte mutations of real wire and reply lines, and number tokens at
   the edges of the int range: the parser must agree with the oracle
   on the value or on the exact error, and never raise. *)
let prop_parse_matches_oracle =
  let lines =
    Array.of_list
      (List.map Wire.request_to_line
         [
           Wire.Route { src = 3; dst = 41 };
           Wire.Route { src = -7; dst = 4611686018427387903 };
           Wire.Diameter;
           Wire.Health;
           Wire.Stats;
           Wire.Fault (Wire.Fail_node 12);
           Wire.Fault (Wire.Recover_link (4, 36));
           Wire.Fault (Wire.Degrade_link (0, 1, 2.75));
         ]
      @ [
          {|{"ok":true,"degraded":false,"mode":"routed","routes":2,"hops":5,"path":[58,0,2],"service_ms":0.003125}|};
          {|{"ok":false,"error":"bad json: expected ':' at offset 7","service_ms":1.5e-05}|};
          {|{"ok":true,"uptime_ms":1234.5,"draining":false,"queue":0,"node_faults":[],"link_faults":[[1,2]],"degraded_links":[[0,1,8]]}|};
          {|{"s":"tab\t, quote\", slash\/, nl\n, A€","n":null,"e":-1.25E+3}|};
          {| [ 1 , -0 , 2.5e3 , true , false , null , "x" , { } , [ ] ] |};
        ])
  in
  let mutated =
    QCheck.Gen.(
      let* line = oneofl (Array.to_list lines) in
      let* edits = int_range 1 3 in
      let junk = "{}[]\",:-+.eE0123456789 \t\n\\/ubfnrtx_\000\255" in
      let edit s =
        let l = String.length s in
        let* i = int_bound (max 0 (l - 1)) in
        let* c = map (String.get junk) (int_bound (String.length junk - 1)) in
        let* kind = int_bound 3 in
        return
          (if l = 0 then String.make 1 c
           else
             match kind with
             | 0 -> String.sub s 0 i ^ String.sub s (i + 1) (l - i - 1)
             | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (l - i - 1)
             | 2 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (l - i)
             | _ -> String.sub s 0 i)
      in
      let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
      go edits line)
  in
  (* Number tokens at the edges of the strict-decimal and float rules,
     integers at and one past the ends of the int range among them. *)
  let numbers =
    QCheck.Gen.oneofl
      [
        "4611686018427387903"; "4611686018427387904"; "4611686018427387905";
        "4611686018427387906"; "-4611686018427387904"; "-4611686018427387905";
        "-4611686018427387906"; "46116860184273879030"; "-46116860184273879040";
        "00000000000000000000000000001"; "-0"; "-"; "--1"; "1-2"; "+1"; "1e";
        "1.e5"; "-.5"; "1e400"; "[9223372036854775807]"; "[-4611686018427387904,0]";
      ]
  in
  QCheck.Test.make ~name:"parse matches the oracle on mutated lines and number edges" ~count:20_000
    QCheck.(make ~print:(Printf.sprintf "%S") Gen.(frequency [ (9, mutated); (1, numbers) ]))
    (fun s ->
      match Sjson.parse s with
      | r -> r = Oracle.parse s
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* Printing then parsing is the identity. Integral floats are left
   out: "2" reads back as [Int 2] by design. *)
let prop_parse_print_roundtrip =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  let value =
    sized
    @@ fix (fun self size ->
           let leaf =
             [
               return Sjson.Null;
               map (fun b -> Sjson.Bool b) bool;
               map (fun i -> Sjson.Int i) (oneof [ int; small_signed_int ]);
               map (fun f -> Sjson.Float f)
                 (oneof [ float; map (fun k -> Float.of_int k /. 1e6) (int_range (-1_000_000_000) 1_000_000_000) ]);
               map (fun s -> Sjson.Str s) str;
             ]
           in
           if size <= 1 then oneof leaf
           else
             let sub = self (size / 3) in
             oneof
               (leaf
               @ [
                   map (fun l -> Sjson.Arr l) (list_size (int_bound 4) sub);
                   map (fun l -> Sjson.Obj l) (list_size (int_bound 4) (pair str sub));
                 ]))
  in
  let rec printable = function
    | Sjson.Float f -> Float.is_finite f && not (Float.is_integer f)
    | Sjson.Arr l -> List.for_all printable l
    | Sjson.Obj l -> List.for_all (fun (_, v) -> printable v) l
    | _ -> true
  in
  QCheck.Test.make ~name:"parse (to_string v) = Ok v" ~count:5_000
    QCheck.(make ~print:Sjson.to_string value)
    (fun v ->
      QCheck.assume (printable v);
      Sjson.parse (Sjson.to_string v) = Ok v)

(* ---------------- wire ---------------- *)

let test_wire_roundtrip () =
  let reqs =
    [
      Wire.Route { src = 3; dst = 17 };
      Wire.Diameter;
      Wire.Fault (Wire.Fail_node 5);
      Wire.Fault (Wire.Recover_node 5);
      Wire.Fault (Wire.Fail_link (2, 9));
      Wire.Fault (Wire.Recover_link (2, 9));
      Wire.Fault (Wire.Degrade_link (2, 9, 3.5));
      (* a factor that exercises the exact float round-trip *)
      Wire.Fault (Wire.Degrade_link (0, 4, 1.0000000000000002));
      Wire.Fault (Wire.Restore_link (2, 9));
      Wire.Health;
      Wire.Ready;
      Wire.Stats;
      Wire.Drain;
    ]
  in
  List.iter
    (fun r ->
      let line = Wire.request_to_line r in
      match Wire.request_of_line line with
      | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip %s" line)
            true (r = r')
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" line e))
    reqs

let test_wire_rejects_garbage () =
  let bad line =
    match Wire.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" line)
  in
  bad "not json";
  bad {|{"op":"warp"}|};
  bad {|{"op":"route","src":1}|};
  bad {|{"op":"fault","action":"fail"}|};
  bad {|{"op":"fault","action":"explode","node":1}|};
  (* gray-failure deltas: link-only, factor finite and >= 1 *)
  bad {|{"op":"fault","action":"degrade","link":[1,2]}|};
  bad {|{"op":"fault","action":"degrade","link":[1,2],"factor":0.5}|};
  bad {|{"op":"fault","action":"degrade","node":1,"factor":2.0}|};
  bad {|{"op":"fault","action":"restore","node":1}|}

(* ---------------- exit codes ---------------- *)

let test_exit_codes () =
  Alcotest.(check int) "clean" 0 (Exit_code.to_int Exit_code.Clean);
  Alcotest.(check int) "breach" 1 (Exit_code.to_int Exit_code.Breach);
  Alcotest.(check int) "usage" 2 (Exit_code.to_int Exit_code.Usage);
  Alcotest.(check int) "infra" 3 (Exit_code.to_int Exit_code.Infra);
  Alcotest.(check string) "describe breach" "slo-breach"
    (Exit_code.describe Exit_code.Breach);
  Alcotest.(check bool) "infra beats breach" true
    (Exit_code.worst Exit_code.Breach Exit_code.Infra = Exit_code.Infra);
  Alcotest.(check bool) "breach beats clean" true
    (Exit_code.worst Exit_code.Clean Exit_code.Breach = Exit_code.Breach)

(* ---------------- journal ---------------- *)

let with_temp_file name f =
  (try Sys.remove name with Sys_error _ -> ());
  Fun.protect
    (fun () -> f name)
    ~finally:(fun () -> try Sys.remove name with Sys_error _ -> ())

let test_journal_roundtrip () =
  with_temp_file "t-journal-rt.journal" @@ fun path ->
  let events =
    [
      Wire.Fail_node 3;
      Wire.Fail_link (2, 5);
      Wire.Degrade_link (1, 4, 3.0625);
      (* a factor %.12g would mangle: must survive via %.17g *)
      Wire.Degrade_link (0, 1, 1.0000000000000002);
      Wire.Recover_node 3;
      Wire.Restore_link (1, 4);
      Wire.Recover_link (2, 5);
    ]
  in
  (match Journal.create path with
  | Error e -> Alcotest.fail e
  | Ok j ->
      List.iter
        (fun e ->
          Alcotest.(check (result unit string))
            "durable" (Ok ()) (Journal.append j e))
        events;
      Journal.close j);
  match Journal.load path with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      Alcotest.(check bool) "events in append order" true (loaded = events)

let test_journal_missing_is_empty () =
  match Journal.load "t-journal-never-created.journal" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "missing journal should be empty"
  | Error e -> Alcotest.fail e

let test_journal_rejects_foreign_file () =
  with_temp_file "t-journal-foreign.journal" @@ fun path ->
  let oc = open_out path in
  output_string oc "this is not a journal\n";
  close_out oc;
  (match Journal.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header should not load");
  match Journal.create path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header should not open for append"

let test_journal_rejects_bad_line () =
  with_temp_file "t-journal-badline.journal" @@ fun path ->
  let oc = open_out path in
  output_string oc (Journal.header ^ "\n");
  output_string oc "fail-node 1\n";
  output_string oc "explode 7\n";
  close_out oc;
  match Journal.load path with
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "malformed line should not load"

let test_journal_rejects_bad_degrade_factor () =
  with_temp_file "t-journal-badfactor.journal" @@ fun path ->
  let oc = open_out path in
  output_string oc (Journal.header ^ "\n");
  output_string oc "degrade-link 1 2 0.5\n";
  close_out oc;
  match Journal.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sub-1 degrade factor should not load"

let write_journal path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (Journal.header :: lines);
  close_out oc

(* Node and link fields are strict decimals: OCaml-literal spellings
   that [int_of_string_opt] used to accept are malformed lines. *)
let test_journal_rejects_non_decimal_fields () =
  with_temp_file "t-journal-strict.journal" @@ fun path ->
  List.iter
    (fun line ->
      write_journal path [ "fail-node 1"; line ];
      match Journal.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not load" line)
    [
      "fail-node 0x1F";
      "fail-node +2";
      "fail-link 1_0 2";
      "recover-node 0o7";
      "recover-link 1 0b1";
      "degrade-link +1 2 2.5";
      "restore-link 1 -2";
    ]

(* A crash mid-append leaves an unterminated last line. Replay skips
   it (a torn [fail-node 123] must not come back as [fail-node 12]),
   and reopening cuts it off so the next commit starts a fresh line
   instead of gluing itself onto the tail. *)
let test_journal_torn_tail () =
  with_temp_file "t-journal-torn.journal" @@ fun path ->
  let oc = open_out_bin path in
  output_string oc (Journal.header ^ "\nfail-node 3\nfail-node 12");
  close_out oc;
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  let torn = Obs.counter "serve.journal.torn_tails" in
  let nodes = function
    | Ok events ->
        List.map (function Wire.Fail_node v -> v | _ -> Alcotest.fail "not a fail-node") events
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list int)) "the torn line is not replayed" [ 3 ] (nodes (Journal.load path));
  Alcotest.(check int) "the torn tail is counted" 1 (Obs.value torn);
  (match Journal.create path with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Alcotest.(check (result unit string)) "durable" (Ok ()) (Journal.commit j [ Wire.Fail_node 5 ]);
      Journal.close j);
  Alcotest.(check (list int)) "the next commit follows the committed prefix" [ 3; 5 ]
    (nodes (Journal.load path));
  Alcotest.(check int) "no tail left to count" 1 (Obs.value torn);
  (* A crash inside the header write of a fresh journal. *)
  let oc = open_out_bin path in
  output_string oc (String.sub Journal.header 0 5);
  close_out oc;
  Alcotest.(check (list int)) "a torn header is an empty journal" [] (nodes (Journal.load path));
  match Journal.create path with
  | Error e -> Alcotest.fail e
  | Ok j ->
      ignore (Journal.commit j [ Wire.Fail_node 7 ]);
      Journal.close j;
      Alcotest.(check (list int)) "the header is rewritten" [ 7 ] (nodes (Journal.load path))

let test_journal_loads_existing_files () =
  with_temp_file "t-journal-legacy.journal" @@ fun path ->
  write_journal path
    [
      "fail-node 3";
      "fail-link 2 5";
      "";
      "recover-node 3";
      "recover-link 2 5";
      "degrade-link 0 4 2.5";
      "restore-link 0 4";
      "fail-node 10";
    ];
  match Journal.load path with
  | Error e -> Alcotest.fail e
  | Ok events ->
      Alcotest.(check bool) "every event, in order" true
        (events
        = [
            Wire.Fail_node 3;
            Wire.Fail_link (2, 5);
            Wire.Recover_node 3;
            Wire.Recover_link (2, 5);
            Wire.Degrade_link (0, 4, 2.5);
            Wire.Restore_link (0, 4);
            Wire.Fail_node 10;
          ])

(* ---------------- admission ---------------- *)

let test_admission_fifo_and_queue_shed () =
  let q = Admission.create { Admission.max_queue = 2; deadline = 0.0 } in
  Alcotest.(check bool) "a admitted" true (Admission.offer q ~now:0.0 "a");
  Alcotest.(check bool) "b admitted" true (Admission.offer q ~now:0.0 "b");
  Alcotest.(check bool) "c shed at budget" false (Admission.offer q ~now:0.0 "c");
  Alcotest.(check int) "depth" 2 (Admission.length q);
  Alcotest.(check bool) "fifo" true (Admission.take q ~now:1.0 = Some (`Serve "a"));
  Alcotest.(check bool) "fifo 2" true (Admission.take q ~now:1.0 = Some (`Serve "b"));
  Alcotest.(check bool) "empty" true (Admission.take q ~now:1.0 = None)

let test_admission_deadline_expiry () =
  let q = Admission.create { Admission.max_queue = 4; deadline = 1.0 } in
  ignore (Admission.offer q ~now:0.0 "old");
  ignore (Admission.offer q ~now:2.0 "fresh");
  Alcotest.(check bool) "out-waited its deadline" true
    (Admission.take q ~now:2.5 = Some (`Expired "old"));
  Alcotest.(check bool) "still within deadline" true
    (Admission.take q ~now:2.5 = Some (`Serve "fresh"))

let test_admission_expires_oldest_deadline_first () =
  (* The shed-ordering contract pinned in admission.mli: with the
     uniform config deadline, FIFO order IS oldest-deadline-first, so
     expiries must drain in arrival order before any fresh request is
     served. *)
  let q = Admission.create { Admission.max_queue = 4; deadline = 1.0 } in
  ignore (Admission.offer q ~now:0.0 "a");
  ignore (Admission.offer q ~now:0.2 "b");
  ignore (Admission.offer q ~now:2.0 "c");
  Alcotest.(check bool) "oldest deadline sheds first" true
    (Admission.take q ~now:2.5 = Some (`Expired "a"));
  Alcotest.(check bool) "next oldest second" true
    (Admission.take q ~now:2.5 = Some (`Expired "b"));
  Alcotest.(check bool) "fresh request served after the expiries" true
    (Admission.take q ~now:2.5 = Some (`Serve "c"))

let test_admission_rejects_bad_budget () =
  Alcotest.check_raises "zero budget"
    (Invalid_argument "Admission.create: max_queue <= 0")
    (fun () -> ignore (Admission.create { Admission.max_queue = 0; deadline = 0.0 }))

(* ---------------- engine ---------------- *)

let torus_engine () =
  let c = Kernel.make (Families.torus 5 5) ~t:3 in
  (c, Engine.create c.Construction.routing)

(* A deliberately threadbare routing on a cycle: only 0-1 is routed,
   so most pairs are disconnected in the route graph while the
   underlying graph stays connected — the detour regime. *)
let sparse_cycle_engine () =
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Bidirectional in
  Routing.add r (Path.of_list [ 0; 1 ]);
  Engine.create r

let test_engine_validate_and_apply () =
  let _, e = torus_engine () in
  Alcotest.(check bool) "in-range node" true
    (Engine.validate e (Wire.Fail_node 3) = Ok ());
  Alcotest.(check bool) "out-of-range node" true
    (Result.is_error (Engine.validate e (Wire.Fail_node 99)));
  Alcotest.(check bool) "non-edge link" true
    (Result.is_error (Engine.validate e (Wire.Fail_link (0, 13))));
  Alcotest.(check bool) "first fail changes state" true
    (Engine.apply e (Wire.Fail_node 3) = Ok true);
  Alcotest.(check bool) "repeat is an idempotent no-op" true
    (Engine.apply e (Wire.Fail_node 3) = Ok false);
  Alcotest.(check bool) "fault listed" true (Engine.node_faults e = [ 3 ]);
  Alcotest.(check bool) "recover changes state" true
    (Engine.apply e (Wire.Recover_node 3) = Ok true);
  Alcotest.(check bool) "clean again" true (Engine.node_faults e = [])

let test_engine_replay_digest () =
  let c, e1 = torus_engine () in
  let events =
    [
      Wire.Fail_node 2;
      Wire.Fail_link (0, 1);
      Wire.Fail_node 2;
      (* redundant: replay must tolerate it *)
      Wire.Recover_node 2;
      Wire.Fail_node 7;
    ]
  in
  List.iter (fun a -> ignore (Result.get_ok (Engine.apply e1 a))) events;
  let e2 = Engine.create c.Construction.routing in
  (match Engine.replay e2 events with
  | Error msg -> Alcotest.fail msg
  | Ok changed ->
      Alcotest.(check int) "state-changing events counted" 4 changed);
  Alcotest.(check string) "byte-identical fault state" (Engine.digest e1)
    (Engine.digest e2)

let test_engine_degrade_apply () =
  let _, e = torus_engine () in
  Alcotest.(check bool) "bad factor rejected" true
    (Result.is_error (Engine.validate e (Wire.Degrade_link (0, 1, 0.5))));
  Alcotest.(check bool) "non-edge rejected" true
    (Result.is_error (Engine.validate e (Wire.Degrade_link (0, 13, 2.0))));
  Alcotest.(check bool) "restore validates the link too" true
    (Result.is_error (Engine.validate e (Wire.Restore_link (0, 13))));
  let clean = Engine.digest e in
  Alcotest.(check bool) "restore of a healthy link is a no-op" true
    (Engine.apply e (Wire.Restore_link (0, 1)) = Ok false);
  Alcotest.(check bool) "first degrade changes state" true
    (Engine.apply e (Wire.Degrade_link (0, 1, 4.0)) = Ok true);
  Alcotest.(check bool) "same factor is an idempotent no-op" true
    (Engine.apply e (Wire.Degrade_link (0, 1, 4.0)) = Ok false);
  Alcotest.(check bool) "new factor changes state" true
    (Engine.apply e (Wire.Degrade_link (0, 1, 8.0)) = Ok true);
  Alcotest.(check bool) "inventory" true
    (Engine.degraded_links e = [ (0, 1, 8.0) ]);
  Alcotest.(check bool) "digest moved" true (Engine.digest e <> clean);
  Alcotest.(check bool) "restore changes state back" true
    (Engine.apply e (Wire.Restore_link (0, 1)) = Ok true);
  Alcotest.(check string) "digest byte-identical after restore" clean
    (Engine.digest e)

let test_engine_route_and_bound () =
  let _, e = torus_engine () in
  (match Engine.route e ~src:0 ~dst:12 with
  | Ok (Engine.Routed { degraded; routes; hops; waypoints }) ->
      Alcotest.(check bool) "not degraded without a bound" false degraded;
      Alcotest.(check int) "routes = waypoint gaps" routes
        (List.length waypoints - 1);
      Alcotest.(check bool) "hops cover the routes" true (hops >= routes)
  | Ok _ -> Alcotest.fail "expected a surviving route"
  | Error msg -> Alcotest.fail msg);
  (match Engine.route ~bound:0 e ~src:0 ~dst:12 with
  | Ok (Engine.Routed { degraded; _ }) ->
      Alcotest.(check bool) "flagged beyond an impossible bound" true degraded
  | Ok _ | Error _ -> Alcotest.fail "expected a (degraded) surviving route");
  Alcotest.(check bool) "out-of-range endpoint" true
    (Result.is_error (Engine.route e ~src:0 ~dst:99));
  ignore (Result.get_ok (Engine.apply e (Wire.Fail_node 12)));
  Alcotest.(check bool) "faulty endpoint" true
    (Result.is_error (Engine.route e ~src:0 ~dst:12))

let test_engine_detour_and_unreachable () =
  let e = sparse_cycle_engine () in
  (match Engine.route e ~src:0 ~dst:3 with
  | Ok (Engine.Detour { path; hops }) ->
      Alcotest.(check int) "shortest live detour" 3 hops;
      Alcotest.(check bool) "path endpoints" true
        (List.nth path 0 = 0 && List.nth path (List.length path - 1) = 3)
  | Ok _ -> Alcotest.fail "expected a detour (pair unrouted)"
  | Error msg -> Alcotest.fail msg);
  ignore (Result.get_ok (Engine.apply e (Wire.Fail_node 1)));
  ignore (Result.get_ok (Engine.apply e (Wire.Fail_node 5)));
  match Engine.route e ~src:0 ~dst:3 with
  | Ok Engine.Unreachable -> ()
  | Ok _ -> Alcotest.fail "0 is cut off: expected unreachable"
  | Error msg -> Alcotest.fail msg

(* Engine.route against independent sources: the number of routes
   equals the surviving route graph's distance ([Surviving.distance]
   builds a fresh digraph from the routing), and the hop count is the
   sum of the waypoints' route lengths as [Routing.find] gives them.
   cycle:130 and hypercube:7 have over 63 nodes, so their matrix rows
   span several words; on the long cycle most routes need the BFS to
   pass through nodes of the later words. *)
let prop_engine_route_matches_routing =
  let engines =
    lazy
      (Array.of_list
         (List.map
            (fun spec ->
              let g = Result.get_ok (Ftr_analysis.Graph_spec.parse spec) in
              let c =
                (Builder.auto ~rng:(Random.State.make [| 0xBEEF |]) g).Builder.construction
              in
              (spec, c.Construction.routing, Engine.create c.Construction.routing))
            [ "torus:4x5"; "ccc:3"; "cycle:130"; "hypercube:7" ]))
  in
  let gen =
    QCheck.Gen.(
      quad (int_bound 3) (list_size (int_bound 5) (int_bound 1023)) (int_bound 1023)
        (int_bound 1023))
  in
  let print (k, faults, src, dst) =
    Printf.sprintf "#%d faults=[%s] %d->%d" k
      (String.concat "," (List.map string_of_int faults))
      src dst
  in
  QCheck.Test.make ~name:"route matches Surviving.distance and Routing.find" ~count:400
    (QCheck.make ~print gen)
    (fun (k, faults, src, dst) ->
      let spec, routing, e = (Lazy.force engines).(k) in
      let n = Graph.n (Routing.graph routing) in
      let faults = List.sort_uniq compare (List.map (fun v -> v mod n) faults) in
      let src = src mod n and dst = dst mod n in
      QCheck.assume (not (List.mem src faults || List.mem dst faults));
      let set action = List.iter (fun v -> ignore (Result.get_ok (Engine.apply e (action v)))) in
      set (fun v -> Wire.Fail_node v) faults;
      let got = Engine.route e ~src ~dst in
      set (fun v -> Wire.Recover_node v) faults;
      let want = Surviving.distance routing ~faults:(Bitset.of_list n faults) src dst in
      match (got, want) with
      | Ok (Engine.Routed { waypoints; routes; hops; _ }), Metrics.Finite d ->
          let rec edges acc = function
            | a :: (b :: _ as rest) ->
                edges (acc + Path.length (Option.get (Routing.find routing a b))) rest
            | _ -> acc
          in
          (routes = d && hops = edges 0 waypoints
          && List.hd waypoints = src
          && List.nth waypoints routes = dst)
          || QCheck.Test.fail_reportf "%s: routes %d (want %d), hops %d (want %d)" spec
               routes d hops (edges 0 waypoints)
      | Ok (Engine.Detour _ | Engine.Unreachable), Metrics.Infinite -> true
      | Ok _, _ -> QCheck.Test.fail_reportf "%s: route and distance disagree" spec
      | Error msg, _ -> QCheck.Test.fail_report msg)

(* The memo must never serve a stale diameter: after any mix of
   crisp and gray deltas (repeats included), [Engine.diameter] equals
   the diameter of a fresh evaluator loaded with the same faults. *)
let prop_diameter_memo =
  let c, _ = torus_engine () in
  let routing = c.Construction.routing in
  let graph = Routing.graph routing in
  let links = Array.of_list (Graph.edges graph) in
  let compiled = Surviving.compile routing in
  let fresh_diameter e =
    let ev = Surviving.evaluator compiled in
    List.iter (Surviving.apply_fault ev) (Engine.node_faults e);
    List.iter
      (fun (u, v) ->
        Surviving.apply_edge_fault ev (Option.get (Surviving.edge_id compiled u v)))
      (Engine.link_faults e);
    Surviving.evaluator_diameter ev
  in
  let step =
    QCheck.Gen.(
      let node = int_bound (Graph.n graph - 1) in
      let link = map (fun i -> links.(i)) (int_bound (Array.length links - 1)) in
      frequency
        [
          (3, return None);
          (3, map (fun v -> Some (Wire.Fail_node v)) node);
          (2, map (fun v -> Some (Wire.Recover_node v)) node);
          (2, map (fun (u, v) -> Some (Wire.Fail_link (u, v))) link);
          (1, map (fun (u, v) -> Some (Wire.Recover_link (u, v))) link);
          ( 2,
            map2
              (fun (u, v) f -> Some (Wire.Degrade_link (u, v, f)))
              link (float_range 1.0 8.0) );
          (1, map (fun (u, v) -> Some (Wire.Restore_link (u, v))) link);
        ])
  in
  let print steps =
    String.concat "; "
      (List.map
         (function
           | None -> "diameter"
           | Some a -> Wire.request_to_line (Wire.Fault a))
         steps)
  in
  QCheck.Test.make ~name:"memoised diameter equals a fresh evaluator's" ~count:60
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 40) step))
    (fun steps ->
      let e = Engine.create routing in
      let agrees () = Engine.diameter e = fresh_diameter e in
      List.for_all
        (function
          | None -> agrees ()
          | Some a -> Result.is_ok (Engine.apply e a))
        steps
      && agrees ())

(* ---------------- server request core ---------------- *)

let cycle_server ?journal ?clock ?(max_queue = 8) ?(deadline = 0.0) () =
  let g = Families.cycle 6 in
  let r = Routing.create g Routing.Bidirectional in
  Routing.add_edge_routes r;
  let engine = Engine.create r in
  Server.create ?clock ?journal
    { Server.max_queue; deadline; bound = None }
    engine

let field name json =
  match Sjson.member name json with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "response lacks %S" name)

let is_ok json = Sjson.to_bool (field "ok" json) = Some true

let test_server_handle_probes () =
  let srv = cycle_server () in
  let health = Server.handle srv Wire.Health in
  Alcotest.(check bool) "health ok" true (is_ok health);
  Alcotest.(check (option bool)) "not draining" (Some false)
    (Sjson.to_bool (field "draining" health));
  let ready = Server.handle srv Wire.Ready in
  Alcotest.(check (option bool)) "ready" (Some true)
    (Sjson.to_bool (field "ready" ready));
  Server.request_drain srv;
  let ready = Server.handle srv Wire.Ready in
  Alcotest.(check (option bool)) "not ready while draining" (Some false)
    (Sjson.to_bool (field "ready" ready))

let test_server_handle_route_and_stats () =
  let srv = cycle_server () in
  let resp = Server.handle srv (Wire.Route { src = 0; dst = 2 }) in
  Alcotest.(check bool) "route ok" true (is_ok resp);
  Alcotest.(check (option string)) "mode" (Some "routed")
    (Sjson.to_str (field "mode" resp));
  Alcotest.(check bool) "service latency reported" true
    (match Sjson.to_float (field "service_ms" resp) with
    | Some ms -> ms >= 0.0
    | None -> false);
  let stats = Server.handle srv Wire.Stats in
  Alcotest.(check (option int)) "one query counted" (Some 1)
    (Sjson.to_int (field "queries" stats));
  Alcotest.(check bool) "stats carry the fault digest" true
    (Sjson.to_str (field "digest" stats) <> None)

let test_server_fault_is_write_ahead () =
  with_temp_file "t-server-wa.journal" @@ fun path ->
  let journal = Result.get_ok (Journal.create path) in
  let srv = cycle_server ~journal () in
  let resp = Server.handle srv (Wire.Fault (Wire.Fail_node 4)) in
  Alcotest.(check bool) "delta accepted" true (is_ok resp);
  Alcotest.(check (option bool)) "state changed" (Some true)
    (Sjson.to_bool (field "applied" resp));
  (* The event is on disk (fsynced) even though the daemon is alive:
     a crash right now would replay to the same digest. *)
  (match Journal.load path with
  | Ok [ Wire.Fail_node 4 ] -> ()
  | Ok _ -> Alcotest.fail "journal should hold exactly the applied delta"
  | Error e -> Alcotest.fail e);
  let rejected = Server.handle srv (Wire.Fault (Wire.Fail_node 99)) in
  Alcotest.(check bool) "invalid delta rejected" false (is_ok rejected);
  match Journal.load path with
  | Ok [ Wire.Fail_node 4 ] -> ()
  | Ok _ -> Alcotest.fail "rejected delta must never reach the journal"
  | Error e -> Alcotest.fail e

let parse_reply line =
  match Sjson.parse line with
  | Ok json -> json
  | Error e -> Alcotest.failf "unparseable reply %S: %s" line e

(* Durable or refused: once the journal cannot take a write, the
   delta in that group and every later one is answered [ok:false]
   with a [journal: ...] error and never applied, while routes are
   still answered. *)
let test_server_refuses_deltas_after_journal_failure () =
  with_temp_file "t-server-fsync.journal" @@ fun path ->
  let journal = Result.get_ok (Journal.create path) in
  let srv = cycle_server ~journal () in
  let before = Engine.digest (Server.engine srv) in
  Journal.close journal;
  let replies = ref [] in
  let capture s = replies := s :: !replies in
  Server.submit srv (Wire.Fault (Wire.Fail_node 4)) capture;
  Server.submit srv (Wire.Route { src = 0; dst = 2 }) capture;
  Server.pump srv;
  let journal_error json =
    (not (is_ok json))
    &&
    match Sjson.to_str (field "error" json) with
    | Some e -> String.starts_with ~prefix:"journal: " e
    | None -> false
  in
  (match List.rev_map parse_reply !replies with
  | [ fault; route ] ->
      Alcotest.(check bool) "delta refused with the journal error" true
        (journal_error fault);
      Alcotest.(check bool) "route still answered" true (is_ok route)
  | _ -> Alcotest.fail "expected one reply per request");
  Alcotest.(check string) "nothing applied" before
    (Engine.digest (Server.engine srv));
  Alcotest.(check bool) "later deltas refused too" true
    (journal_error (Server.handle srv (Wire.Fault (Wire.Fail_link (0, 1)))));
  Alcotest.(check string) "still nothing applied" before
    (Engine.digest (Server.engine srv));
  Alcotest.(check bool) "routes keep working" true
    (is_ok (Server.handle srv (Wire.Route { src = 3; dst = 5 })))

(* Group commit: the deltas of one pump share one fsync, land in the
   journal in arrival order, and each is applied before the requests
   queued behind it are answered. *)
let test_server_pump_group_commits () =
  with_temp_file "t-server-group.journal" @@ fun path ->
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  let fsyncs = Obs.counter "serve.journal.fsyncs" in
  let journal = Result.get_ok (Journal.create path) in
  let srv = cycle_server ~journal ~max_queue:16 () in
  let replies = ref [] in
  let submit req = Server.submit srv req (fun s -> replies := s :: !replies) in
  let path_of json =
    Option.map (List.filter_map Sjson.to_int) (Sjson.to_list (field "path" json))
  in
  let deltas =
    [ Wire.Fail_link (0, 1); Wire.Fail_node 4; Wire.Degrade_link (1, 2, 2.0) ]
  in
  submit (Wire.Route { src = 0; dst = 2 });
  submit (Wire.Fault (List.nth deltas 0));
  submit (Wire.Route { src = 0; dst = 2 });
  submit Wire.Stats;
  submit (Wire.Fault (List.nth deltas 1));
  submit (Wire.Fault (List.nth deltas 2));
  submit (Wire.Route { src = 2; dst = 3 });
  Server.pump srv;
  Alcotest.(check int) "one fsync for the batch" 1 (Obs.value fsyncs);
  let replies = List.rev_map parse_reply !replies in
  Alcotest.(check int) "every request answered" 7 (List.length replies);
  Alcotest.(check bool) "all ok" true (List.for_all is_ok replies);
  Alcotest.(check (option (list int))) "a route ahead of the deltas sees none"
    (Some [ 0; 1; 2 ])
    (path_of (List.nth replies 0));
  Alcotest.(check (option (list int))) "a route sees only the deltas ahead of it"
    (Some [ 0; 5; 4; 3; 2 ])
    (path_of (List.nth replies 2));
  Alcotest.(check (option int)) "stats counts the batch still waiting behind it"
    (Some 3)
    (Sjson.to_int (field "queue" (List.nth replies 3)));
  (match Journal.load path with
  | Ok loaded ->
      Alcotest.(check bool) "journal holds the batch in order" true (loaded = deltas)
  | Error e -> Alcotest.fail e);
  Server.submit srv (Wire.Route { src = 1; dst = 3 }) ignore;
  Server.pump srv;
  Alcotest.(check int) "a batch without deltas costs no fsync" 1 (Obs.value fsyncs)

let test_server_sheds_at_queue_budget () =
  let now = ref 0.0 in
  let srv = cycle_server ~clock:(fun () -> !now) ~max_queue:1 () in
  let responses = ref [] in
  let capture s = responses := s :: !responses in
  Server.submit srv (Wire.Route { src = 0; dst = 2 }) capture;
  Server.submit srv (Wire.Route { src = 0; dst = 3 }) capture;
  (* the second submission was shed immediately, before any pump *)
  Alcotest.(check int) "explicit shed response" 1 (List.length !responses);
  Alcotest.(check bool) "shed flag set" true
    (match Sjson.parse (List.hd !responses) with
    | Ok json -> Sjson.to_bool (field "shed" json) = Some true
    | Error _ -> false);
  Server.pump srv;
  Alcotest.(check int) "queued request answered on pump" 2
    (List.length !responses);
  Alcotest.(check int) "shed counted" 1 (Server.shed srv)

let test_server_expires_stale_requests () =
  let now = ref 0.0 in
  let srv = cycle_server ~clock:(fun () -> !now) ~deadline:1.0 () in
  let response = ref None in
  Server.submit srv (Wire.Route { src = 0; dst = 2 }) (fun s -> response := Some s);
  now := 5.0;
  Server.pump srv;
  match !response with
  | None -> Alcotest.fail "expired request must still be answered"
  | Some line ->
      Alcotest.(check bool) "answered as shed, not served late" true
        (match Sjson.parse line with
        | Ok json ->
            Sjson.to_bool (field "shed" json) = Some true && not (is_ok json)
        | Error _ -> false)

let test_server_health_reports_shed_and_degraded () =
  let srv = cycle_server ~max_queue:1 () in
  let health = Server.handle srv Wire.Health in
  Alcotest.(check (option int)) "shed starts at 0" (Some 0)
    (Sjson.to_int (field "shed" health));
  (match field "degraded_links" health with
  | Sjson.Arr [] -> ()
  | _ -> Alcotest.fail "healthy daemon advertises no degraded links");
  (* overflow the queue so one request sheds, and slow one link *)
  Server.submit srv (Wire.Route { src = 0; dst = 2 }) ignore;
  Server.submit srv (Wire.Route { src = 0; dst = 3 }) ignore;
  Server.pump srv;
  ignore (Server.handle srv (Wire.Fault (Wire.Degrade_link (0, 1, 2.5))));
  let health = Server.handle srv Wire.Health in
  Alcotest.(check (option int)) "shed count surfaced" (Some 1)
    (Sjson.to_int (field "shed" health));
  match field "degraded_links" health with
  | Sjson.Arr [ Sjson.Arr [ Sjson.Int 0; Sjson.Int 1; Sjson.Float 2.5 ] ] -> ()
  | _ -> Alcotest.fail "degraded link inventory missing from health"

let test_server_drain_refuses_new_work () =
  let srv = cycle_server () in
  let drained = Server.handle srv Wire.Drain in
  Alcotest.(check bool) "drain acknowledged" true (is_ok drained);
  Alcotest.(check bool) "draining" true (Server.draining srv);
  let response = ref None in
  Server.submit srv (Wire.Route { src = 0; dst = 2 }) (fun s -> response := Some s);
  match !response with
  | Some line ->
      Alcotest.(check bool) "refused with the draining reason" true
        (match Sjson.parse line with
        | Ok json -> Sjson.to_str (field "error" json) = Some "draining"
        | Error _ -> false)
  | None -> Alcotest.fail "draining daemon must still answer"

(* ---------------- soak ---------------- *)

let torus_build ~graph:_ ~strategy:_ ~seed:_ =
  Ok (Kernel.make (Families.torus 5 5) ~t:3)

let entry ?(n = 25) faults edges =
  {
    Attack.Corpus.graph = "torus:5x5";
    strategy = "kernel";
    seed = 1;
    n;
    f = List.length faults + List.length edges;
    faults;
    edges;
    diameter = Metrics.Finite 6;
    bound = None;
    found_by = "test";
  }

let soak_config =
  {
    Scenario.queries = 4;
    slo_p99_ms = 60000.0;
    seed = 7;
    jobs = None;
    certify = false;
    journal_dir = ".";
  }

(* The soak's journal is named after the group label; each run
   removes it afterwards. *)
let soak ?gray_factor ?(build = torus_build) entries =
  with_temp_file "torus-5x5-kernel-seed-1.journal" @@ fun _ ->
  Scenario.slo ?gray_factor ~build ~entries soak_config

let test_soak_clean_run () =
  let outcome = soak [ entry [ 7 ] []; entry [ 3 ] [ (0, 1) ] ] in
  Alcotest.(check bool) "clean verdict" true (outcome.exit = Exit_code.Clean);
  Alcotest.(check int) "no dropped in-budget queries" 0 outcome.dropped_in_budget;
  match outcome.reports with
  | [ { run = r; _ } ] ->
      Alcotest.(check int) "two waves" 2 (List.length r.phases);
      Alcotest.(check string) "grouped label" "torus:5x5/kernel seed=1" r.label;
      (* baseline + (during + recovered) per wave *)
      Alcotest.(check int) "query count" (4 * 5) r.total.requests;
      Alcotest.(check bool) "kill/restart replays to the same digest" true
        r.journal_digest_ok;
      Alcotest.(check bool) "no violations" true (r.violations = []);
      Alcotest.(check bool) "latencies measured" true (r.p99_ms <> None)
  | rs -> Alcotest.fail (Printf.sprintf "expected one report, got %d" (List.length rs))

let test_soak_stale_entry_is_infra () =
  let outcome = soak [ entry ~n:999 [ 7 ] [] ] in
  Alcotest.(check bool) "infra verdict" true (outcome.exit = Exit_code.Infra);
  match outcome.reports with
  | [ { run = r; _ } ] -> Alcotest.(check bool) "report says why" true (r.infra <> None)
  | _ -> Alcotest.fail "expected one report"

let test_soak_build_failure_is_infra () =
  let build ~graph:_ ~strategy:_ ~seed:_ = Error "no such strategy" in
  let outcome = soak ~build [ entry [ 7 ] [] ] in
  Alcotest.(check bool) "infra verdict" true (outcome.exit = Exit_code.Infra)

let test_soak_gray_wave () =
  let outcome = soak ~gray_factor:6.0 [ entry [ 7 ] [] ] in
  Alcotest.(check bool) "gray failures never breach the contract" true
    (outcome.exit = Exit_code.Clean);
  (match outcome.reports with
  | [ { run = r; _ } ] ->
      (* baseline + gray wave + (during + recovered) for the one wave *)
      Alcotest.(check int) "extra in-budget phase under gray load" (4 * 4)
        r.total.requests;
      Alcotest.(check bool) "no violations" true (r.violations = []);
      Alcotest.(check bool) "digest restored after the wave" true r.journal_digest_ok
  | rs ->
      Alcotest.fail (Printf.sprintf "expected one report, got %d" (List.length rs)));
  let json = Scenario.slo_json ~gray_factor:6.0 soak_config outcome in
  match Sjson.member "config" json with
  | Some cfg_json ->
      Alcotest.(check bool) "gray factor echoed" true
        (Sjson.to_float (field "gray_factor" cfg_json) = Some 6.0)
  | None -> Alcotest.fail "artifact lacks its config echo"

let test_soak_json_artifact () =
  let outcome = soak [ entry [ 7 ] [] ] in
  let json = Scenario.slo_json soak_config outcome in
  Alcotest.(check (option string)) "versioned" (Some "ftr-slo/1")
    (Option.bind (Sjson.member "version" json) Sjson.to_str);
  Alcotest.(check (option string)) "verdict embedded" (Some "ok")
    (Option.bind (Sjson.member "exit" json) Sjson.to_str);
  match Sjson.parse (Sjson.to_string json) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("artifact does not re-parse: " ^ e)

(* ---------------- chaos ---------------- *)

let chaos_config =
  {
    Scenario.queries = 12;
    (* wall-clock gate parked: unit tests must not be timing-sensitive *)
    slo_p99_ms = 60000.0;
    seed = 5;
    jobs = None;
    certify = false;
    journal_dir = ".";
  }

let chaos_settings =
  {
    Scenario.burst = 20;
    max_queue = 8;
    deadline_ticks = 16.0;
    gray_factor = 4.0;
    radius = 1;
    zipf_s = 1.0;
    min_delivery = 0.2;
  }

let test_chaos_clean_run () =
  with_temp_file "t-chaos.journal" @@ fun _ ->
  let c = Kernel.make (Families.torus 5 5) ~t:3 in
  let o = Scenario.chaos ~label:"t-chaos" c chaos_config chaos_settings in
  let r = o.run in
  Alcotest.(check bool) "clean verdict" true (o.exit = Exit_code.Clean);
  Alcotest.(check int) "four recorded beats" 4 (List.length r.phases);
  Alcotest.(check bool) "no violations" true (r.violations = []);
  Alcotest.(check bool) "digest converged" true r.digest_converged;
  Alcotest.(check bool) "journal replay byte-identical" true r.journal_digest_ok;
  (* burst 20 against a queue of 8 must shed *)
  Alcotest.(check bool) "flash crowd shed" true (r.total.shed > 0);
  Alcotest.(check bool) "every request accounted" true
    (r.total.requests
    = List.fold_left (fun a (p : Scenario.phase) -> a + p.counts.requests) 0 r.phases);
  let gray = List.find (fun (p : Scenario.phase) -> p.name = "gray") r.phases in
  Alcotest.(check int) "gray wave slows, never cuts" gray.counts.requests
    gray.counts.delivered

let test_chaos_artifact_deterministic () =
  with_temp_file "t-chaos-det.journal" @@ fun _ ->
  let c = Kernel.make (Families.torus 5 5) ~t:3 in
  let chaos cfg = Scenario.chaos ~label:"t-chaos-det" c cfg chaos_settings in
  let json cfg o = Sjson.to_string (Scenario.chaos_json cfg chaos_settings o) in
  let o1 = chaos chaos_config in
  let o2 = chaos chaos_config in
  Alcotest.(check string) "byte-identical artifacts" (json chaos_config o1)
    (json chaos_config o2);
  (* the certify pre-pass must not perturb the artifact either *)
  let cfg = { chaos_config with certify = true; jobs = Some 2 } in
  let o3 = chaos cfg in
  Alcotest.(check (option string)) "versioned" (Some "ftr-chaos/1")
    (Option.bind
       (Sjson.member "version" (Scenario.chaos_json cfg chaos_settings o3))
       Sjson.to_str);
  Alcotest.(check bool) "certified claim echoed" true (o3.run.certified <> None);
  Alcotest.(check bool) "phases identical with certify on" true
    (o3.run.phases = o1.run.phases)

let test_chaos_bad_journal_dir_is_infra () =
  let c = Kernel.make (Families.torus 4 4) ~t:3 in
  let cfg = { chaos_config with journal_dir = "t-no-such-dir-xyz" } in
  let o = Scenario.chaos ~label:"t-chaos-infra" c cfg chaos_settings in
  Alcotest.(check bool) "infra verdict" true (o.exit = Exit_code.Infra);
  Alcotest.(check bool) "reason reported" true (o.run.infra <> None)

(* ---------------- end-to-end: the real daemon ---------------- *)

(* `dune runtest` runs us in _build/default/test; `dune exec` from the
   project root. Find the freshly built CLI either way. *)
let exe =
  if Sys.file_exists "../bin/ftr.exe" then "../bin/ftr.exe"
  else "_build/default/bin/ftr.exe"

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let spawn_daemon ~socket ~journal =
  (try Sys.remove socket with Sys_error _ -> ());
  (try Sys.remove journal with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "torus:5x5"; "--socket"; socket; "--journal"; journal |]
      Unix.stdin null null
  in
  Unix.close null;
  (* wait for the socket to come up *)
  let rec wait tries =
    if tries = 0 then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "daemon never bound its socket"
    end
    else if Sys.file_exists socket then ()
    else begin
      Unix.sleepf 0.05;
      wait (tries - 1)
    end
  in
  wait 200;
  pid

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0
   with Unix.Unix_error _ -> ());
  fd

let wait_exit pid =
  let rec go tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.05;
        go (tries - 1)
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "daemon did not exit"
    | _, status -> status
  in
  go 200

(* [f pid] against a freshly spawned daemon. A failed check must not
   leave the daemon running, so unless [f] has already reaped it the
   daemon is killed and reaped on the way out; a pid already reaped is
   no longer our child, so a later process that reuses it is never
   signalled. *)
let with_daemon ~socket ~journal f =
  let pid = spawn_daemon ~socket ~journal in
  Fun.protect ~finally:(fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> (
          try
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          with Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ())
  @@ fun () -> f pid

let test_daemon_end_to_end () =
  let socket = "t-serve-e2e.sock" and journal = "t-serve-e2e.journal" in
  with_temp_file journal @@ fun journal ->
  with_daemon ~socket ~journal @@ fun pid ->
  let fd = connect socket in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let ask req =
    output_string oc (Wire.request_to_line req ^ "\n");
    flush oc;
    match Sjson.parse (input_line ic) with
    | Ok json -> json
    | Error e -> Alcotest.fail ("unparseable response: " ^ e)
  in
  Alcotest.(check bool) "health" true (is_ok (ask Wire.Health));
  let fault = ask (Wire.Fault (Wire.Fail_node 7)) in
  Alcotest.(check bool) "fault applied" true (is_ok fault);
  Alcotest.(check (option bool)) "state changed" (Some true)
    (Sjson.to_bool (field "applied" fault));
  let route = ask (Wire.Route { src = 0; dst = 12 }) in
  Alcotest.(check bool) "routes around the failed node" true (is_ok route);
  Alcotest.(check bool) "route avoids the fault" true
    (match Sjson.to_list (field "path" route) with
    | Some path -> not (List.mem (Sjson.Int 7) path)
    | None -> false);
  let health = ask Wire.Health in
  Alcotest.(check bool) "fault visible in health" true
    (Sjson.to_list (field "node_faults" health) = Some [ Sjson.Int 7 ]);
  Alcotest.(check bool) "drain accepted" true (is_ok (ask Wire.Drain));
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (match wait_exit pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.fail (Printf.sprintf "drain exit code %d" c)
  | _ -> Alcotest.fail "daemon killed by signal");
  Alcotest.(check bool) "socket unlinked on exit" false (Sys.file_exists socket);
  Alcotest.(check bool) "journal holds the fault history" true
    (read_lines journal = [ Journal.header; "fail-node 7" ])

(* Pipelining: one write carrying seven requests must get the same
   replies, in the same order, as seven sequential round trips, except
   that the health probe is answered at submit time, ahead of the
   queued work (so it sees the queue and none of its deltas). Live
   timing fields are dropped before comparing. *)
let test_daemon_pipelined_replies () =
  let reqs =
    [
      Wire.Route { src = 0; dst = 12 };
      Wire.Fault (Wire.Fail_node 7);
      Wire.Diameter;
      Wire.Health;
      Wire.Route { src = 0; dst = 12 };
      Wire.Fault (Wire.Recover_node 7);
      Wire.Stats;
    ]
  in
  let timing = [ "service_ms"; "uptime_ms"; "p50_ms"; "p99_ms"; "p999_ms" ] in
  let strip = function
    | Sjson.Obj fields ->
        let live (k, _) = not (List.mem k timing) in
        Sjson.to_string (Sjson.Obj (List.filter live fields))
    | other -> Sjson.to_string other
  in
  let session name send =
    let socket = name ^ ".sock" and journal = name ^ ".journal" in
    with_temp_file journal @@ fun journal ->
    with_daemon ~socket ~journal @@ fun pid ->
    let fd = connect socket in
    let ic = Unix.in_channel_of_descr fd in
    let replies = send fd ic in
    let oc = Unix.out_channel_of_descr fd in
    output_string oc (Wire.request_to_line Wire.Drain ^ "\n");
    flush oc;
    ignore (input_line ic);
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (match wait_exit pid with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "daemon did not drain cleanly");
    List.map
      (fun line ->
        match Sjson.parse line with
        | Ok json -> json
        | Error e -> Alcotest.failf "unparseable reply %S: %s" line e)
      replies
  in
  let write_lines fd reqs =
    let text =
      String.concat "" (List.map (fun r -> Wire.request_to_line r ^ "\n") reqs)
    in
    let len = String.length text in
    Alcotest.(check int) "one write carries every request" len
      (Unix.write_substring fd text 0 len)
  in
  let sequential =
    session "t-serve-seq" (fun fd ic ->
        List.map
          (fun req ->
            write_lines fd [ req ];
            input_line ic)
          reqs)
  in
  let pipelined =
    session "t-serve-pipe" (fun fd ic ->
        write_lines fd reqs;
        List.map (fun _ -> input_line ic) reqs)
  in
  let health, queued =
    match pipelined with h :: rest -> (h, rest) | [] -> Alcotest.fail "no replies"
  in
  Alcotest.(check (list string)) "queued replies: same order, same content"
    (List.map strip (List.filteri (fun i _ -> i <> 3) sequential))
    (List.map strip queued);
  Alcotest.(check bool) "health answered first, at submit time" true
    (is_ok health
    && Sjson.to_int (field "queue" health) = Some 3
    && Sjson.to_list (field "node_faults" health) = Some []);
  Alcotest.(check bool) "sequential health saw the fault" true
    (Sjson.to_list (field "node_faults" (List.nth sequential 3))
    = Some [ Sjson.Int 7 ])

(* Framing over the socket: a line split across two writes is joined,
   blank and whitespace-only lines are skipped without a reply, and a
   CRLF-terminated line parses like a LF one. Every request gets
   exactly one reply, in order; the drain sent after the last reply
   is answered next, so no line was answered twice. *)
let test_daemon_frames_lines () =
  let socket = "t-serve-frame.sock" and journal = "t-serve-frame.journal" in
  with_temp_file journal @@ fun journal ->
  with_daemon ~socket ~journal @@ fun pid ->
  let fd = connect socket in
  let ic = Unix.in_channel_of_descr fd in
  let send text =
    let len = String.length text in
    Alcotest.(check int) "one write" len (Unix.write_substring fd text 0 len);
    (* long enough for the daemon to read this write on its own *)
    Unix.sleepf 0.15
  in
  let route src dst = Wire.request_to_line (Wire.Route { src; dst }) in
  let first = route 0 12 and last = route 2 14 in
  let cut line = (String.sub line 0 7, String.sub line 7 (String.length line - 7)) in
  let first_a, first_b = cut first and last_a, last_b = cut last in
  send first_a;
  send
    (first_b ^ "\n" ^ "\n" ^ " \t\r\n" ^ route 1 13 ^ "\r\n"
    ^ Wire.request_to_line Wire.Diameter ^ "\n" ^ last_a);
  send (last_b ^ "\n");
  let reply () =
    match Sjson.parse (input_line ic) with
    | Ok json -> json
    | Error e -> Alcotest.fail ("unparseable response: " ^ e)
  in
  let check_route label src dst =
    let json = reply () in
    Alcotest.(check bool) (label ^ " ok") true (is_ok json);
    match Option.bind (Sjson.member "path" json) Sjson.to_list with
    | Some path ->
        Alcotest.(check bool) (label ^ " endpoints") true
          (List.hd path = Sjson.Int src
          && List.nth path (List.length path - 1) = Sjson.Int dst)
    | None -> Alcotest.fail (label ^ ": reply without a path")
  in
  check_route "split line" 0 12;
  check_route "CRLF line" 1 13;
  Alcotest.(check bool) "diameter" true
    (Option.is_some (Sjson.member "diameter" (reply ())));
  check_route "line split at the end of a read" 2 14;
  send (Wire.request_to_line Wire.Drain ^ "\n");
  Alcotest.(check (option bool)) "drain reply is next" (Some true)
    (Option.bind (Sjson.member "draining" (reply ())) Sjson.to_bool);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match wait_exit pid with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "daemon did not drain cleanly"

let test_daemon_sigterm_drains () =
  let socket = "t-serve-term.sock" and journal = "t-serve-term.journal" in
  with_temp_file journal @@ fun journal ->
  with_daemon ~socket ~journal @@ fun pid ->
  Unix.kill pid Sys.sigterm;
  match wait_exit pid with
  | Unix.WEXITED 0 ->
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)
  | Unix.WEXITED c -> Alcotest.fail (Printf.sprintf "SIGTERM exit code %d" c)
  | _ -> Alcotest.fail "SIGTERM must drain, not kill"

(* The documented exit-code contract, through the real executable:
   2 for caller error, 3 for broken environment, 0 for a no-op run. *)
let run_quiet args = Sys.command (exe ^ " " ^ args ^ " >/dev/null 2>&1")

let test_cli_exit_codes () =
  Alcotest.(check int) "serve without a spec is usage" 2
    (run_quiet "serve --socket t-none.sock");
  Alcotest.(check int) "bad graph spec is infra" 3
    (run_quiet "serve bogus-spec --socket t-none.sock");
  Alcotest.(check int) "soak --messages=0 is usage" 2
    (run_quiet "soak --messages=0");
  Alcotest.(check int) "slo --queries=0 is usage" 2
    (run_quiet "serve --slo --queries=0");
  Alcotest.(check int) "empty corpus is clean" 0
    (run_quiet "serve --slo --corpus t-no-such-dir");
  Alcotest.(check int) "query with nothing to send is usage" 2
    (run_quiet "query --socket t-none.sock");
  Alcotest.(check int) "query against a dead socket is infra" 3
    (run_quiet "query --socket t-none.sock health");
  Alcotest.(check int) "query negative retries is usage" 2
    (run_quiet "query --socket t-none.sock --retries=-1 health");
  (* shorthand fields are strict decimals, rejected before connecting *)
  List.iter
    (fun req ->
      Alcotest.(check int) (req ^ " is usage") 2
        (run_quiet ("query --socket t-none.sock " ^ req)))
    [ "route:0x1F:3"; "fail:1_0"; "recover:+2"; "fail-link:0o7:1" ];
  Alcotest.(check int) "chaos sub-1 gray factor is usage" 2
    (run_quiet "chaos torus:4x4 --gray-factor 0.5");
  Alcotest.(check int) "chaos bad min-delivery is usage" 2
    (run_quiet "chaos torus:4x4 --min-delivery 1.5");
  Alcotest.(check int) "serve --slo sub-1 gray factor is usage" 2
    (run_quiet "serve --slo --gray-factor 0.5");
  (* every numeric flag is range-checked before the command runs *)
  List.iter
    (fun args -> Alcotest.(check int) (args ^ " is usage") 2 (run_quiet args))
    [
      "tolerate torus:4x4 --faults=-1";
      "tolerate torus:4x4 --engine scalar --faults=-2";
      "check torus:4x4 t-none.routing --faults=-1";
      "simulate torus:4x4 --crashes=-3";
      "simulate torus:4x4 --crashes=99";
      "attack torus:4x4 --faults=-1";
      "attack torus:4x4 --budget=-1";
      "compact hypercube:4 --faults=-1";
      "tolerate torus:4x4 --jobs 0";
      "props torus:4x4 --kill 99";
      "props torus:4x4 --kill=-1";
      (* once checked in one serve mode only, now in both *)
      "serve --slo --max-queue 0";
      "serve --slo --deadline-ms=-1";
      "serve bogus-spec --socket t-none.sock --queries 0";
    ];
  (* integer flags are strict decimals: anything else does not parse,
     which is a usage error too *)
  List.iter
    (fun args -> Alcotest.(check int) (args ^ " does not parse") 2 (run_quiet args))
    [ "tolerate torus:4x4 -f 0x1"; "soak --messages 1_0"; "tolerate torus:4x4 -j +2" ]

(* `ftr soak` rebuilds each corpus construction and, like `serve
   --slo`, refuses an entry recorded against another vertex count:
   ccc:3 has 24 vertices, the copy claims 25. *)
let test_soak_stale_corpus () =
  let dir = Filename.temp_dir "ftr-stale" "" in
  let entry = Filename.concat dir "ccc-3__kernel.json" in
  let out = Filename.concat dir "out.txt" in
  Out_channel.with_open_bin entry (fun oc ->
      output_string oc
        {|[
  {"graph": "ccc:3", "strategy": "kernel", "seed": 48879, "n": 25, "f": 2, "faults": [4, 14], "diameter": 4, "bound": 4, "found_by": "attack(seed=48879)"}
]
|});
  let code =
    Sys.command
      (Printf.sprintf "%s soak --corpus %s --messages 20 > %s 2>&1" exe
         (Filename.quote dir) (Filename.quote out))
  in
  let text = String.concat "\n" (read_lines out) in
  List.iter Sys.remove [ entry; out ];
  Sys.rmdir dir;
  Alcotest.(check int) ("exit 3: " ^ text) 3 code;
  let needle = "stale corpus entry: n=25 but the construction has 24" in
  let k = String.length needle in
  let rec found i =
    i + k <= String.length text && (String.sub text i k = needle || found (i + 1))
  in
  Alcotest.(check bool) "names the stale entry" true (found 0)

let test_cli_chaos_smoke () =
  Alcotest.(check int) "short chaos scenario is clean" 0
    (run_quiet
       "chaos torus:4x4 --queries 5 --burst 10 --max-queue 4 --seed 3 \
        --journal-dir .")

(* ---------------- codec golden ---------------- *)

(* The serve layer's reply bytes, pinned: a fixed stream of about
   2,000 requests on hypercube:6 (the benchmark's query graph, built
   as `ftr serve` builds it) through Wire parsing, the request core
   and the Sjson printer. Routes, fault deltas (valid, no-op and
   rejected), diameters, health, stats and malformed lines are mixed;
   the live timing fields are masked, every other byte must match
   golden/serve-replies-hypercube-6.txt. On a mismatch the actual
   replies are written to serve-replies-hypercube-6.actual beside the
   test for diffing. *)
let golden_dir = if Sys.file_exists "golden" then "golden" else "test/golden"

let masked_keys = [ "service_ms"; "uptime_ms"; "p50_ms"; "p99_ms"; "p999_ms" ]

(* Replace the value of every masked key (a number or null: never a
   string, array or object) with "*". *)
let mask line =
  let b = Buffer.create (String.length line) in
  let n = String.length line in
  let i = ref 0 in
  while !i < n do
    let key =
      List.find_opt
        (fun k ->
          let pat = "\"" ^ k ^ "\":" in
          let l = String.length pat in
          !i + l <= n && String.sub line !i l = pat)
        masked_keys
    in
    match key with
    | Some k ->
        Buffer.add_string b ("\"" ^ k ^ "\":\"*\"");
        i := !i + String.length k + 3;
        while !i < n && line.[!i] <> ',' && line.[!i] <> '}' do
          incr i
        done
    | None ->
        Buffer.add_char b line.[!i];
        incr i
  done;
  Buffer.contents b

let golden_requests graph rng =
  let n = Graph.n graph in
  let edges = Array.of_list (Graph.edges graph) in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  (* The fault state wanders within a few faults, except for a storm
     in the middle of the stream that takes it far past the tolerance,
     so routes see intact, degraded, detoured and unreachable regimes;
     one op in 20 names a node out of range or a non-edge. *)
  let down = ref [] and cut = ref [] and step = ref 0 in
  let storm () = !step > 700 && !step < 1300 in
  let node () =
    if Random.State.int rng 20 = 0 then n + Random.State.int rng 5
    else Random.State.int rng n
  in
  let link () =
    if Random.State.int rng 20 = 0 then (Random.State.int rng n, Random.State.int rng n)
    else pick edges
  in
  let factors = [| 1.0; 1.5; 2.0; 2.75; 8.0; 0.5 |] in
  let request () =
    match Random.State.int rng 100 with
    | k when k < 70 -> Wire.Route { src = node (); dst = node () }
    | k when k < 78 ->
        if List.length !down < if storm () then 28 else 4 then begin
          let v = node () in
          down := v :: !down;
          Wire.Fault (Wire.Fail_node v)
        end
        else begin
          let v = pick (Array.of_list !down) in
          down := List.filter (( <> ) v) !down;
          Wire.Fault (Wire.Recover_node v)
        end
    | k when k < 80 -> Wire.Fault (Wire.Recover_node (node ()))
    | k when k < 84 ->
        if List.length !cut < if storm () then 40 else 3 then begin
          let u, v = link () in
          cut := (u, v) :: !cut;
          Wire.Fault (Wire.Fail_link (u, v))
        end
        else begin
          let u, v = pick (Array.of_list !cut) in
          cut := List.filter (( <> ) (u, v)) !cut;
          Wire.Fault (Wire.Recover_link (u, v))
        end
    | k when k < 85 ->
        let u, v = link () in
        Wire.Fault (Wire.Recover_link (u, v))
    | k when k < 87 ->
        let u, v = link () in
        Wire.Fault (Wire.Degrade_link (u, v, pick factors))
    | k when k < 88 ->
        let u, v = link () in
        Wire.Fault (Wire.Restore_link (u, v))
    | k when k < 94 -> Wire.Diameter
    | k when k < 96 -> Wire.Health
    | k when k < 97 -> Wire.Ready
    | _ -> Wire.Stats
  in
  (* A byte mutation of a valid line: deleted, replaced or truncated. *)
  let mutate line =
    let l = String.length line in
    let i = Random.State.int rng l in
    let junk = "{}[]\",:-+.eE0179 \\tnux" in
    match Random.State.int rng 3 with
    | 0 -> String.sub line 0 i ^ String.sub line (i + 1) (l - i - 1)
    | 1 ->
        String.sub line 0 i
        ^ String.make 1 junk.[Random.State.int rng (String.length junk)]
        ^ String.sub line (i + 1) (l - i - 1)
    | _ -> String.sub line 0 i
  in
  let random count =
    List.init count (fun _ ->
        incr step;
        let line = Wire.request_to_line (request ()) in
        if Random.State.int rng 12 = 0 then mutate line else line)
  in
  (* Vertex 5 cut off by its links: the graph itself disconnects, so
     its routes are unreachable until the links come back. *)
  let isolate action =
    List.map
      (fun (u, v) -> Wire.request_to_line (Wire.Fault (action (u, v))))
      (List.filter (fun (u, v) -> u = 5 || v = 5) (Array.to_list edges))
  in
  let probes =
    List.map Wire.request_to_line
      (List.init 8 (fun k -> Wire.Route { src = 5; dst = 8 * k })
      @ List.init 8 (fun k -> Wire.Route { src = (8 * k) + 1; dst = 5 })
      @ [ Wire.Diameter; Wire.Health ])
  in
  List.concat
    [
      random 1000;
      isolate (fun (u, v) -> Wire.Fail_link (u, v));
      probes;
      random 960;
      isolate (fun (u, v) -> Wire.Recover_link (u, v));
      probes;
      [
        {|{"op":"route","src":1,"dst":2,"src":3}|};
        {|  {"op" : "stats"}  |};
        {|{"op":"fault","action":"degrade","link":[0,1],"factor":1e400}|};
        {|{"op":"route","src":-4611686018427387904,"dst":4611686018427387903}|};
        {|{"op":"route","src":4611686018427387904,"dst":0}|};
        {|{"op":"route","src":0,"dst":9}|};
        {|{"op":"drain"}|};
      ];
    ]

let golden_replies () =
  let g =
    match Ftr_analysis.Graph_spec.parse "hypercube:6" with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  let c = (Builder.auto ~rng:(Random.State.make [| 0xBEEF |]) g).Builder.construction in
  let fmax =
    List.fold_left
      (fun acc (cl : Construction.claim) -> max acc cl.max_faults)
      0 c.Construction.claims
  in
  let srv =
    Server.create
      { Server.max_queue = 64; deadline = 0.0; bound = Construction.bound_for c ~f:fmax }
      (Engine.create c.Construction.routing)
  in
  List.map
    (fun line ->
      mask
        (match Wire.request_of_line line with
        | Error msg -> Wire.error_line msg
        | Ok req -> Sjson.to_string (Server.handle srv req)))
    (golden_requests g (Random.State.make [| 20 |]))

(* Fails unless [actual] equals the lines of golden/[name]; on a
   mismatch the actual lines go to [name] with its extension replaced
   by .actual, in the working directory, for diffing. *)
let check_golden name actual =
  let expected = read_lines (Filename.concat golden_dir name) in
  if actual <> expected then begin
    Out_channel.with_open_bin
      (Filename.remove_extension name ^ ".actual")
      (fun oc -> List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first_diff i = function
      | a :: xs, b :: ys -> if a = b then first_diff (i + 1) (xs, ys) else (i, a, b)
      | [], b :: _ -> (i, "<end>", b)
      | a :: _, [] -> (i, a, "<end>")
      | [], [] -> (i, "", "")
    in
    let i, want, got = first_diff 1 (expected, actual) in
    Alcotest.failf "%s line %d differs:\n  golden %s\n  actual %s" name i want got
  end

let test_golden_replies () =
  check_golden "serve-replies-hypercube-6.txt" (golden_replies ())

(* ---------------- goldens ---------------- *)

(* The two built-in scenarios through the real executable: the CI
   chaos run, the same run with --min-delivery 0.95 (which breaches on
   the regional outage), and the corpus SLO soak. Every byte of their
   stdout and artifacts is pinned except the wall-clock latencies:
   the p50_ms/p99_ms/p999_ms values of slo.json and the p50=/p99=
   figures of stdout. The ftr-chaos/1 artifact holds no wall-clock
   value and is compared as written. *)

let mask_figures line =
  let b = Buffer.create (String.length line) in
  let n = String.length line in
  let is_figure c = (c >= '0' && c <= '9') || c = '.' in
  let rec go i =
    if i < n then
      if i + 4 <= n && List.mem (String.sub line i 4) [ "p50="; "p99=" ] then begin
        Buffer.add_string b (String.sub line i 4 ^ "*");
        let j = ref (i + 4) in
        while !j < n && is_figure line.[!j] do
          incr j
        done;
        go !j
      end
      else begin
        Buffer.add_char b line.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* Runs [ftr args] in a fresh directory [dir] (journals and the
   artifact [out] go there) and returns the exit code, the masked
   stdout lines and the artifact lines. *)
let run_scenario args ~out =
  let dir = Filename.temp_dir "ftr-scenario" "" in
  let stdout_file = Filename.concat dir "stdout" in
  let artifact = Filename.concat dir out in
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let code =
    Sys.command
      (Printf.sprintf "%s %s %s --journal-dir %s > %s 2>/dev/null" exe args
         (Filename.quote artifact) (Filename.quote dir) (Filename.quote stdout_file))
  in
  (code, List.map mask_figures (read_lines stdout_file), read_lines artifact)

let chaos_args =
  "chaos torus:5x5 --seed 48879 --queries 30 --burst 48 --max-queue 16 --certify \
   --jobs 1"

let test_golden_chaos ~breach () =
  let args, stem, want =
    if breach then (chaos_args ^ " --min-delivery 0.95", "chaos-torus-5x5-breach", 1)
    else (chaos_args, "chaos-torus-5x5", 0)
  in
  let code, stdout, artifact = run_scenario (args ^ " --chaos-out") ~out:"chaos.json" in
  Alcotest.(check int) "exit code" want code;
  check_golden (stem ^ ".txt") stdout;
  check_golden (stem ^ ".json") artifact

let test_golden_slo () =
  let corpus = Filename.concat (Filename.dirname golden_dir) "../corpus" in
  let code, stdout, artifact =
    run_scenario
      ("serve --slo --corpus " ^ corpus ^ " --gray-factor 8 --seed 48879 --slo-out")
      ~out:"slo.json"
  in
  Alcotest.(check int) "exit code" 0 code;
  check_golden "slo-corpus.txt" stdout;
  check_golden "slo-corpus.json" (List.map mask artifact)

(* ---------------- documents ---------------- *)

(* Every JSON document the repo writes parses back through the one
   codec, and the strings in it come back unchanged. *)

let parses what text =
  match Sjson.parse text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s does not parse: %s" what e

let get path v =
  List.fold_left
    (fun v key ->
      match (v, int_of_string_opt key) with
      | Sjson.Arr items, Some i -> List.nth items i
      | _ -> Option.get (Sjson.member key v))
    v path

(* Quote, backslash, tab, CR and a raw control byte. *)
let awkward = "q\"b\\s\tt\rr\001x"

let test_documents_metrics () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  let c = Kernel.make (Families.torus 5 5) ~t:3 in
  ignore (Tolerance.certify ~jobs:1 c.Construction.routing ~f:1 ~bound:6);
  Obs.record_span awkward 0.001;
  let doc = parses "ftr-metrics/1" (Obs.to_json ()) in
  Alcotest.(check (option string)) "schema" (Some "ftr-metrics/1")
    (Sjson.to_str (get [ "schema" ] doc));
  let ints = function
    | Sjson.Obj fields -> List.map (fun (k, v) -> (k, Option.get (Sjson.to_int v))) fields
    | _ -> Alcotest.fail "expected an object"
  in
  Alcotest.(check (list (pair string int))) "counters read back" (Obs.counters ())
    (ints (get [ "counters" ] doc));
  Alcotest.(check (list (pair string int))) "counters_json reads back" (Obs.counters ())
    (ints (parses "counters_json" (Obs.counters_json ())));
  Alcotest.(check (option int)) "span name round-trips" (Some 1)
    (Sjson.to_int (get [ "spans"; awkward; "count" ] doc))

let test_documents_lint () =
  let dir = if Sys.file_exists "lint_fixtures" then "lint_fixtures" else "test/lint_fixtures" in
  let config = { Ftr_lint.Rules.default_config with Ftr_lint.Rules.bin_paths = [ dir ] } in
  let report = Ftr_lint.Driver.lint_paths ~config [ dir ] in
  let doc = parses "ftr-lint/2 over the fixtures" (Diagnostic.to_json report) in
  Alcotest.(check (option int)) "every diagnostic"
    (Some (List.length report.Diagnostic.diagnostics))
    (Option.map List.length (Sjson.to_list (get [ "diagnostics" ] doc)));
  Alcotest.(check bool) "fixtures give diagnostics" true (report.Diagnostic.diagnostics <> []);
  let d =
    {
      Diagnostic.rule = "L1";
      file = awkward ^ ".ml";
      line = 3;
      col = 0;
      end_line = 3;
      end_col = 9;
      fingerprint = "0123456789ab";
      message = awkward;
    }
  in
  let text =
    Diagnostic.to_json
      {
        Diagnostic.files_scanned = 1;
        files_cached = 0;
        diagnostics = [ d ];
        suppressions = [ { Diagnostic.diag = d; justification = awkward } ];
      }
  in
  let doc = parses "ftr-lint/2 with awkward strings" text in
  let str path = Sjson.to_str (get path doc) in
  Alcotest.(check (option string)) "message" (Some awkward)
    (str [ "diagnostics"; "0"; "message" ]);
  Alcotest.(check (option string)) "file" (Some (awkward ^ ".ml"))
    (str [ "diagnostics"; "0"; "file" ]);
  Alcotest.(check (option string)) "justification" (Some awkward)
    (str [ "suppressed"; "0"; "justification" ]);
  Alcotest.(check (option int)) "line" (Some 3)
    (Sjson.to_int (get [ "diagnostics"; "0"; "line" ] doc))

let test_documents_corpus () =
  let entries = [ { (entry [ 7 ] [ (0, 1) ]) with Attack.Corpus.found_by = awkward } ] in
  let doc = parses "corpus" (Attack.Corpus.to_json entries) in
  Alcotest.(check (option string)) "found_by" (Some awkward)
    (Sjson.to_str (get [ "0"; "found_by" ] doc));
  Alcotest.(check (option (pair int int))) "edge fault" (Some (0, 1))
    (Sjson.int_pair (get [ "0"; "edge_faults"; "0" ] doc))

(* The slo.json and chaos artifacts are Sjson values: printed, they
   parse back and print to the same bytes. *)
let test_documents_soak_chaos () =
  let reprint what v =
    let text = Sjson.to_string v in
    Alcotest.(check string) what text (Sjson.to_string (parses what text))
  in
  let outcome = soak [ entry [ 7 ] [] ] in
  reprint "ftr-slo/1" (Scenario.slo_json soak_config outcome);
  with_temp_file "t-chaos-doc.journal" @@ fun _ ->
  let c = Kernel.make (Families.torus 5 5) ~t:3 in
  reprint "ftr-chaos/1"
    (Scenario.chaos_json chaos_config chaos_settings
       (Scenario.chaos ~label:"t-chaos-doc" c chaos_config chaos_settings))

let () =
  Alcotest.run "serve"
    [
      ( "sjson",
        [
          Alcotest.test_case "canonical print" `Quick test_sjson_print;
          Alcotest.test_case "non-finite floats" `Quick test_sjson_nonfinite_floats;
          Alcotest.test_case "roundtrip" `Quick test_sjson_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_sjson_parse_errors;
          Alcotest.test_case "unicode escapes" `Quick test_sjson_unicode_escapes;
          Alcotest.test_case "accessors" `Quick test_sjson_accessors;
          Alcotest.test_case "quantised floats round-trip" `Quick
            test_sjson_quantised_roundtrip;
          QCheck_alcotest.to_alcotest prop_float_repr_matches_oracle;
          QCheck_alcotest.to_alcotest prop_parse_matches_oracle;
          QCheck_alcotest.to_alcotest prop_parse_print_roundtrip;
        ] );
      ( "documents",
        [
          Alcotest.test_case "ftr-metrics/1" `Quick test_documents_metrics;
          Alcotest.test_case "ftr-lint/2" `Quick test_documents_lint;
          Alcotest.test_case "corpus" `Quick test_documents_corpus;
          Alcotest.test_case "slo.json and chaos" `Quick test_documents_soak_chaos;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "chaos clean" `Quick (test_golden_chaos ~breach:false);
          Alcotest.test_case "chaos breach" `Quick (test_golden_chaos ~breach:true);
          Alcotest.test_case "slo corpus" `Quick test_golden_slo;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "golden replies on hypercube:6" `Quick test_golden_replies;
        ] );
      ("exit codes", [ Alcotest.test_case "contract" `Quick test_exit_codes ]);
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "missing file is empty" `Quick
            test_journal_missing_is_empty;
          Alcotest.test_case "rejects a foreign file" `Quick
            test_journal_rejects_foreign_file;
          Alcotest.test_case "rejects a bad line" `Quick
            test_journal_rejects_bad_line;
          Alcotest.test_case "rejects a bad degrade factor" `Quick
            test_journal_rejects_bad_degrade_factor;
          Alcotest.test_case "rejects non-decimal fields" `Quick
            test_journal_rejects_non_decimal_fields;
          Alcotest.test_case "loads existing journals" `Quick
            test_journal_loads_existing_files;
          Alcotest.test_case "torn tail is skipped and truncated" `Quick
            test_journal_torn_tail;
        ] );
      ( "admission",
        [
          Alcotest.test_case "fifo + queue shed" `Quick
            test_admission_fifo_and_queue_shed;
          Alcotest.test_case "deadline expiry" `Quick test_admission_deadline_expiry;
          Alcotest.test_case "expiries drain oldest-deadline first" `Quick
            test_admission_expires_oldest_deadline_first;
          Alcotest.test_case "rejects a bad budget" `Quick
            test_admission_rejects_bad_budget;
        ] );
      ( "engine",
        [
          Alcotest.test_case "validate/apply idempotence" `Quick
            test_engine_validate_and_apply;
          Alcotest.test_case "replay lands on the same digest" `Quick
            test_engine_replay_digest;
          Alcotest.test_case "gray degrade apply/no-op" `Quick
            test_engine_degrade_apply;
          Alcotest.test_case "route + degraded flag" `Quick
            test_engine_route_and_bound;
          Alcotest.test_case "detour and unreachable" `Quick
            test_engine_detour_and_unreachable;
          QCheck_alcotest.to_alcotest prop_diameter_memo;
          QCheck_alcotest.to_alcotest prop_engine_route_matches_routing;
        ] );
      ( "server",
        [
          Alcotest.test_case "probes" `Quick test_server_handle_probes;
          Alcotest.test_case "route + stats" `Quick
            test_server_handle_route_and_stats;
          Alcotest.test_case "write-ahead journal" `Quick
            test_server_fault_is_write_ahead;
          Alcotest.test_case "sheds at queue budget" `Quick
            test_server_sheds_at_queue_budget;
          Alcotest.test_case "expires stale requests" `Quick
            test_server_expires_stale_requests;
          Alcotest.test_case "drain refuses new work" `Quick
            test_server_drain_refuses_new_work;
          Alcotest.test_case "health reports shed + degraded links" `Quick
            test_server_health_reports_shed_and_degraded;
          Alcotest.test_case "durable or refused" `Quick
            test_server_refuses_deltas_after_journal_failure;
          Alcotest.test_case "one fsync per pump batch" `Quick
            test_server_pump_group_commits;
        ] );
      ( "soak",
        [
          Alcotest.test_case "clean run" `Quick test_soak_clean_run;
          Alcotest.test_case "stale entry is infra" `Quick
            test_soak_stale_entry_is_infra;
          Alcotest.test_case "build failure is infra" `Quick
            test_soak_build_failure_is_infra;
          Alcotest.test_case "slo.json artifact" `Quick test_soak_json_artifact;
          Alcotest.test_case "gray wave holds the contract" `Quick
            test_soak_gray_wave;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "clean scenario" `Quick test_chaos_clean_run;
          Alcotest.test_case "deterministic artifact" `Quick
            test_chaos_artifact_deterministic;
          Alcotest.test_case "bad journal dir is infra" `Quick
            test_chaos_bad_journal_dir_is_infra;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "daemon serves and drains" `Quick
            test_daemon_end_to_end;
          Alcotest.test_case "SIGTERM drains" `Quick test_daemon_sigterm_drains;
          Alcotest.test_case "pipelined replies" `Quick
            test_daemon_pipelined_replies;
          Alcotest.test_case "split, blank and CRLF lines" `Quick
            test_daemon_frames_lines;
          Alcotest.test_case "exit codes" `Quick test_cli_exit_codes;
          Alcotest.test_case "soak stale corpus" `Quick test_soak_stale_corpus;
          Alcotest.test_case "chaos smoke" `Quick test_cli_chaos_smoke;
        ] );
    ]
