open Ftr_analysis

let quick_ctx = Experiments.default_context ~seed:42 ~quick:true ()

let test_registry () =
  Alcotest.(check int) "26 experiments" 26 (List.length Experiments.ids);
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " described") true
        (String.length (Experiments.describe id) > 0))
    Experiments.ids

(* Unknown ids fail with a diagnostic Invalid_argument that names the
   bad id, not a bare Not_found. *)
let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_unknown_id () =
  let check_unknown name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool) (name ^ " names the bad id") true
          (contains_substring msg "E99")
  in
  check_unknown "describe" (fun () -> ignore (Experiments.describe "E99"));
  check_unknown "run" (fun () -> ignore (Experiments.run quick_ctx "E99"))

let test_no_violations_in_core_claims () =
  (* The cheapest theorem experiments, end to end. *)
  List.iter
    (fun id ->
      let table = Experiments.run quick_ctx id in
      Alcotest.(check bool) (id ^ " has rows") true (List.length table.Table.rows > 0);
      Alcotest.(check (list string)) (id ^ " no violations") []
        (List.concat_map
           (fun row -> List.filter (fun c -> c = "VIOLATION") row)
           table.Table.rows))
    [ "E2"; "E5"; "E10"; "E12" ]

let test_e8_bound_always_met () =
  let table = Experiments.run quick_ctx "E8" in
  List.iter
    (fun row ->
      Alcotest.(check string) "Lemma 15 met" "ok" (List.nth row 5))
    table.Table.rows

let test_figures_without_outdir () =
  let table = Experiments.run quick_ctx "F1" in
  Alcotest.(check int) "one row" 1 (List.length table.Table.rows)

let test_figures_with_outdir () =
  let dir = Filename.temp_file "ftr" "" in
  Sys.remove dir;
  let ctx = Experiments.default_context ~seed:42 ~quick:true ~out_dir:dir () in
  let table = Experiments.run ctx "F3" in
  let file = List.nth (List.hd table.Table.rows) 3 in
  Alcotest.(check bool) "file written" true (Sys.file_exists file);
  let ic = open_in file in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "dot preamble" "graph bipolar {" line

(* A figure that cannot be written is reported, not crashed on. *)
let test_figure_write_failure () =
  let ctx =
    Experiments.default_context ~seed:42 ~quick:true ~out_dir:"t-no-such-dir/figs" ()
  in
  match Experiments.run ctx "F1" with
  | _ -> Alcotest.fail "figure written under a missing directory"
  | exception Experiments.Write_failed path ->
      Alcotest.(check string) "failed path" "t-no-such-dir/figs/fig1_circular.dot" path

(* The executable's write failures, through the real binary: each
   prints [cannot write PATH] and exits 3. *)
let exe =
  if Sys.file_exists "../bin/experiments.exe" then "../bin/experiments.exe"
  else "_build/default/bin/experiments.exe"

let test_cli_write_failures () =
  let run args = Sys.command (exe ^ " --quick " ^ args ^ " >/dev/null 2>&1") in
  Alcotest.(check int) "markdown in a missing directory" 3
    (run "E2 --markdown t-no-such-dir/x.md");
  Alcotest.(check int) "csv in a missing directory" 3 (run "E2 --csv-dir t-no-such-dir/csv");
  Alcotest.(check int) "figure in a missing directory" 3
    (run "F1 --out-dir t-no-such-dir/figs");
  if Sys.file_exists "/dev/full" then begin
    Alcotest.(check int) "metrics to a full disk" 3 (run "E2 --metrics /dev/full");
    Alcotest.(check int) "markdown to a full disk" 3 (run "E2 --markdown /dev/full")
  end

let test_deterministic () =
  let a = Experiments.run quick_ctx "E2" in
  let b = Experiments.run quick_ctx "E2" in
  Alcotest.(check bool) "same rows" true (a.Table.rows = b.Table.rows)

let test_all_quick_experiments_clean () =
  (* The whole harness in quick mode: no VIOLATION cell anywhere. *)
  List.iter
    (fun (id, table) ->
      List.iter
        (fun row ->
          List.iter
            (fun cell ->
              if cell = "VIOLATION" then
                Alcotest.failf "%s: %s" id (String.concat " | " row))
            row)
        table.Table.rows)
    (Experiments.all quick_ctx)

let test_jobs_bit_identical () =
  (* The whole quick experiment table must not depend on the worker
     count: every cell of every row of every experiment is identical
     between a sequential and a 4-domain run. *)
  let tables jobs = Experiments.all ~jobs quick_ctx in
  let seq = tables 1 and par = tables 4 in
  Alcotest.(check int) "same experiment count" (List.length seq) (List.length par);
  List.iter2
    (fun (id1, (t1 : Table.t)) (id2, (t2 : Table.t)) ->
      Alcotest.(check string) "same id" id1 id2;
      Alcotest.(check bool) (id1 ^ " identical rows") true (t1.Table.rows = t2.Table.rows))
    seq par

let () =
  Alcotest.run "experiments"
    [
      ( "experiments",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "unknown id" `Quick test_unknown_id;
          Alcotest.test_case "core claims clean" `Slow test_no_violations_in_core_claims;
          Alcotest.test_case "E8 bound met" `Quick test_e8_bound_always_met;
          Alcotest.test_case "figure no outdir" `Quick test_figures_without_outdir;
          Alcotest.test_case "figure with outdir" `Quick test_figures_with_outdir;
          Alcotest.test_case "figure write failure" `Quick test_figure_write_failure;
          Alcotest.test_case "cli write failures exit 3" `Quick test_cli_write_failures;
          Alcotest.test_case "deterministic" `Slow test_deterministic;
          Alcotest.test_case "all quick experiments clean" `Slow test_all_quick_experiments_clean;
          Alcotest.test_case "jobs=1 and jobs=4 bit-identical" `Slow
            test_jobs_bit_identical;
        ] );
    ]
