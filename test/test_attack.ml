(* The adversarial fault-search engine: search quality against
   exhaustive ground truth and uniform random sampling, witness
   shrinking, determinism, and the persistent witness corpus. *)

open Ftr_graph
open Ftr_core

let distance = Alcotest.testable Metrics.pp_distance ( = )

(* Small instances where exhaustive enumeration is the ground truth. *)
let small_instances () =
  [
    ("hypercube(3)/kernel", Kernel.make (Families.hypercube 3) ~t:2, 2);
    ("ccc(3)/kernel", Kernel.make (Families.ccc 3) ~t:2, 2);
    ("cycle(12)/bipolar-uni", Bipolar.make_unidirectional (Families.cycle 12) ~t:1, 1);
  ]

(* grid(15x15) at f=2 has ~25.4k fault sets: beyond the default
   exhaustive budget, and its corner cuts hide from uniform sampling. *)
let grid_kernel = lazy (Kernel.make (Families.grid 15 15) ~t:1)

let test_finds_exhaustive_worst () =
  List.iter
    (fun (name, c, f) ->
      let routing = c.Construction.routing in
      let n = Graph.n (Routing.graph routing) in
      let truth = Tolerance.exhaustive routing ~f in
      let runs = 10 in
      let hits = ref 0 in
      for i = 1 to runs do
        let rng = Random.State.make [| 1234; i |] in
        let o = Attack.search ~rng ~pools:c.Construction.pools routing ~f in
        if Attack.score ~n o.Attack.worst >= Attack.score ~n truth.Tolerance.worst
        then incr hits
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d/%d seeded runs reach the exhaustive worst" name
           !hits runs)
        true
        (!hits * 10 >= 9 * runs))
    (small_instances ())

let test_beats_random_on_large () =
  let c = Lazy.force grid_kernel in
  let routing = c.Construction.routing in
  let n = Graph.n (Routing.graph routing) in
  Alcotest.(check bool) "too large for exhaustive" true
    (Tolerance.count_subsets_up_to ~n ~k:2 > 20_000);
  let o =
    Attack.search
      ~rng:(Random.State.make [| 42; 3 |])
      ~pools:c.Construction.pools routing ~f:2
  in
  let rnd =
    Tolerance.random routing ~f:2 ~rng:(Random.State.make [| 42; 4 |]) ~samples:300
  in
  Alcotest.check distance "attack finds a disconnecting pair" Metrics.Infinite
    o.Attack.worst;
  Alcotest.(check bool)
    (Printf.sprintf "attack (%s) strictly beats 300 uniform samples (%s)"
       (Format.asprintf "%a" Metrics.pp_distance o.Attack.worst)
       (Format.asprintf "%a" Metrics.pp_distance rnd.Tolerance.worst))
    true
    (Attack.score ~n o.Attack.worst > Attack.score ~n rnd.Tolerance.worst)

let test_shrink_keeps_diameter_and_is_minimal () =
  let c = Kernel.make (Families.hypercube 3) ~t:2 in
  let routing = c.Construction.routing in
  let n = Graph.n (Routing.graph routing) in
  let compiled = Surviving.compile routing in
  let truth = Tolerance.exhaustive routing ~f:2 in
  let w, d, evals = Attack.shrink compiled ~witness:truth.Tolerance.witness in
  let w = w.Surviving.nodes in
  Alcotest.(check bool) "achieves at least the original diameter" true
    (Metrics.distance_le truth.Tolerance.worst d);
  Alcotest.(check bool) "spent evaluations" true (evals > 0);
  Alcotest.(check bool) "no larger than the original" true
    (List.length w <= List.length truth.Tolerance.witness.nodes);
  let check_minimal w d =
    List.iter
      (fun u ->
        let rest = List.filter (fun v -> v <> u) w in
        let d' =
          Surviving.diameter routing ~faults:(Bitset.of_list n rest)
        in
        Alcotest.(check bool)
          (Printf.sprintf "dropping %d strictly lowers the diameter" u)
          true
          (not (Metrics.distance_le d d')))
      w
  in
  check_minimal w d;
  (* A witness padded with irrelevant vertices still shrinks to a
     locally minimal set. *)
  let padded = List.sort_uniq compare (truth.Tolerance.witness.nodes @ [ 0; 5 ]) in
  let w2, d2, _ = Attack.shrink compiled ~witness:{ Surviving.nodes = padded; links = [] } in
  let w2 = w2.Surviving.nodes in
  Alcotest.(check bool) "shrunk set is a subset of the input" true
    (List.for_all (fun v -> List.mem v padded) w2);
  check_minimal w2 d2

let test_deterministic_and_reproducible () =
  let c = Kernel.make (Families.ccc 3) ~t:2 in
  let routing = c.Construction.routing in
  let n = Graph.n (Routing.graph routing) in
  let run () =
    Attack.search
      ~rng:(Random.State.make [| 7 |])
      ~pools:c.Construction.pools routing ~f:2
  in
  let a = run () and b = run () in
  Alcotest.(check (list int)) "same witness" a.Attack.witness.nodes b.Attack.witness.nodes;
  Alcotest.(check (list (pair int int))) "no link faults" [] a.Attack.witness.links;
  Alcotest.check distance "same worst" a.Attack.worst b.Attack.worst;
  Alcotest.(check int) "same evals" a.Attack.evals b.Attack.evals;
  Alcotest.(check int) "same restarts" a.Attack.restarts_used b.Attack.restarts_used;
  (* The shrunk witness reproduces the reported diameter exactly. *)
  let d = Surviving.diameter routing ~faults:(Bitset.of_list n a.Attack.witness.nodes) in
  Alcotest.check distance "witness reproduces the reported worst" a.Attack.worst d;
  Alcotest.(check bool) "witness within the fault budget" true
    (List.length a.Attack.witness.nodes <= 2);
  Alcotest.(check bool) "search respects its budget (plus shrinking)" true
    (a.Attack.evals <= Attack.default_config.Attack.budget + 20)

let sample_entries () =
  [
    {
      Attack.Corpus.graph = "grid:15x15";
      strategy = "kernel";
      seed = 42;
      n = 225;
      f = 2;
      faults = [ 209; 223 ];
      edges = [];
      diameter = Metrics.Infinite;
      bound = None;
      found_by = "attack(seed=42)";
    };
    {
      Attack.Corpus.graph = "hypercube:3";
      strategy = "kernel";
      seed = 7;
      n = 8;
      f = 2;
      faults = [ 3; 6 ];
      edges = [];
      diameter = Metrics.Finite 4;
      bound = Some 4;
      found_by = "attack(seed=7)";
    };
  ]

let test_corpus_json_roundtrip () =
  let entries = sample_entries () in
  match Attack.Corpus.of_json (Attack.Corpus.to_json entries) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check int) "same length" (List.length entries) (List.length back);
      Alcotest.(check bool) "identical entries" true (back = entries)

let test_corpus_add_dedupes () =
  let entries = sample_entries () in
  let e = List.hd entries in
  let _, added =
    Attack.Corpus.add entries { e with seed = 99; found_by = "other run" }
  in
  Alcotest.(check bool) "same witness not re-added" false added;
  let entries', added' = Attack.Corpus.add entries { e with faults = [ 1; 2 ] } in
  Alcotest.(check bool) "new witness added" true added';
  Alcotest.(check int) "appended" (List.length entries + 1) (List.length entries')

let test_corpus_replayable () =
  let entries = sample_entries () in
  Alcotest.(check (list (list int)))
    "matching n and f" [ [ 209; 223 ] ]
    (Attack.Corpus.replayable entries ~n:225 ~f:2);
  Alcotest.(check (list (list int)))
    "fault budget too small" []
    (Attack.Corpus.replayable entries ~n:225 ~f:1);
  Alcotest.(check (list (list int)))
    "other instance size" [ [ 3; 6 ] ]
    (Attack.Corpus.replayable entries ~n:8 ~f:3)

let test_corpus_files () =
  let dir = Filename.temp_file "ftr-corpus" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let file = Filename.concat dir "sample.json" in
  (match Attack.Corpus.save_file file (sample_entries ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Attack.Corpus.load_file file with
  | Error e -> Alcotest.fail e
  | Ok es -> Alcotest.(check bool) "file roundtrip" true (es = sample_entries ()));
  (match Attack.Corpus.load_dir dir with
  | [ (p, Ok es) ] ->
      Alcotest.(check string) "path" file p;
      Alcotest.(check bool) "dir roundtrip" true (es = sample_entries ())
  | _ -> Alcotest.fail "expected exactly one parsed corpus file");
  Alcotest.(check bool) "missing directory is empty" true
    (Attack.Corpus.load_dir (Filename.concat dir "nope") = []);
  Sys.remove file;
  Sys.rmdir dir

let test_corpus_rejects_garbage () =
  (match Attack.Corpus.of_json "{\"not\": \"an array\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "object accepted as corpus");
  (* integer fields are strict decimals *)
  List.iter
    (fun field ->
      let json =
        Printf.sprintf
          {|[{"graph": "hypercube:3", "strategy": "kernel", "seed": 7, "n": 8,
              "f": 2, "faults": [3, %s], "diameter": 4, "bound": 4,
              "found_by": "attack(seed=7)"}]|}
          field
      in
      match Attack.Corpus.of_json json with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "fault %S accepted" field)
    [ "+6"; "0x6"; "6_0"; "-" ];
  match Attack.Corpus.of_json "[{\"graph\": \"x\"}]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields accepted"

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

(* A save that cannot be written returns [Error] instead of raising,
   and never touches the file it would have replaced: the entries go
   to a temporary first and are renamed over the target. *)
let test_corpus_save_failure () =
  let dir = Filename.temp_dir "ftr-corpus" "" in
  let plain = Filename.concat dir "plain" in
  Out_channel.with_open_bin plain (fun oc -> output_string oc "not a directory");
  (match Attack.Corpus.save_file (Filename.concat plain "c.json") (sample_entries ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "saved under a regular file");
  let file = Filename.concat dir "c.json" in
  (match Attack.Corpus.save_file file (sample_entries ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let before = read_bytes file in
  (* A directory where the temporary would go makes the write fail. *)
  Sys.mkdir (file ^ ".tmp") 0o755;
  (match Attack.Corpus.save_file file [ List.hd (sample_entries ()) ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "saved over a blocked temporary");
  Alcotest.(check string) "existing corpus keeps its bytes" before (read_bytes file);
  Sys.rmdir (file ^ ".tmp");
  (* A full disk: the temporary opens, but its only write (a corpus
     file is smaller than the channel buffer) fails with ENOSPC. That
     must come back as [Error] before the rename, not as an empty file
     renamed over the saved entries. *)
  if Sys.file_exists "/dev/full" then begin
    Unix.symlink "/dev/full" (file ^ ".tmp");
    (match Attack.Corpus.save_file file [ List.hd (sample_entries ()) ] with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "saved onto a full disk");
    Alcotest.(check string) "full disk keeps the bytes" before (read_bytes file);
    Alcotest.(check bool) "temporary removed" false
      (match Unix.lstat (file ^ ".tmp") with
      | _ -> true
      | exception Unix.Unix_error _ -> false)
  end;
  List.iter Sys.remove [ file; plain ];
  Sys.rmdir dir

let link_entry () =
  {
    Attack.Corpus.graph = "cycle:12";
    strategy = "bipolar-uni";
    seed = 3;
    n = 12;
    f = 2;
    faults = [];
    edges = [ (3, 4); (9, 10) ];
    diameter = Metrics.Infinite;
    bound = None;
    found_by = "attack(seed=3,universe=links)";
  }

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_corpus_v2_stamp_and_edges () =
  let entries = sample_entries () @ [ link_entry () ] in
  let json = Attack.Corpus.to_json entries in
  Alcotest.(check bool) "version stamped" true (contains_sub json "\"version\": 2");
  Alcotest.(check bool) "edge faults serialised" true
    (contains_sub json "\"edge_faults\"");
  match Attack.Corpus.of_json json with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check bool) "v2 roundtrip preserves edges" true (back = entries)

let test_corpus_accepts_legacy () =
  (* A version-less v1 entry, as written before the stamp existed. *)
  let legacy =
    {|[{"graph": "hypercube:3", "strategy": "kernel", "seed": 7, "n": 8,
        "f": 2, "faults": [3, 6], "diameter": 4, "bound": 4,
        "found_by": "attack(seed=7)"}]|}
  in
  match Attack.Corpus.of_json legacy with
  | Error e -> Alcotest.fail ("legacy entry rejected: " ^ e)
  | Ok [ e ] ->
      Alcotest.(check (list int)) "faults" [ 3; 6 ] e.Attack.Corpus.faults;
      Alcotest.(check (list (pair int int)))
        "legacy entries default to no link faults" [] e.Attack.Corpus.edges
  | Ok _ -> Alcotest.fail "expected exactly one entry"

let test_corpus_rejects_bad_version () =
  let with_version v =
    Printf.sprintf
      {|[{"version": %d, "graph": "hypercube:3", "strategy": "kernel",
          "seed": 7, "n": 8, "f": 2, "faults": [3, 6], "diameter": 4,
          "bound": 4, "found_by": "attack(seed=7)"}]|}
      v
  in
  List.iter
    (fun v ->
      match Attack.Corpus.of_json (with_version v) with
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "version %d error names the version" v)
            true
            (contains_sub msg "unsupported corpus version")
      | Ok _ -> Alcotest.fail (Printf.sprintf "version %d accepted" v))
    [ 0; 3; 99 ]

let test_corpus_dedup_and_replayable_with_edges () =
  let e = link_entry () in
  let entries, added = Attack.Corpus.add (sample_entries ()) e in
  Alcotest.(check bool) "link witness added" true added;
  let _, again = Attack.Corpus.add entries { e with seed = 77 } in
  Alcotest.(check bool) "same link witness not re-added" false again;
  let _, other =
    Attack.Corpus.add entries { e with edges = [ (0, 1); (9, 10) ] }
  in
  Alcotest.(check bool) "different link set is a new witness" true other;
  (* replayable is node-only: link entries are skipped even when n/f fit *)
  Alcotest.(check (list (list int)))
    "link entries excluded from node replay" []
    (Attack.Corpus.replayable [ e ] ~n:12 ~f:2)

let test_links_search_reproducible () =
  let c = Kernel.make (Families.ccc 3) ~t:2 in
  let routing = c.Construction.routing in
  let run () =
    Attack.search
      ~rng:(Random.State.make [| 19 |])
      ~pools:c.Construction.pools ~universe:Surviving.Links routing ~f:2
  in
  let a = run () and b = run () in
  Alcotest.(check (list (pair int int))) "same edge witness" a.Attack.witness.links
    b.Attack.witness.links;
  Alcotest.check distance "same worst" a.Attack.worst b.Attack.worst;
  Alcotest.(check int) "same evals" a.Attack.evals b.Attack.evals;
  Alcotest.(check (list int)) "edge universe leaves nodes alone" []
    a.Attack.witness.nodes;
  Alcotest.(check bool) "witness within the fault budget" true
    (List.length a.Attack.witness.links <= 2);
  (* the link witness replays to the reported diameter *)
  let compiled = Surviving.compile routing in
  let ev = Surviving.evaluator compiled in
  let ids =
    List.filter_map (fun (u, v) -> Surviving.edge_id compiled u v) a.Attack.witness.links
  in
  Alcotest.(check int) "every witness pair is a graph edge"
    (List.length a.Attack.witness.links) (List.length ids);
  Surviving.set_mixed_faults ev ~nodes:[] ~edges:ids;
  Alcotest.check distance "witness reproduces the reported worst" a.Attack.worst
    (Surviving.evaluator_diameter ev)

let test_evaluate_replays_corpus () =
  let c = Lazy.force grid_kernel in
  let corpus =
    [
      {
        Attack.Corpus.graph = "grid:15x15";
        strategy = "kernel";
        seed = 42;
        n = 225;
        f = 2;
        faults = [ 209; 223 ];
        edges = [];
        diameter = Metrics.Infinite;
        bound = None;
        found_by = "seeded";
      };
    ]
  in
  let v =
    Tolerance.evaluate ~samples:10 ~attack_budget:0 ~corpus
      ~rng:(Random.State.make [| 5 |])
      c ~f:2
  in
  Alcotest.check distance "corpus witness replayed" Metrics.Infinite
    v.Tolerance.worst;
  Alcotest.(check (list int)) "witness is the stored one" [ 209; 223 ]
    v.Tolerance.witness.nodes

(* ---------------- sampled search at scale ---------------- *)

(* A star's hub is the only interesting fault; the sampled hill climb
   must find it from the endpoint-neighborhood pools and shrink the
   witness to exactly the hub. *)
let test_search_sampled_flags_star () =
  let n = 10 in
  let g =
    Ftr_graph.Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))
  in
  let r = Routing.of_compact g Routing.Bidirectional (Compact.bfs_tree g ~root:0) in
  let o =
    Attack.search_sampled
      ~rng:(Random.State.make [| 3 |])
      ~pools:[ [ 0 ] ] r ~f:2 ~bound:4 ~pairs:24
  in
  Alcotest.(check bool) "flagged" true (o.Attack.s_flagged > 0);
  Alcotest.check distance "worst infinite" Metrics.Infinite o.Attack.s_worst;
  Alcotest.(check bool) "hub in witness" true (List.mem 0 o.Attack.s_witness);
  Alcotest.(check bool) "probes accounted" true (o.Attack.s_probes > 0)

(* Outcomes are a function of (routing, config, seed), not of the
   domain schedule: jobs=1 and jobs=4 must agree field for field. *)
let test_search_sampled_jobs_independent () =
  let c = Kernel.make (Families.torus 4 4) ~t:3 in
  let run jobs =
    Attack.search_sampled ~jobs
      ~rng:(Random.State.make [| 17 |])
      c.Construction.routing ~f:2 ~bound:2 ~pairs:24
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check int) "same flag count" a.Attack.s_flagged b.Attack.s_flagged;
  Alcotest.check distance "same worst" a.Attack.s_worst b.Attack.s_worst;
  Alcotest.(check (list int)) "same witness" a.Attack.s_witness b.Attack.s_witness;
  Alcotest.(check int) "same probes" a.Attack.s_probes b.Attack.s_probes

(* `ftr attack --replay` on a corpus entry naming a node the graph
   does not have: reported STALE and counted as a failure (exit 1),
   like a stale link, instead of an uncaught exception. *)
let ftr_exe =
  if Sys.file_exists "../bin/ftr.exe" then "../bin/ftr.exe" else "_build/default/bin/ftr.exe"

let test_replay_out_of_range_node_is_stale () =
  let dir = Filename.temp_dir "ftr-replay" "" in
  let entry = Filename.concat dir "torus-5x5__kernel.json" in
  let out = Filename.concat dir "out.txt" in
  Out_channel.with_open_bin entry (fun oc ->
      output_string oc
        {|[
  {"graph": "torus:5x5", "strategy": "kernel", "seed": 48879, "n": 25, "f": 3, "faults": [0, 18, 99], "diameter": 4, "bound": 6, "found_by": "attack(seed=48879)"}
]
|});
  let code =
    Sys.command
      (Printf.sprintf "%s attack --replay %s > %s 2>&1" ftr_exe (Filename.quote dir)
         (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  List.iter Sys.remove [ entry; out ];
  Sys.rmdir dir;
  Alcotest.(check int) "exit 1" 1 code;
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("STALE reported: " ^ text) true
    (has "STALE: 1 witness node(s) out of range [0,25)");
  Alcotest.(check bool) "counted as a failure" true
    (has "replayed 1 witness(es), 1 failure(s)")

(* `ftr attack --corpus` naming a regular file, or a directory that
   cannot be made under one: the save fails, and the CLI reports it on
   stderr and exits 1 instead of crashing. A failed mkdir is reported
   as itself, naming the directory. *)
let test_attack_corpus_save_failure_exits_1 () =
  let dir = Filename.temp_dir "ftr-corpus-cli" "" in
  let plain = Filename.concat dir "plain" in
  let out = Filename.concat dir "out.txt" in
  Out_channel.with_open_bin plain (fun oc -> output_string oc "x");
  let attack corpus =
    let code =
      Sys.command
        (Printf.sprintf "%s attack hypercube:3 -f 2 --corpus %s > %s 2>&1" ftr_exe
           (Filename.quote corpus) (Filename.quote out))
    in
    (code, read_bytes out)
  in
  let code, text = attack plain in
  Alcotest.(check int) ("exit 1: " ^ text) 1 code;
  Alcotest.(check bool) "reports the failed save" true (contains_sub text "NOT saved");
  let sub = Filename.concat plain "sub" in
  let code, text = attack sub in
  Alcotest.(check int) ("exit 1: " ^ text) 1 code;
  Alcotest.(check bool) "reports the failed mkdir" true
    (contains_sub text ("NOT saved (" ^ sub ^ ": "));
  List.iter Sys.remove [ plain; out ];
  Sys.rmdir dir

(* An output file that cannot be written (a missing directory, a full
   disk) is reported on stderr and exits 3, the infra code, instead of
   an uncaught exception (exit 125). *)
let test_cli_write_failure_exits_3 () =
  let dir = Filename.temp_dir "ftr-write-cli" "" in
  let err = Filename.concat dir "err.txt" in
  let run args =
    let code =
      Sys.command (Printf.sprintf "%s %s > /dev/null 2> %s" ftr_exe args (Filename.quote err))
    in
    (code, read_bytes err)
  in
  let missing = Filename.concat (Filename.concat dir "missing") "q.routing" in
  let code, text = run ("route hypercube:3 --save " ^ Filename.quote missing) in
  Alcotest.(check int) ("route --save: exit 3: " ^ text) 3 code;
  Alcotest.(check bool) "route --save names the file" true
    (contains_sub text ("cannot write " ^ missing ^ ": "));
  if Sys.file_exists "/dev/full" then begin
    let code, text = run "dot hypercube:3 -o /dev/full" in
    Alcotest.(check int) ("dot -o /dev/full: exit 3: " ^ text) 3 code;
    Alcotest.(check bool) "dot -o names the file" true
      (contains_sub text "cannot write /dev/full: ");
    let code, text = run "tolerate torus:5x5 -f 1 --metrics /dev/full" in
    Alcotest.(check int) ("tolerate --metrics /dev/full: exit 3: " ^ text) 3 code;
    Alcotest.(check bool) "--metrics names the file" true
      (contains_sub text "cannot write /dev/full: ")
  end;
  Sys.remove err;
  Sys.rmdir dir

(* Each subcommand's stdout and exit code on small graphs, pinned in
   golden/cli-<name>.txt: the output as printed, then one "exit N"
   line. compact's build-time and live-heap figures vary from run to
   run and are masked. The check cases load hypercube:4's auto table
   (TABLE) or hypercube:6's (TABLE6), saved by `ftr route` to a
   temporary file (its path is not printed). check-bound-hypercube-6
   is the bounded certify counterexample {56,61,62} at D=2.
   On a mismatch the actual text goes to cli-<name>.actual in the
   working directory. *)
let golden_dir = if Sys.file_exists "golden" then "golden" else "test/golden"

let cli_goldens =
  [
    ("info-torus-4x4", "info torus:4x4");
    ("info-cycle-12", "info cycle:12");
    ("route-hypercube-4", "route hypercube:4");
    ("route-cycle-12", "route cycle:12 -s bipolar-uni");
    ("route-petersen-fails", "route petersen -s tri-circular");
    ("tolerate-torus-4x4", "tolerate torus:4x4 -j 1");
    ("tolerate-cycle-12", "tolerate cycle:12 -s bipolar-uni -f 2 -j 2");
    ("check-exact", "check hypercube:4 TABLE -f 2 -j 2");
    ("check-scalar", "check hypercube:4 TABLE -f 2 --engine scalar -j 1");
    ("check-mixed", "check hypercube:4 TABLE -f 2 --universe mixed -j 2");
    ("check-bound", "check hypercube:4 TABLE -f 3 --bound 4 -j 2");
    ("check-violated", "check hypercube:4 TABLE -f 3 --bound 3 -j 1");
    ("check-bound-hypercube-6", "check hypercube:6 TABLE6 -f 3 --bound 2 -j 2");
    ("props-torus-5x5", "props torus:5x5 -s circular --kill 0,7");
    ("props-cycle-12", "props cycle:12 -s bipolar-uni --kill 0,5");
    ("simulate-torus-4x4", "simulate torus:4x4 --crashes 2 --messages 60");
    ("attack-hypercube-3", "attack hypercube:3 -f 2 --churn -j 1");
    ("compact-hypercube-8", "compact hypercube:8 --sets 4 --pairs 8 -j 1");
    ("dot-cycle-5", "dot cycle:5");
    ("lint-artifacts-corpus", "lint-artifacts CORPUS");
  ]

let save_table spec =
  lazy
    (let path = Filename.temp_file "ftr-golden" ".routing" in
     at_exit (fun () -> Sys.remove path);
     let code =
       Sys.command
         (Printf.sprintf "%s route %s --save %s > /dev/null" ftr_exe spec
            (Filename.quote path))
     in
     if code <> 0 then Alcotest.failf "route --save exited %d" code;
     path)

let saved_table = save_table "hypercube:4"
let saved_table6 = save_table "hypercube:6"

let test_cli_golden name args () =
  let args =
    String.split_on_char ' ' args
    |> List.map (function
         | "TABLE" -> Filename.quote (Lazy.force saved_table)
         | "TABLE6" -> Filename.quote (Lazy.force saved_table6)
         | "CORPUS" -> Filename.quote (if Sys.file_exists "../corpus" then "../corpus" else "corpus")
         | a -> a)
    |> String.concat " "
  in
  let out = Filename.temp_file "ftr-golden" ".out" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2>/dev/null" ftr_exe args (Filename.quote out))
  in
  let text = read_bytes out in
  Sys.remove out;
  let mask line =
    List.fold_left
      (fun line prefix -> if String.starts_with ~prefix line then prefix ^ "*" else line)
      line
      [ "build time          "; "live heap           " ]
  in
  let actual =
    String.concat "\n" (List.map mask (String.split_on_char '\n' text))
    ^ Printf.sprintf "exit %d\n" code
  in
  let golden = Filename.concat golden_dir ("cli-" ^ name ^ ".txt") in
  let expected = if Sys.file_exists golden then read_bytes golden else "" in
  if actual <> expected then begin
    Out_channel.with_open_bin ("cli-" ^ name ^ ".actual") (fun oc ->
        output_string oc actual);
    Alcotest.failf "ftr %s: output differs from %s (see cli-%s.actual)" args golden name
  end

(* The committed corpus files are legacy version-less entries, so a
   re-save stamps version 2 and an empty edge_faults on each. The
   re-saved bytes are pinned in golden/corpus-resaved.txt (one
   "== <file>" header per file), which fixes the spaced layout, and
   reading them back and writing them again changes no byte. *)
let corpus_dir = if Sys.file_exists "../corpus" then "../corpus" else "corpus"

let resaved_golden =
  let file = "golden/corpus-resaved.txt" in
  if Sys.file_exists file then file else Filename.concat "test" file

let test_committed_corpus_bytes () =
  let files = Attack.Corpus.load_dir corpus_dir in
  Alcotest.(check bool) "committed corpus files found" true (files <> []);
  let resave (path, parsed) =
    match parsed with
    | Error e -> Alcotest.failf "%s: %s" path e
    | Ok es ->
        let text = Attack.Corpus.to_json es in
        (match Attack.Corpus.of_json text with
        | Ok back ->
            Alcotest.(check string) (path ^ " re-save is a fixpoint") text
              (Attack.Corpus.to_json back)
        | Error e -> Alcotest.failf "%s re-saved: %s" path e);
        Printf.sprintf "== %s\n%s" (Filename.basename path) text
  in
  Alcotest.(check string) "re-saved corpus" (read_bytes resaved_golden)
    (String.concat "" (List.map resave files))

(* Byte mutations of valid corpus texts: the reader never raises, and
   whatever it accepts survives a write/read round trip unchanged. *)
let prop_corpus_mutations =
  let texts =
    [
      Attack.Corpus.to_json (sample_entries ());
      Attack.Corpus.to_json [ link_entry () ];
      {|[{"graph": "hypercube:3", "strategy": "kernel", "seed": 7, "n": 8, "f": 2,
          "faults": [3, 6], "diameter": 4, "bound": 4, "found_by": "attack(seed=7)"}]|};
    ]
  in
  let mutated =
    QCheck.Gen.(
      let* text = oneofl texts in
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
      go edits text)
  in
  QCheck.Test.make ~name:"of_json never raises; accepted texts round-trip" ~count:5_000
    QCheck.(make ~print:(Printf.sprintf "%S") mutated)
    (fun text ->
      match Attack.Corpus.of_json text with
      | Error _ -> true
      | Ok es -> Attack.Corpus.of_json (Attack.Corpus.to_json es) = Ok es
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "attack"
    [
      ( "search",
        [
          Alcotest.test_case "finds exhaustive worst (>=90% of seeds)" `Quick
            test_finds_exhaustive_worst;
          Alcotest.test_case "beats uniform random beyond exhaustive reach" `Quick
            test_beats_random_on_large;
          Alcotest.test_case "deterministic, reproducible witness" `Quick
            test_deterministic_and_reproducible;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "keeps diameter, locally minimal" `Quick
            test_shrink_keeps_diameter_and_is_minimal;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "json roundtrip" `Quick test_corpus_json_roundtrip;
          Alcotest.test_case "add dedupes" `Quick test_corpus_add_dedupes;
          Alcotest.test_case "replayable filter" `Quick test_corpus_replayable;
          Alcotest.test_case "save/load files" `Quick test_corpus_files;
          Alcotest.test_case "rejects garbage" `Quick test_corpus_rejects_garbage;
          Alcotest.test_case "v2 stamp and link faults" `Quick
            test_corpus_v2_stamp_and_edges;
          Alcotest.test_case "accepts legacy version-less entries" `Quick
            test_corpus_accepts_legacy;
          Alcotest.test_case "rejects unsupported versions" `Quick
            test_corpus_rejects_bad_version;
          Alcotest.test_case "link witnesses: dedup and replay filter" `Quick
            test_corpus_dedup_and_replayable_with_edges;
          Alcotest.test_case "mixed search reproducible, witness replays" `Quick
            test_links_search_reproducible;
          Alcotest.test_case "evaluate replays stored witnesses" `Quick
            test_evaluate_replays_corpus;
          Alcotest.test_case "replay reports an out-of-range node as STALE" `Quick
            test_replay_out_of_range_node_is_stale;
          Alcotest.test_case "failed save returns Error, keeps the file" `Quick
            test_corpus_save_failure;
          Alcotest.test_case "attack --corpus exits 1 when the save fails" `Quick
            test_attack_corpus_save_failure_exits_1;
          Alcotest.test_case "committed corpus files re-save byte for byte" `Quick
            test_committed_corpus_bytes;
          QCheck_alcotest.to_alcotest prop_corpus_mutations;
        ] );
      ( "cli",
        [
          Alcotest.test_case "route --save, dot -o, --metrics exit 3 when the write fails"
            `Quick test_cli_write_failure_exits_3;
        ] );
      ( "goldens",
        List.map
          (fun (name, args) ->
            Alcotest.test_case name `Quick (test_cli_golden name args))
          cli_goldens );
      ( "sampled",
        [
          Alcotest.test_case "flags a star hub" `Quick
            test_search_sampled_flags_star;
          Alcotest.test_case "jobs-independent" `Quick
            test_search_sampled_jobs_independent;
        ] );
    ]
