open Ftr_graph
module Obs = Ftr_obs.Obs

(* [sets_checked] totals are jobs-independent by the same argument as
   the verdicts (every [Par.chunk] block is swept identically no
   matter which domain runs it), so they are safe as Obs counters;
   [early_exit_blocks] counts the blocks a certificate stopped
   early. *)
let c_sets_checked = Obs.counter "tolerance.sets_checked"
let c_certify_runs = Obs.counter "tolerance.certify.runs"
let c_certify_sets = Obs.counter "tolerance.certify.sets_checked"
let c_certify_early = Obs.counter "tolerance.certify.early_exit_blocks"
let c_corpus_replayed = Obs.counter "tolerance.corpus.replayed"

type verdict = {
  worst : Metrics.distance;
  witness : Surviving.fault_set;
  sets_checked : int;
  definitive : bool;
}

(* Which evaluation engine sweeps the candidate sets. [Sliced] packs
   up to [Surviving.lane_capacity] sets into the lanes of one
   word-packed BFS and is the default; it applies to every compiled
   table, whatever its vertex count, because a lane is a fault set,
   not a vertex. Verdicts are identical either way — [Scalar], one
   evaluator BFS per set, survives as the oracle the property tests
   check against. *)
type engine = Scalar | Sliced

(* Lazy enumeration of subsets of [items] of size exactly [k]. *)
let rec subsets_exact items k : int list Seq.t =
  if k = 0 then Seq.return []
  else
    match items with
    | [] -> Seq.empty
    | x :: rest ->
        Seq.append
          (Seq.map (fun s -> x :: s) (fun () -> subsets_exact rest (k - 1) ()))
          (fun () -> subsets_exact rest k ())

let subsets_up_to items k =
  let sizes = List.init (k + 1) Fun.id in
  List.fold_left
    (fun acc size -> Seq.append acc (subsets_exact items size))
    Seq.empty sizes

(* Saturating Pascal-triangle computation of sum_{i<=k} C(n, i). *)
let count_subsets_up_to ~n ~k =
  let c = Array.make (k + 1) 0 in
  c.(0) <- 1;
  for row = 1 to n do
    for j = min k row downto 1 do
      let sum = c.(j) + c.(j - 1) in
      c.(j) <- (if sum < 0 then max_int else sum)
    done
  done;
  Array.fold_left
    (fun acc x -> if acc + x < 0 then max_int else acc + x)
    0 c

(* ------------------------------------------------------------------ *)
(* Revolving-door subset enumeration.                                 *)
(* ------------------------------------------------------------------ *)

(* Knuth, TAOCP 7.2.1.3, Algorithm R: visit the k-subsets of [0, n)
   (1 <= k <= n) in a Gray order where consecutive subsets differ by
   exactly one element swapped. 1-based [c.(1..k)] is the current
   subset in increasing order and [c.(k+1) = n] the sentinel R5
   compares against; [visit c ~removed ~added] runs once per subset,
   after [c] is updated, with [removed = added = -1] for the first. *)
let revolving_door ~n ~k visit =
  let c = Array.make (k + 2) 0 in
  for j = 1 to k do
    c.(j) <- j - 1
  done;
  c.(k + 1) <- n;
  visit c ~removed:(-1) ~added:(-1);
  let running = ref true in
  let rec r4 j =
    if j > k then running := false
    else if c.(j) >= j then begin
      let removed = c.(j) in
      c.(j) <- c.(j - 1);
      c.(j - 1) <- j - 2;
      visit c ~removed ~added:(j - 2)
    end
    else r5 (j + 1)
  and r5 j =
    if j > k then running := false
    else if c.(j) + 1 < c.(j + 1) then begin
      let removed = c.(j - 1) in
      c.(j - 1) <- c.(j);
      c.(j) <- c.(j) + 1;
      visit c ~removed ~added:c.(j)
    end
    else r4 (j + 1)
  in
  while !running do
    if k land 1 = 1 then begin
      if c.(1) + 1 < c.(2) then begin
        let removed = c.(1) in
        c.(1) <- removed + 1;
        visit c ~removed ~added:(removed + 1)
      end
      else r4 2
    end
    else if c.(1) > 0 then begin
      let removed = c.(1) in
      c.(1) <- removed - 1;
      visit c ~removed ~added:(removed - 1)
    end
    else r5 2
  done

(* The revolving door as a first subset plus one swap per step, the
   shape an incremental evaluator consumes. Only the tests and the
   benchmark harness call it; the canonical stream below drives
   [revolving_door] directly. *)
let iter_combinations_gray ~n ~k ~first ~swap =
  if k < 0 then invalid_arg "Tolerance.iter_combinations_gray: negative size";
  if k > n then invalid_arg "Tolerance.iter_combinations_gray: size exceeds universe";
  if k = 0 then first [||]
  else
    revolving_door ~n ~k (fun c ~removed ~added ->
        if removed < 0 then first (Array.sub c 1 k) else swap ~removed ~added)

(* ------------------------------------------------------------------ *)
(* Verdict assembly.                                                  *)
(* ------------------------------------------------------------------ *)

(* Witness policy everywhere: the FIRST set (in the canonical
   enumeration order) achieving a strictly larger diameter becomes the
   witness. Chunks are merged in enumeration order with "earlier
   witness wins ties", which reproduces the sequential policy no
   matter how chunks were scheduled — verdicts are [jobs]-independent. *)
let merge a b =
  {
    worst = Metrics.max_distance a.worst b.worst;
    witness =
      (if Metrics.distance_le b.worst a.worst then a.witness else b.witness);
    sets_checked = a.sets_checked + b.sets_checked;
    definitive = a.definitive && b.definitive;
  }

let empty_verdict =
  {
    worst = Metrics.Finite 0;
    witness = Surviving.no_faults;
    sets_checked = 0;
    definitive = false;
  }

let merge_ordered = function [] -> empty_verdict | v :: rest -> List.fold_left merge v rest

let default_jobs () = Par.recommended_jobs ()

(* ------------------------------------------------------------------ *)
(* The canonical enumeration.                                         *)
(* ------------------------------------------------------------------ *)

(* Saturating C(n, k) for 0 <= k <= n: the running product after
   step [i] is C(n - k + i, i), so every division is exact. *)
let binomial n k =
  let k = min k (n - k) in
  let acc = ref 1 in
  for i = 1 to k do
    let m = n - k + i in
    acc := if !acc > max_int / m then max_int else !acc * m / i
  done;
  !acc

(* Emit, in canonical order and as sorted lists, the sets of size
   [<= f] over [0, n) whose canonical index lies in [lo, hi). The
   canonical order is the empty set, then blocks (size, top) with the
   size falling from [min f n] to 1 and, inside one size, the maximum
   element [top] falling from [n - 1]; block (k, top) holds the
   C(top, k-1) sets {top} ∪ S, S a (k-1)-subset of [0, top), in
   revolving-door order. The order depends only on (n, f). Whole
   blocks before [lo] are skipped by their size; inside the block
   holding [lo] the revolving door walks silently up to it, so a
   caller pays at most one partial block to seek. *)
let iter_canonical ~n ~f ~lo ~hi emit =
  let exception Done in
  let idx = ref 0 in
  (* Advance past one set; true iff it lies in [lo, hi). *)
  let next () =
    if !idx >= hi then raise Done;
    incr idx;
    !idx > lo
  in
  try
    if next () then emit [];
    for size = min f n downto 1 do
      for top = n - 1 downto size - 1 do
        let block = binomial top (size - 1) in
        if !idx >= hi then raise Done
        else if block <= lo - !idx then idx := !idx + block
        else if size = 1 then (if next () then emit [ top ])
        else begin
          let k = size - 1 in
          revolving_door ~n:top ~k (fun c ~removed:_ ~added:_ ->
              if next () then begin
                let s = ref [ top ] in
                for j = k downto 1 do
                  s := c.(j) :: !s
                done;
                emit !s
              end)
        end
      done
    done
  with Done -> ()

(* ------------------------------------------------------------------ *)
(* The shared sweep kernel.                                           *)
(* ------------------------------------------------------------------ *)

(* Every checker below walks fault sets, as sorted id lists of one
   [Surviving.universe], through [feed ~lo ~hi emit], which emits the
   sets whose index lies in [lo, hi) in index order: the canonical
   stream above, or an explicit set array. *)

let iter_array sets ~lo ~hi emit =
  for i = lo to hi - 1 do
    emit sets.(i)
  done

(* One [Par.chunk] block's verdict: [run] passes each diameter with
   its set to [note], and the first set to reach a strictly larger
   diameter is the block's witness. *)
let block_verdict ~decode run =
  let worst = ref (Metrics.Finite (-1)) in
  let witness = ref Surviving.no_faults in
  let checked = ref 0 in
  run (fun d ids ->
      incr checked;
      if not (Metrics.distance_le d !worst) then begin
        worst := d;
        witness := decode ids
      end);
  { worst = !worst; witness = !witness; sets_checked = !checked; definitive = false }

(* Slice [s] holds indexes [s * lane_capacity, (s + 1) * lane_capacity),
   so slice boundaries — and every engine counter they feed — are
   fixed by the index order, never by [jobs]. *)
let nslices count = (count + Surviving.lane_capacity - 1) / Surviving.lane_capacity

(* Stream the sets of slices [lo, hi) into [sl], one lane each, and
   call [swept held] whenever the slice fills and once more at the end
   of the range, with lane [k] holding set [held.(k)]; [swept] returns
   false to stop the range there. Only the current slice's sets are
   held. *)
let stream_slices sl ~universe ~count ~feed ~lo ~hi swept =
  let exception Stop in
  let lanes = Surviving.lane_capacity in
  let held = ref [||] in
  let flush () =
    if not (swept !held) then raise Stop;
    Surviving.slice_reset sl
  in
  Surviving.slice_reset sl;
  try
    feed ~lo:(lo * lanes) ~hi:(min count (hi * lanes)) (fun ids ->
        let k = Surviving.slice_add_ids sl universe ids in
        if Array.length !held = 0 then held := Array.make lanes ids;
        !held.(k) <- ids;
        if k = lanes - 1 then flush ());
    if Surviving.slice_count sl > 0 then flush ()
  with Stop -> ()

(* The verdict over [count] sets. [Sliced] sweeps whole slices with
   [Par.chunk] distributing them; [Scalar] is the per-set oracle, one
   [set_fault_ids] and one BFS per set, chunked by set. Both merge
   blocks in index order, so the verdict is independent of [jobs] and
   of the engine. *)
let sweep ~engine ~jobs ~compiled ~universe ~count ~feed =
  let decode = Surviving.fault_set_of_ids compiled universe in
  let verdicts =
    match engine with
    | Sliced ->
        Par.chunk ~jobs ~count:(nslices count)
          ~init:(fun () -> Surviving.sliced compiled)
          ~task:(fun sl ~lo ~hi ->
            block_verdict ~decode (fun note ->
                stream_slices sl ~universe ~count ~feed ~lo ~hi (fun held ->
                    Array.iteri (fun k d -> note d held.(k)) (Surviving.slice_diameters sl);
                    true)))
    | Scalar ->
        Par.chunk ~jobs ~count
          ~init:(fun () -> Surviving.evaluator compiled)
          ~task:(fun ev ~lo ~hi ->
            block_verdict ~decode (fun note ->
                feed ~lo ~hi (fun ids ->
                    Surviving.set_fault_ids ev universe ids;
                    note (Surviving.evaluator_diameter ev) ids)))
  in
  merge_ordered (Array.to_list verdicts)

(* ------------------------------------------------------------------ *)
(* Explicit set lists (random sampling, pools, corpus replay).        *)
(* ------------------------------------------------------------------ *)

(* Fault sets go in as [Mixed] ids, which name every node and link
   fault; encoding them up front makes a bad vertex or a non-edge fail
   loudly, and identically for every [jobs] value. [compiled] is forced
   only for a nonempty list: compiling bumps the engine counters. *)
let check_array ~jobs ~engine compiled sets =
  Obs.with_span "tolerance.check_sets" @@ fun () ->
  if Array.length sets = 0 then empty_verdict
  else begin
    let compiled = Lazy.force compiled in
    let ids = Array.map (Surviving.ids_of_fault_set compiled Surviving.Mixed) sets in
    let v =
      sweep ~engine ~jobs ~compiled ~universe:Surviving.Mixed ~count:(Array.length ids)
        ~feed:(iter_array ids)
    in
    Obs.add c_sets_checked v.sets_checked;
    v
  end

let check_sets ?jobs ?(engine = Sliced) routing sets =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  check_array ~jobs ~engine (lazy (Surviving.compile_cached routing)) (Array.of_seq sets)

(* ------------------------------------------------------------------ *)
(* Exhaustive enumeration.                                            *)
(* ------------------------------------------------------------------ *)

let exhaustive ?jobs ?(engine = Sliced) ?(universe = Surviving.Nodes) routing ~f =
  Obs.with_span "tolerance.exhaustive" @@ fun () ->
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let compiled = Surviving.compile_cached routing in
  let size = Surviving.universe_size compiled universe in
  let v =
    sweep ~engine ~jobs ~compiled ~universe
      ~count:(count_subsets_up_to ~n:size ~k:f)
      ~feed:(iter_canonical ~n:size ~f)
  in
  Obs.add c_sets_checked v.sets_checked;
  { v with definitive = true }

(* ------------------------------------------------------------------ *)
(* Bound certification (early exit).                                  *)
(* ------------------------------------------------------------------ *)

type certificate = {
  holds : bool;
  counterexample : Surviving.fault_set option;
  cert_sets_checked : int;
}

(* The exhaustive stream again, each slice asked [slice_exceeds ~bound]
   instead of its exact diameters; the lowest set bit of a nonzero mask
   is that slice's first violator. Each [Par.chunk] block stops after
   its first violating slice. Block bounds depend on [count] alone, so
   the sets swept and the early-stopped blocks — and the counters they
   feed — are the same for every [jobs], and the first violator of the
   first violating block is the canonical-first counterexample. *)
let certify ?jobs ?(universe = Surviving.Nodes) routing ~f ~bound =
  Obs.with_span "tolerance.certify" @@ fun () ->
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let compiled = Surviving.compile_cached routing in
  let size = Surviving.universe_size compiled universe in
  Obs.incr c_certify_runs;
  let count = count_subsets_up_to ~n:size ~k:f in
  let results =
    Par.chunk ~jobs ~count:(nslices count)
      ~init:(fun () -> Surviving.sliced compiled)
      ~task:(fun sl ~lo ~hi ->
        let checked = ref 0 in
        let cex = ref None in
        stream_slices sl ~universe ~count ~feed:(iter_canonical ~n:size ~f) ~lo ~hi
          (fun held ->
            checked := !checked + Surviving.slice_count sl;
            let violators = Surviving.slice_exceeds sl ~bound in
            if violators <> 0 then cex := Some held.(Bitset.lowest_bit_index violators);
            violators = 0);
        (!cex, !checked))
  in
  let checked = Array.fold_left (fun acc (_, c) -> acc + c) 0 results in
  let stopped =
    Array.fold_left (fun acc (cex, _) -> if cex = None then acc else acc + 1) 0 results
  in
  let counterexample =
    Array.fold_left (fun acc (cex, _) -> if acc = None then cex else acc) None results
  in
  Obs.add c_certify_sets checked;
  Obs.add c_certify_early stopped;
  {
    holds = counterexample = None;
    counterexample =
      Option.map (Surviving.fault_set_of_ids compiled universe) counterexample;
    cert_sets_checked = checked;
  }

(* ------------------------------------------------------------------ *)
(* Sampling and pools.                                                *)
(* ------------------------------------------------------------------ *)

let random_subset rng n f =
  (* Floyd's algorithm for a uniform f-subset of [0, n). *)
  let chosen = Hashtbl.create (2 * f) in
  for j = n - f to n - 1 do
    let r = Random.State.int rng (j + 1) in
    let pick = if Hashtbl.mem chosen r then j else r in
    Hashtbl.replace chosen pick ()
  done;
  Hashtbl.fold (fun v () acc -> v :: acc) chosen [] |> List.sort Int.compare

let random ?jobs ?(engine = Sliced) ?(universe = Surviving.Nodes) routing ~f ~rng ~samples =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let compiled = Surviving.compile_cached routing in
  let size = Surviving.universe_size compiled universe in
  let f = min f size in
  (* Draw every sample from the caller's RNG before evaluating, so the
     draws — and hence the verdict — cannot depend on [jobs]. *)
  let acc = ref [] in
  for _ = 1 to samples do
    acc := Surviving.fault_set_of_ids compiled universe (random_subset rng size f) :: !acc
  done;
  check_array ~jobs ~engine (Lazy.from_val compiled)
    (Array.of_list (Surviving.no_faults :: List.rev !acc))

let adversarial ?(per_pool_cap = 2000) ?jobs ?engine routing ~f ~pools =
  (* Pools overlap (the concentrator reappears in its members'
     neighborhoods), so identical subsets would be re-evaluated and
     inflate [sets_checked]; dedupe across pools, after the per-pool
     cap so single-pool counts are unchanged. *)
  let sets =
    List.fold_left
      (fun acc pool ->
        let pool = List.sort_uniq compare pool in
        Seq.append acc (Seq.take per_pool_cap (subsets_up_to pool f)))
      Seq.empty pools
  in
  let seen = Hashtbl.create 256 in
  let deduped =
    Seq.filter
      (fun s ->
        let key = List.sort Int.compare s in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      sets
  in
  check_sets ?jobs ?engine routing
    (Seq.map (fun nodes -> { Surviving.nodes; links = [] }) deduped)

(* ------------------------------------------------------------------ *)
(* Sampled probing at scale.                                          *)
(* ------------------------------------------------------------------ *)

type sampled_verdict = {
  sv_holds : bool;
  sv_worst : Metrics.distance;
  sv_witness_faults : int list;
  sv_witness_pair : (int * int) option;
  sv_sets_checked : int;
  sv_pairs_checked : int;
}

let c_sampled_probes = Obs.counter "tolerance.sampled.pairs_probed"
let c_sampled_sets = Obs.counter "tolerance.sampled.sets_checked"

let sampled ?jobs ?(pools = []) ?probe_budget routing ~f ~bound ~rng ~sets ~pairs
    =
  Obs.with_span "tolerance.sampled" @@ fun () ->
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let g = Routing.graph routing in
  let n = Graph.n g in
  let budget = match probe_budget with Some b -> b | None -> (2 * n) + 1 in
  let trivial =
    {
      sv_holds = true;
      sv_worst = Metrics.Finite 0;
      sv_witness_faults = [];
      sv_witness_pair = None;
      sv_sets_checked = 0;
      sv_pairs_checked = 0;
    }
  in
  if n < 2 then trivial
  else begin
    let f = min f (n - 2) in
    (* Every draw happens before any evaluation, so the candidate list
       — and hence the verdict — cannot depend on [jobs]. *)
    let pair_arr =
      Array.init (max 0 pairs) (fun _ ->
          let src = Random.State.int rng n in
          let d = Random.State.int rng (n - 1) in
          (src, if d >= src then d + 1 else d))
    in
    let prefix_of l = List.filteri (fun i _ -> i < f) l in
    (* Adversarial sets: the [f] lowest neighbors of every sampled
       endpoint (isolating it outright when its degree is within the
       fault budget — the paper's cut adversary), then the [f] lowest
       members of each caller pool. *)
    let endpoint_sets =
      Array.to_list pair_arr
      |> List.concat_map (fun (s, d) -> [ s; d ])
      |> List.sort_uniq Int.compare
      |> List.map (fun v -> prefix_of (Array.to_list (Graph.neighbors g v)))
    in
    let pool_sets =
      List.map (fun p -> prefix_of (List.sort_uniq Int.compare p)) pools
    in
    let random_sets = ref [] in
    for _ = 1 to max 0 sets do
      random_sets := List.sort Int.compare (random_subset rng n f) :: !random_sets
    done;
    (* Canonical order: fault-free first, then adversarial, then the
       random draws; duplicates keep their first position. *)
    let seen = Hashtbl.create 64 in
    let set_arr =
      ([] :: endpoint_sets) @ pool_sets @ List.rev !random_sets
      |> List.map (List.sort_uniq Int.compare)
      |> List.filter (fun s ->
             (not (Hashtbl.mem seen s))
             && begin
                  Hashtbl.add seen s ();
                  true
                end)
      |> Array.of_list
    in
    let nsets = Array.length set_arr in
    let npairs = Array.length pair_arr in
    let count = nsets * npairs in
    if count = 0 then trivial
    else begin
      let chunks =
        Par.chunk ~jobs ~count
          ~init:(fun () -> Bitset.create n)
          ~task:(fun faults ~lo ~hi ->
            (* The bitset is per domain, not per task: drop whatever
               set the domain's previous task left loaded. *)
            Bitset.clear faults;
            let worst = ref (Metrics.Finite (-1)) in
            let wfaults = ref [] in
            let wpair = ref None in
            let probed = ref 0 in
            let cur = ref (-1) in
            for idx = lo to hi - 1 do
              let si = idx / npairs and pi = idx mod npairs in
              if si <> !cur then begin
                if !cur >= 0 then List.iter (Bitset.remove faults) set_arr.(!cur);
                List.iter (Bitset.add faults) set_arr.(si);
                cur := si
              end;
              let src, dst = pair_arr.(pi) in
              (* Tolerance quantifies over non-faulty pairs only. *)
              if not (Bitset.mem faults src || Bitset.mem faults dst) then begin
                incr probed;
                let d =
                  Surviving.probe_distance routing ~faults ~src ~dst ~bound
                    ~budget
                in
                if not (Metrics.distance_le d !worst) then begin
                  worst := d;
                  wfaults := set_arr.(si);
                  wpair := Some (src, dst)
                end
              end
            done;
            (!worst, !wfaults, !wpair, !probed))
      in
      (* Ordered merge, earlier witness wins ties: [jobs]-independent. *)
      let worst = ref (Metrics.Finite (-1)) in
      let wfaults = ref [] in
      let wpair = ref None in
      let probed = ref 0 in
      Array.iter
        (fun (w, wf, wp, p) ->
          probed := !probed + p;
          if not (Metrics.distance_le w !worst) then begin
            worst := w;
            wfaults := wf;
            wpair := wp
          end)
        chunks;
      Obs.add c_sampled_probes !probed;
      Obs.add c_sampled_sets nsets;
      {
        sv_holds = Metrics.distance_le !worst (Metrics.Finite bound);
        sv_worst = (if !worst = Metrics.Finite (-1) then Metrics.Finite 0 else !worst);
        sv_witness_faults = !wfaults;
        sv_witness_pair = !wpair;
        sv_sets_checked = nsets;
        sv_pairs_checked = !probed;
      }
    end
  end

(* ------------------------------------------------------------------ *)
(* The paper's edge-fault reduction, checked set by set.              *)
(* ------------------------------------------------------------------ *)

type reduction_report = {
  red_sets : int;
  red_violations : int;
  red_first_violation : (int * int) list option;
  red_worst_edge : Metrics.distance;
  red_worst_proj : Metrics.distance;
}

let reduction_diameters compiled ev ~edges =
  let n = Surviving.compiled_n compiled in
  Surviving.set_mixed_faults ev ~nodes:[] ~edges;
  (* The paper's reduction: replace each downed link by its smaller
     endpoint, as a node fault. The claim is about distances between
     the projection's surviving nodes, so the link-fault diameter is
     restricted to them (the projected endpoints stay alive and may
     relay). *)
  let proj =
    List.sort_uniq compare (List.map (fun e -> fst (Surviving.edge_pair compiled e)) edges)
  in
  let survivors = Bitset.create n in
  for v = 0 to n - 1 do Bitset.add survivors v done;
  List.iter (Bitset.remove survivors) proj;
  let d_edge = Surviving.evaluator_diameter_over ev ~targets:survivors in
  Surviving.set_faults ev proj;
  (d_edge, Surviving.evaluator_diameter ev)

(* Per set, on one evaluator per domain. [Par.chunk] cuts the canonical
   edge stream into blocks fixed by its length, merged in order. *)
let reduction ?jobs routing ~f =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let compiled = Surviving.compile_cached routing in
  let m = Surviving.edge_count compiled in
  let results =
    Par.chunk ~jobs ~count:(count_subsets_up_to ~n:m ~k:f)
      ~init:(fun () -> Surviving.evaluator compiled)
      ~task:(fun ev ~lo ~hi ->
        let violations = ref 0 in
        let first = ref None in
        let worst_edge = ref (Metrics.Finite 0) in
        let worst_proj = ref (Metrics.Finite 0) in
        iter_canonical ~n:m ~f ~lo ~hi (fun edges ->
            let d_edge, d_proj = reduction_diameters compiled ev ~edges in
            worst_edge := Metrics.max_distance !worst_edge d_edge;
            worst_proj := Metrics.max_distance !worst_proj d_proj;
            if not (Metrics.distance_le d_edge d_proj) then begin
              incr violations;
              if !first = None then
                first := Some (List.map (Surviving.edge_pair compiled) edges)
            end);
        {
          red_sets = hi - lo;
          red_violations = !violations;
          red_first_violation = !first;
          red_worst_edge = !worst_edge;
          red_worst_proj = !worst_proj;
        })
  in
  Array.fold_left
    (fun acc r ->
      {
        red_sets = acc.red_sets + r.red_sets;
        red_violations = acc.red_violations + r.red_violations;
        red_first_violation =
          (match acc.red_first_violation with
          | Some _ -> acc.red_first_violation
          | None -> r.red_first_violation);
        red_worst_edge = Metrics.max_distance acc.red_worst_edge r.red_worst_edge;
        red_worst_proj = Metrics.max_distance acc.red_worst_proj r.red_worst_proj;
      })
    {
      red_sets = 0;
      red_violations = 0;
      red_first_violation = None;
      red_worst_edge = Metrics.Finite 0;
      red_worst_proj = Metrics.Finite 0;
    }
    results

let evaluate ?(exhaustive_budget = 20_000) ?(samples = 300)
    ?(attack_budget = Attack.default_config.Attack.budget) ?(corpus = []) ?jobs ?engine
    ~rng (c : Construction.t) ~f =
  let routing = c.Construction.routing in
  let n = Graph.n (Routing.graph routing) in
  if count_subsets_up_to ~n ~k:f <= exhaustive_budget then
    exhaustive ?jobs ?engine routing ~f
  else begin
    (* Stored witnesses replay first: a regression against the corpus
       should surface even if every fresh search misses it. *)
    let replay =
      match Attack.Corpus.replayable corpus ~n ~f with
      | [] -> None
      | sets ->
          Obs.with_span "tolerance.evaluate.replay" @@ fun () ->
          Obs.add c_corpus_replayed (List.length sets);
          Some
            (check_sets ?jobs ?engine routing
               (List.to_seq (List.map (fun nodes -> { Surviving.nodes; links = [] }) sets)))
    in
    let adv =
      Obs.with_span "tolerance.evaluate.adversarial" @@ fun () ->
      adversarial ?jobs ?engine routing ~f ~pools:c.Construction.pools
    in
    let rnd =
      Obs.with_span "tolerance.evaluate.random" @@ fun () ->
      random ?jobs ?engine routing ~f ~rng ~samples
    in
    let atk =
      if attack_budget <= 0 then None
      else
        Obs.with_span "tolerance.evaluate.attack" @@ fun () ->
        let config = { Attack.default_config with Attack.budget = attack_budget } in
        let o = Attack.search ~config ?jobs ~rng ~pools:c.Construction.pools routing ~f in
        Some
          {
            worst = o.Attack.worst;
            witness = o.Attack.witness;
            sets_checked = o.Attack.evals;
            definitive = false;
          }
    in
    let acc = merge { adv with definitive = false } rnd in
    let acc = match replay with None -> acc | Some v -> merge v acc in
    match atk with None -> acc | Some v -> merge acc v
  end

let respects v ~bound = Metrics.distance_le v.worst (Metrics.Finite bound)
