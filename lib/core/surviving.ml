open Ftr_graph
module Obs = Ftr_obs.Obs

(* Counters obey the Obs determinism rule: each one counts work that
   is a function of the requested fault sets only, never of how Par
   scheduled them (in particular, [revert]s and evaluator creations
   are NOT counted — both depend on per-domain leftover state). *)
let c_compile_calls = Obs.counter "engine.compile.calls"
let c_compile_routes = Obs.counter "engine.compile.routes"
let c_compile_edges = Obs.counter "engine.compile.edges"
let c_apply_node = Obs.counter "engine.apply_node.calls"
let c_apply_node_routes = Obs.counter "engine.apply_node.routes_touched"
let c_apply_edge = Obs.counter "engine.apply_edge.calls"
let c_apply_edge_routes = Obs.counter "engine.apply_edge.routes_touched"
let c_diameter_evals = Obs.counter "engine.diameter.evals"
let c_bfs_word_ops = Obs.counter "engine.bfs.word_ops"
let c_exceeds_calls = Obs.counter "engine.exceeds.calls"
let c_exceeds_early = Obs.counter "engine.exceeds.early_exits"
let c_apsp_levels_push = Obs.counter "engine.apsp.levels_push"
let c_apsp_levels_pull = Obs.counter "engine.apsp.levels_pull"

(* Bit-sliced engine counters. Slices are cut from the canonical
   enumeration order by the callers (Tolerance), never from the Par
   chunking, and lane retirement is a function of the slice contents
   and the fixed source order alone — all three are schedule-
   independent, so they are counters, not gauges. *)
let c_slices = Obs.counter "engine.sliced.slices"
let c_slice_lanes = Obs.counter "engine.sliced.lanes"
let c_lanes_retired = Obs.counter "engine.sliced.lanes_retired"
let c_levels_push = Obs.counter "engine.sliced.levels_push"
let c_levels_pull = Obs.counter "engine.sliced.levels_pull"
let c_pull_aborts = Obs.counter "engine.sliced.pull_aborts"
let c_vertex_visits = Obs.counter "engine.sliced.vertex_visits"
let c_below_walks = Obs.counter "engine.sliced.below_source_walks"

let graph ?(links = []) routing ~faults =
  let g = Routing.graph routing in
  let down = Hashtbl.create 16 in
  List.iter (fun (u, v) -> Hashtbl.replace down (min u v, max u v) ()) links;
  let rec crosses p i =
    i + 1 < Path.vertex_count p
    && (let u = Path.nth p i and v = Path.nth p (i + 1) in
        Hashtbl.mem down (min u v, max u v) || crosses p (i + 1))
  in
  let b = Digraph.Builder.create (Graph.n g) in
  Routing.iter
    (fun src dst p ->
      if not (Path.hits p faults || (links <> [] && crosses p 0)) then
        Digraph.Builder.add_arc b src dst)
    routing;
  Digraph.Builder.to_digraph b

let alive faults v = not (Bitset.mem faults v)

let distance routing ~faults x y =
  if Bitset.mem faults x || Bitset.mem faults y then
    invalid_arg "Surviving.distance: faulty endpoint";
  let dg = graph routing ~faults in
  let dist = Digraph.bfs dg ~allowed:(alive faults) x in
  if dist.(y) < 0 then Metrics.Infinite else Metrics.Finite dist.(y)

let diameter_of_digraph dg ~faults =
  let n = Digraph.n dg in
  let worst = ref (Metrics.Finite 0) in
  for x = 0 to n - 1 do
    if alive faults x then begin
      let dist = Digraph.bfs dg ~allowed:(alive faults) x in
      for y = 0 to n - 1 do
        if y <> x && alive faults y then
          let d = if dist.(y) < 0 then Metrics.Infinite else Metrics.Finite dist.(y) in
          worst := Metrics.max_distance !worst d
      done
    end
  done;
  !worst

let diameter ?links routing ~faults =
  diameter_of_digraph (graph ?links routing ~faults) ~faults

(* ------------------------------------------------------------------ *)
(* Batch evaluation engine.                                           *)
(*                                                                    *)
(* The miserly model stores at most one route per ordered pair, so    *)
(* the surviving graph is fully described by one liveness bit per     *)
(* route. The evaluator keeps the live adjacency as an n x w bit      *)
(* matrix (w = ceil(n / 63) words per row) and, beside it, its        *)
(* transpose, and answers all-pairs questions with one                *)
(* direction-optimizing BFS per source: a push level ORs the rows of  *)
(* the frontier (|front| * w words), a pull level tests each          *)
(* unvisited vertex's column words against the frontier and stops at  *)
(* its first hit (at most |unvisited| * w words), and a level pulls   *)
(* iff fewer vertices are unvisited than are on the frontier. A       *)
(* source stops as soon as every target is reached.                   *)
(*                                                                    *)
(* On top of the matrices sits the incremental part: an inverted      *)
(* index (vertex -> routes through it) plus a per-route fault counter *)
(* make apply/revert of a single fault cost only the routes through   *)
(* that vertex (two bit flips each), so the attack engine's one-node  *)
(* swaps and the serve daemon's fault deltas never rescan the route   *)
(* table.                                                             *)
(* ------------------------------------------------------------------ *)

let matrix_bits = Sys.int_size

(* The hot bit-matrices live off-heap in a Bigarray of unboxed native
   ints (c_layout). The gain is that the GC never scans or moves them,
   so they add nothing to marking or compaction however many
   evaluators are alive at once; a load from them costs the same as
   from an int array (OCaml 5 puts no read barrier on plain loads).
   Kind [int] rather than [Int64] is deliberate — without flambda every
   Int64 element access boxes, while [int] elements are unboxed loads;
   the cost is one lane/bit of width (Sys.int_size = 63 on 64-bit). *)
type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let words_make len : words =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 len) in
  Bigarray.Array1.fill a 0;
  a

(* bounds: wrappers over the only two Bigarray unsafe accessors in the
   codebase; every caller below indexes within [0, dim a) and carries
   its own bounds comment. Fully applied externals at a monomorphic
   type compile to direct unboxed loads/stores. *)
let[@inline] wget (a : words) i = Bigarray.Array1.unsafe_get a i

(* bounds: see wget. *)
let[@inline] wset (a : words) i v = Bigarray.Array1.unsafe_set a i v

let words_fill (a : words) v = Bigarray.Array1.fill a v

type compiled = {
  n : int;
  nroutes : int;
  w : int; (* words per adjacency row *)
  paths : int array array; (* vertex sequence per route *)
  via_start : int array; (* length n+1: CSR index vertex -> routes through it *)
  via : int array;
  edges : (int * int) array; (* graph edges, (min, max), lex order *)
  edge_ids : (int * int, int) Hashtbl.t; (* (min, max) -> index into [edges] *)
  eia_start : int array; (* length m+1: CSR index edge -> routes traversing it *)
  eia : int array;
  arc_word : int array; (* route -> flat word index of its adjacency bit *)
  arc_bit : int array; (* route -> mask of its adjacency bit *)
  col_word : int array; (* route -> flat word index of its transposed bit *)
  col_bit : int array; (* route -> mask of its transposed bit *)
  vx_word : int array; (* vertex -> word index in an alive/visited mask *)
  vx_bit : int array; (* vertex -> mask in an alive/visited mask *)
  (* Routes regrouped by source for the bit-sliced sweeps: position
     [i] in [bs_start.(u), bs_start.(u+1)) is a route out of [u] with
     destination [bs_dst.(i)]; [route_pos] maps a route id to its
     position, so the per-position lane-liveness words can be cleared
     through the via/eia indexes. *)
  bs_start : int array; (* length n+1 *)
  bs_dst : int array; (* length nroutes, by position *)
  route_pos : int array; (* route id -> position *)
  (* The same routes regrouped by destination, for the sliced sweep's
     bottom-up levels: entry [j] in [bd_start.(v), bd_start.(v+1)) is
     a route into [v] from [bd_src.(j)], whose by-source position
     (the index into a lane-liveness array) is [bd_pos.(j)]. *)
  bd_start : int array; (* length n+1 *)
  bd_src : int array; (* length nroutes *)
  bd_pos : int array; (* length nroutes *)
  bs_hops : int array; (* length nroutes, by position: graph edges of the route *)
  symmetric : bool; (* every route's reverse is its path read backwards *)
}

(* [b] is [a] read backwards. *)
let is_reverse a b =
  let len = Array.length a in
  Array.length b = len
  &&
  let rec from j = j >= len || (a.(j) = b.(len - 1 - j) && from (j + 1)) in
  from 0

let compile routing =
  Obs.with_span "surviving.compile" @@ fun () ->
  let g = Routing.graph routing in
  let n = Graph.n g in
  let acc = ref [] in
  let nroutes = ref 0 in
  Routing.iter
    (fun src dst p ->
      acc := (src, dst, Path.to_array p) :: !acc;
      incr nroutes)
    routing;
  let nroutes = !nroutes in
  let routes = Array.make nroutes (0, 0, [||]) in
  List.iteri (fun i r -> routes.(nroutes - 1 - i) <- r) !acc;
  let paths = Array.map (fun (_, _, p) -> p) routes in
  (* Inverted index: vertex -> routes whose path contains it
     (endpoints included, matching [Path.hits]). *)
  let count = Array.make (n + 1) 0 in
  Array.iter (Array.iter (fun v -> count.(v) <- count.(v) + 1)) paths;
  let via_start = Array.make (n + 1) 0 in
  for v = 1 to n do
    via_start.(v) <- via_start.(v - 1) + count.(v - 1)
  done;
  let via = Array.make (max 1 via_start.(n)) 0 in
  let fill = Array.copy via_start in
  Array.iteri
    (fun r p ->
      Array.iter
        (fun v ->
          via.(fill.(v)) <- r;
          fill.(v) <- fill.(v) + 1)
        p)
    paths;
  (* Symmetry, read off the table itself: every route (x, y) has a
     reverse (y, x) whose path is its own read backwards. Per vertex
     [u], one pass over the routes through [u] records in [out] the
     route from [u] to each destination, and a second checks each
     route into [u] against the recorded route back to its source. A
     stale [out] entry names a route that does not start at [u], so
     nothing needs clearing between vertices. Each route is compared
     once, at its destination: O(nroutes + sum of |path|). *)
  let symmetric =
    let out = Array.make (max 1 n) (-1) in
    let ok = ref true and u = ref 0 in
    while !ok && !u < n do
      let lo = via_start.(!u) and hi = via_start.(!u + 1) - 1 in
      for i = lo to hi do
        let src, dst, _ = routes.(via.(i)) in
        if src = !u then out.(dst) <- via.(i)
      done;
      for i = lo to hi do
        let src, dst, p = routes.(via.(i)) in
        if !ok && dst = !u then begin
          let q = out.(src) in
          ok :=
            q >= 0
            &&
            let qsrc, qdst, qp = routes.(q) in
            qsrc = !u && qdst = src && is_reverse p qp
        end
      done;
      incr u
    done;
    !ok
  in
  (* Edge index: the graph's edges in (min, max) lexicographic order,
     plus a CSR inverted index edge -> routes traversing it. Routes are
     simple paths, so each traverses an edge at most once and the
     per-route hit counter stays exact when node and edge faults mix. *)
  let edges =
    (* (min, max) lexicographic, read straight off the CSR rows — no
       intermediate edge list. *)
    let csr = Graph.csr g in
    let off = Graph.Csr.offsets csr and tgt = Graph.Csr.targets csr in
    (* sized by arcs, not arcs/2: deliberately asymmetric adjacency
       (tests build it via of_adj_lists) can put more than half the
       arcs in u < v orientation *)
    let arr = Array.make (max 1 (Graph.Csr.arcs csr)) (0, 0) in
    let k = ref 0 in
    for u = 0 to n - 1 do
      for i = off.(u) to off.(u + 1) - 1 do
        let v = tgt.(i) in
        if u < v then begin
          arr.(!k) <- (u, v);
          incr k
        end
      done
    done;
    if !k = Array.length arr then arr else Array.sub arr 0 !k
  in
  let m = Array.length edges in
  let edge_ids = Hashtbl.create (max 16 (2 * m)) in
  Array.iteri (fun i e -> Hashtbl.replace edge_ids e i) edges;
  let edge_of u v = if u < v then (u, v) else (v, u) in
  (* Per-step edge-id lookups dominate compilation when done through
     the tuple-keyed hashtable (a key allocation and a polymorphic
     hash per step); a dense n*n id matrix answers them in one load.
     The matrix is only worth its n^2 ints on small graphs — past the
     cutoff the hashtable path remains. *)
  let eid_lookup =
    if n <= 1024 then begin
      let flat = Array.make (max 1 (n * n)) (-1) in
      Array.iteri
        (fun i (u, v) ->
          flat.((u * n) + v) <- i;
          flat.((v * n) + u) <- i)
        edges;
      fun u v -> flat.((u * n) + v)
    end
    else fun u v ->
      match Hashtbl.find_opt edge_ids (edge_of u v) with Some e -> e | None -> -1
  in
  (* A route step that is not a graph edge means the table is stale
     (or the graph's adjacency is inconsistent): fail with a message
     naming the route and the offending step instead of leaking a
     negative id into the CSR build. *)
  let edge_id_exn r j =
    let u = paths.(r).(j) and v = paths.(r).(j + 1) in
    let e = eid_lookup u v in
    if e >= 0 then e
    else
      let src, dst, _ = routes.(r) in
      invalid_arg
        (Printf.sprintf
           "Surviving.compile: route %d->%d steps across (%d, %d), which is \
            not an edge of the graph (stale route table?)"
           src dst u v)
  in
  (* One resolution pass: [redge] records every step's edge id in route
     order, so the count and fill passes below never re-resolve. *)
  let steps =
    Array.fold_left (fun acc p -> acc + max 0 (Array.length p - 1)) 0 paths
  in
  let redge = Array.make (max 1 steps) 0 in
  let kstep = ref 0 in
  Array.iteri
    (fun r p ->
      for j = 0 to Array.length p - 2 do
        redge.(!kstep) <- edge_id_exn r j;
        incr kstep
      done)
    paths;
  let ecount = Array.make (m + 1) 0 in
  for k = 0 to steps - 1 do
    let e = redge.(k) in
    ecount.(e) <- ecount.(e) + 1
  done;
  let eia_start = Array.make (m + 1) 0 in
  for e = 1 to m do
    eia_start.(e) <- eia_start.(e - 1) + ecount.(e - 1)
  done;
  let eia = Array.make (max 1 eia_start.(m)) 0 in
  let efill = Array.copy eia_start in
  let kstep = ref 0 in
  Array.iteri
    (fun r p ->
      for _ = 0 to Array.length p - 2 do
        let e = redge.(!kstep) in
        incr kstep;
        eia.(efill.(e)) <- r;
        efill.(e) <- efill.(e) + 1
      done)
    paths;
  let w = max 1 ((n + matrix_bits - 1) / matrix_bits) in
  let arc_word = Array.make (max 1 nroutes) 0 in
  let arc_bit = Array.make (max 1 nroutes) 0 in
  let col_word = Array.make (max 1 nroutes) 0 in
  let col_bit = Array.make (max 1 nroutes) 0 in
  Array.iteri
    (fun r (src, dst, _) ->
      arc_word.(r) <- (src * w) + (dst / matrix_bits);
      arc_bit.(r) <- 1 lsl (dst mod matrix_bits);
      col_word.(r) <- (dst * w) + (src / matrix_bits);
      col_bit.(r) <- 1 lsl (src mod matrix_bits))
    routes;
  let vx_word = Array.init n (fun v -> v / matrix_bits) in
  let vx_bit = Array.init n (fun v -> 1 lsl (v mod matrix_bits)) in
  (* Routes regrouped by source vertex: the bit-sliced sweeps walk
     "routes out of u" as a contiguous run instead of peeling row
     bits, because each route carries a per-lane liveness word. *)
  let scount = Array.make (n + 1) 0 in
  Array.iter (fun (src, _, _) -> scount.(src) <- scount.(src) + 1) routes;
  let bs_start = Array.make (n + 1) 0 in
  for v = 1 to n do
    bs_start.(v) <- bs_start.(v - 1) + scount.(v - 1)
  done;
  let bs_dst = Array.make (max 1 nroutes) 0 in
  let bs_hops = Array.make (max 1 nroutes) 0 in
  let route_pos = Array.make (max 1 nroutes) 0 in
  let sfill = Array.copy bs_start in
  Array.iteri
    (fun r (src, dst, p) ->
      bs_dst.(sfill.(src)) <- dst;
      bs_hops.(sfill.(src)) <- Array.length p - 1;
      route_pos.(r) <- sfill.(src);
      sfill.(src) <- sfill.(src) + 1)
    routes;
  (* In-route index over the by-source positions, in position order,
     so each vertex's in-routes come sorted by source. *)
  let dcount = Array.make (n + 1) 0 in
  for i = 0 to nroutes - 1 do
    dcount.(bs_dst.(i)) <- dcount.(bs_dst.(i)) + 1
  done;
  let bd_start = Array.make (n + 1) 0 in
  for v = 1 to n do
    bd_start.(v) <- bd_start.(v - 1) + dcount.(v - 1)
  done;
  let bd_src = Array.make (max 1 nroutes) 0 in
  let bd_pos = Array.make (max 1 nroutes) 0 in
  let dfill = Array.copy bd_start in
  for u = 0 to n - 1 do
    for i = bs_start.(u) to bs_start.(u + 1) - 1 do
      let d = bs_dst.(i) in
      bd_src.(dfill.(d)) <- u;
      bd_pos.(dfill.(d)) <- i;
      dfill.(d) <- dfill.(d) + 1
    done
  done;
  Obs.incr c_compile_calls;
  Obs.add c_compile_routes nroutes;
  Obs.add c_compile_edges m;
  {
    n;
    nroutes;
    w;
    paths;
    via_start;
    via;
    edges;
    edge_ids;
    eia_start;
    eia;
    arc_word;
    arc_bit;
    col_word;
    col_bit;
    vx_word;
    vx_bit;
    bs_start;
    bs_dst;
    route_pos;
    bd_start;
    bd_src;
    bd_pos;
    bs_hops;
    symmetric;
  }

(* One-slot compile cache. The checker entry points ([Tolerance],
   [Attack], the CLI's evaluate pipeline) each recompile the routing
   they are handed, so a single evaluation run pays for the same table
   several times over. The table depends only on the route set, and a
   routing's routes can only ever be added — re-adding an identical
   path is a no-op and a conflicting add raises — so physical identity
   of the routing plus its route count is a sound freshness key. One
   slot covers the repeat-caller patterns; it deliberately holds a
   strong reference (bounded: one table). Guarded by a mutex so
   concurrent callers on different domains stay safe; a compiled table
   is immutable, and every evaluator owns its mutable state. *)
let cache_lock = Mutex.create ()
let cache_slot : (Routing.t * int * compiled) option ref = ref None
let g_compile_hits = Obs.gauge "engine.compile.cache_hits"

let compile_cached routing =
  let stamp = Routing.route_count routing in
  Mutex.lock cache_lock;
  let hit =
    match !cache_slot with
    | Some (r, s, c) when r == routing && s = stamp -> Some c
    | _ -> None
  in
  Mutex.unlock cache_lock;
  match hit with
  | Some c ->
      (* Counters report requested work, so a hit bumps the compile
         counters exactly as a build would — whether the cache was
         warm is a scheduling accident (it depends on what ran
         before), so the hit tally itself is a gauge, keeping the
         counter JSON identical across jobs values and cache
         states. *)
      Obs.incr c_compile_calls;
      Obs.add c_compile_routes c.nroutes;
      Obs.add c_compile_edges (Array.length c.edges);
      Obs.add_gauge g_compile_hits 1.0;
      c
  | None ->
      let c = compile routing in
      Mutex.lock cache_lock;
      cache_slot := Some (routing, stamp, c);
      Mutex.unlock cache_lock;
      c

let compiled_n c = c.n
let symmetric c = c.symmetric
let edge_count c = Array.length c.edges

let edge_pair c e =
  if e < 0 || e >= Array.length c.edges then
    invalid_arg "Surviving.edge_pair: edge id out of range";
  c.edges.(e)

let edge_id c u v =
  Hashtbl.find_opt c.edge_ids (if u < v then (u, v) else (v, u))

(* ------------------------------------------------------------------ *)
(* Incremental evaluator.                                             *)
(* ------------------------------------------------------------------ *)

type evaluator = {
  c : compiled;
  hits : int array; (* per route: how many of its vertices are faulty *)
  rows : words; (* live adjacency matrix, kept in sync with hits *)
  cols : words; (* its transpose: row v holds the live arcs into v *)
  alive : int array;
  visited : int array;
  front : int array;
  next : int array;
  faulty : Bitset.t;
  edge_faulty : Bitset.t; (* by edge id over [c.edges] *)
  mutable nalive : int;
  mutable nedges_down : int;
  rparent : int array; (* route BFS: parent per vertex, -1 between queries *)
  rqueue : int array; (* route BFS: the vertices visited, in order *)
}

let evaluator c =
  let rows = words_make (c.n * c.w) and cols = words_make (c.n * c.w) in
  for r = 0 to c.nroutes - 1 do
    rows.{c.arc_word.(r)} <- rows.{c.arc_word.(r)} lor c.arc_bit.(r);
    cols.{c.col_word.(r)} <- cols.{c.col_word.(r)} lor c.col_bit.(r)
  done;
  let alive = Array.make c.w 0 in
  for v = 0 to c.n - 1 do
    alive.(c.vx_word.(v)) <- alive.(c.vx_word.(v)) lor c.vx_bit.(v)
  done;
  {
    c;
    hits = Array.make (max 1 c.nroutes) 0;
    rows;
    cols;
    alive;
    visited = Array.make c.w 0;
    front = Array.make c.w 0;
    next = Array.make c.w 0;
    faulty = Bitset.create c.n;
    edge_faulty = Bitset.create (max 1 (Array.length c.edges));
    nalive = c.n;
    nedges_down = 0;
    rparent = Array.make c.n (-1);
    rqueue = Array.make c.n 0;
  }

let evaluator_n e = e.c.n
let is_faulty e v = Bitset.mem e.faulty v
let faults e = Bitset.elements e.faulty
let fault_count e = e.c.n - e.nalive
let is_edge_faulty e eid = Bitset.mem e.edge_faulty eid
let edge_faults e = Bitset.elements e.edge_faulty
let edge_fault_count e = e.nedges_down

(* A route's liveness is one bit in [rows] and its mirror in [cols];
   the apply/revert paths flip both at the 0 <-> 1 transitions of the
   route's hit counter. *)

(* bounds: callers pass compile-recorded route ids r < nroutes, whose
   arc_word/col_word entries are below n * w = dim rows = dim cols. *)
let[@inline] arc_down e r =
  let c = e.c and rows = e.rows and cols = e.cols in
  let wi = Array.unsafe_get c.arc_word r and ci = Array.unsafe_get c.col_word r in
  wset rows wi (wget rows wi land lnot (Array.unsafe_get c.arc_bit r));
  wset cols ci (wget cols ci land lnot (Array.unsafe_get c.col_bit r))

(* bounds: see arc_down. *)
let[@inline] arc_up e r =
  let c = e.c and rows = e.rows and cols = e.cols in
  let wi = Array.unsafe_get c.arc_word r and ci = Array.unsafe_get c.col_word r in
  wset rows wi (wget rows wi lor Array.unsafe_get c.arc_bit r);
  wset cols ci (wget cols ci lor Array.unsafe_get c.col_bit r)

(* bounds: the explicit range check admits only 0 <= v < c.n
   (= capacity of [faulty]); via holds route ids r < nroutes recorded
   by [compile]. *)
let apply_fault e v =
  if v < 0 || v >= e.c.n then invalid_arg "Surviving.apply_fault: vertex out of range";
  if Bitset.unsafe_mem e.faulty v then
    invalid_arg "Surviving.apply_fault: vertex already faulty";
  Bitset.unsafe_add e.faulty v;
  e.nalive <- e.nalive - 1;
  let c = e.c in
  e.alive.(c.vx_word.(v)) <- e.alive.(c.vx_word.(v)) land lnot c.vx_bit.(v);
  let hits = e.hits in
  let stop = c.via_start.(v + 1) - 1 in
  if Obs.enabled () then begin
    Obs.incr c_apply_node;
    Obs.add c_apply_node_routes (stop - c.via_start.(v) + 1)
  end;
  for i = c.via_start.(v) to stop do
    let r = Array.unsafe_get c.via i in
    let h = Array.unsafe_get hits r in
    if h = 0 then arc_down e r;
    Array.unsafe_set hits r (h + 1)
  done

(* bounds: mirror image of apply_fault — same range check, same
   compile-recorded route ids. *)
let revert_fault e v =
  if v < 0 || v >= e.c.n then invalid_arg "Surviving.revert_fault: vertex out of range";
  if not (Bitset.unsafe_mem e.faulty v) then
    invalid_arg "Surviving.revert_fault: vertex not faulty";
  Bitset.unsafe_remove e.faulty v;
  e.nalive <- e.nalive + 1;
  let c = e.c in
  e.alive.(c.vx_word.(v)) <- e.alive.(c.vx_word.(v)) lor c.vx_bit.(v);
  let hits = e.hits in
  let stop = c.via_start.(v + 1) - 1 in
  for i = c.via_start.(v) to stop do
    let r = Array.unsafe_get c.via i in
    let h = Array.unsafe_get hits r - 1 in
    Array.unsafe_set hits r h;
    if h = 0 then arc_up e r
  done

(* Edge faults reuse the same per-route hit counters as node faults: a
   route is live iff no vertex on it is faulty and no edge of it is
   down, i.e. iff its counter is zero. The alive mask is untouched —
   the endpoints of a downed link stay alive. *)

(* bounds: the explicit range check admits only
   0 <= eid < Array.length c.edges (= capacity of [edge_faulty]); eia
   holds route ids r < nroutes recorded by [compile]. *)
let apply_edge_fault e eid =
  let c = e.c in
  if eid < 0 || eid >= Array.length c.edges then
    invalid_arg "Surviving.apply_edge_fault: edge id out of range";
  if Bitset.unsafe_mem e.edge_faulty eid then
    invalid_arg "Surviving.apply_edge_fault: edge already faulty";
  Bitset.unsafe_add e.edge_faulty eid;
  e.nedges_down <- e.nedges_down + 1;
  let hits = e.hits in
  let stop = c.eia_start.(eid + 1) - 1 in
  if Obs.enabled () then begin
    Obs.incr c_apply_edge;
    Obs.add c_apply_edge_routes (stop - c.eia_start.(eid) + 1)
  end;
  for i = c.eia_start.(eid) to stop do
    let r = Array.unsafe_get c.eia i in
    let h = Array.unsafe_get hits r in
    if h = 0 then arc_down e r;
    Array.unsafe_set hits r (h + 1)
  done

(* bounds: mirror image of apply_edge_fault — same range check, same
   compile-recorded route ids. *)
let revert_edge_fault e eid =
  let c = e.c in
  if eid < 0 || eid >= Array.length c.edges then
    invalid_arg "Surviving.revert_edge_fault: edge id out of range";
  if not (Bitset.unsafe_mem e.edge_faulty eid) then
    invalid_arg "Surviving.revert_edge_fault: edge not faulty";
  Bitset.unsafe_remove e.edge_faulty eid;
  e.nedges_down <- e.nedges_down - 1;
  let hits = e.hits in
  let stop = c.eia_start.(eid + 1) - 1 in
  for i = c.eia_start.(eid) to stop do
    let r = Array.unsafe_get c.eia i in
    let h = Array.unsafe_get hits r - 1 in
    Array.unsafe_set hits r h;
    if h = 0 then arc_up e r
  done

let reset e =
  List.iter (revert_fault e) (Bitset.elements e.faulty);
  List.iter (revert_edge_fault e) (Bitset.elements e.edge_faulty)

let set_faults e vs =
  reset e;
  List.iter (apply_fault e) vs

let set_mixed_faults e ~nodes ~edges =
  reset e;
  List.iter (apply_fault e) nodes;
  List.iter (apply_edge_fault e) edges

(* The all-pairs kernel: one BFS per source in [targets] (a w-word mask
   of [ntargets] alive vertices) over the live matrix, where any alive
   vertex may relay. It returns the worst source eccentricity measured
   to the targets, or [-1] when some target is unreachable from a
   source or lies more than [bound] levels away (pass [max_int] for the
   exact value). A source stops as soon as its last target is reached,
   or after level [bound] with targets left; the first [-1] ends the
   call.

   Levels push or pull by the rule in the engine header (Beamer et
   al., SC'12's direction-optimizing BFS). A push ORs the frontier's
   [rows] into [next]; a pull sets [next] to exactly the unvisited
   vertices whose [cols] meet the frontier; the update pass then masks
   [next] down to the new frontier either way.

   It deliberately keeps every target even on a symmetric table: it
   is the per-set oracle the sliced sweep's pair halving is checked
   against, so it must not share that shortcut. *)

(* bounds: every vertex index comes from a set bit of a word of
   [front] or [alive] (masks over the n vertices, so no bit at or past
   n is ever set): u, v < n and row/col + j < n * w = dim rows =
   dim cols; word indices stay below w, the length of every mask. *)
let apsp e ~targets ~ntargets ~bound =
  let w = e.c.w and rows = e.rows and cols = e.cols in
  let alive = e.alive and visited = e.visited and front = e.front and next = e.next in
  let wops = ref 0 and pushes = ref 0 and pulls = ref 0 in
  let worst = ref 0 and failed = ref false in
  let sw = ref 0 in
  while (not !failed) && !sw < w do
    let sources = ref targets.(!sw) in
    while (not !failed) && !sources <> 0 do
      let sbit = !sources land - !sources in
      sources := !sources lxor sbit;
      Array.fill visited 0 w 0;
      Array.fill front 0 w 0;
      visited.(!sw) <- sbit;
      front.(!sw) <- sbit;
      let nfront = ref 1 and unvisited = ref (e.nalive - 1) in
      let left = ref (ntargets - 1) and level = ref 0 in
      while !left > 0 && !nfront > 0 && !level < bound do
        incr level;
        if !unvisited < !nfront then begin
          incr pulls;
          for wi = 0 to w - 1 do
            let todo = ref (Array.unsafe_get alive wi land lnot (Array.unsafe_get visited wi)) in
            let found = ref 0 in
            let base = wi * matrix_bits in
            while !todo <> 0 do
              let b = !todo land - !todo in
              todo := !todo lxor b;
              let col = (base + Bitset.lowest_bit_index b) * w in
              let j = ref 0 in
              while !j < w && wget cols (col + !j) land Array.unsafe_get front !j = 0 do
                incr j
              done;
              if !j < w then begin
                found := !found lor b;
                wops := !wops + !j + 1
              end
              else wops := !wops + w
            done;
            Array.unsafe_set next wi !found
          done
        end
        else begin
          incr pushes;
          wops := !wops + (!nfront * w);
          Array.fill next 0 w 0;
          for wi = 0 to w - 1 do
            let fw = ref (Array.unsafe_get front wi) in
            let base = wi * matrix_bits in
            while !fw <> 0 do
              let b = !fw land - !fw in
              fw := !fw lxor b;
              let row = (base + Bitset.lowest_bit_index b) * w in
              for j = 0 to w - 1 do
                Array.unsafe_set next j (Array.unsafe_get next j lor wget rows (row + j))
              done
            done
          done
        end;
        let reached = ref 0 and hit = ref 0 in
        for j = 0 to w - 1 do
          let seen = Array.unsafe_get visited j in
          let fresh = Array.unsafe_get next j land lnot seen land Array.unsafe_get alive j in
          Array.unsafe_set front j fresh;
          Array.unsafe_set visited j (seen lor fresh);
          reached := !reached + Bitset.popcount fresh;
          hit := !hit + Bitset.popcount (fresh land Array.unsafe_get targets j)
        done;
        nfront := !reached;
        unvisited := !unvisited - !reached;
        left := !left - !hit
      done;
      if !left > 0 then failed := true else worst := max !worst !level
    done;
    incr sw
  done;
  if Obs.enabled () then begin
    Obs.add c_bfs_word_ops !wops;
    Obs.add c_apsp_levels_push !pushes;
    Obs.add c_apsp_levels_pull !pulls
  end;
  if !failed then -1 else !worst

let evaluator_diameter e =
  Obs.incr c_diameter_evals;
  let d = apsp e ~targets:e.alive ~ntargets:e.nalive ~bound:max_int in
  if d < 0 then Metrics.Infinite else Metrics.Finite d

(* Diameter over a subset of the alive vertices: BFS sources and the
   recorded eccentricities range over [targets] only, while any alive
   vertex may still relay. This is the comparison the paper's
   edge->endpoint reduction actually makes: a downed link's endpoints
   stay alive (and may forward), but the projected surviving set
   excludes them. *)

(* bounds: the capacity check below guarantees v < c.n <= capacity
   targets for every unsafe_mem. *)
let evaluator_diameter_over e ~targets =
  let c = e.c in
  if Bitset.capacity targets < c.n then
    invalid_arg "Surviving.evaluator_diameter_over: target set capacity too small";
  let tw = Array.make c.w 0 in
  let count = ref 0 in
  for v = 0 to c.n - 1 do
    if Bitset.unsafe_mem targets v then begin
      if e.alive.(c.vx_word.(v)) land c.vx_bit.(v) = 0 then
        invalid_arg "Surviving.evaluator_diameter_over: target vertex is faulty";
      incr count;
      tw.(c.vx_word.(v)) <- tw.(c.vx_word.(v)) lor c.vx_bit.(v)
    end
  done;
  Obs.incr c_diameter_evals;
  let d = apsp e ~targets:tw ~ntargets:!count ~bound:max_int in
  if d < 0 then Metrics.Infinite else Metrics.Finite d

(* Route-level path extraction for the serving layer: BFS over the
   live adjacency matrix with parent tracking. Per-query cost is one
   ordinary BFS — the word-parallel sweeps above answer diameter
   questions, this answers "how do I get there from here" for one
   pair, which is what a route server does all day — and it allocates
   only the answer: the parent and queue arrays are the evaluator's,
   and only the entries a query touched are cleared after it. *)
let c_route_plans = Obs.counter "engine.route_plans"

(* Graph edges of the route [u -> v], found among the routes out of
   [u]. The arcs of the live matrix are exactly defined routes, so the
   scan always finds one; a miss would mean the tables disagree, and
   counts zero rather than failing a query. *)
let rec hops_from c v i stop =
  if i >= stop then 0 else if c.bs_dst.(i) = v then c.bs_hops.(i) else hops_from c v (i + 1) stop

let route_hops c u v = hops_from c v c.bs_start.(u) c.bs_start.(u + 1)

let evaluator_route e ~src ~dst =
  let c = e.c in
  if src < 0 || src >= c.n || dst < 0 || dst >= c.n then
    invalid_arg "Surviving.evaluator_route: vertex out of range";
  if Bitset.mem e.faulty src || Bitset.mem e.faulty dst then
    invalid_arg "Surviving.evaluator_route: faulty endpoint";
  Obs.incr c_route_plans;
  if src = dst then Some ([ src ], 0)
  else begin
    let parent = e.rparent and queue = e.rqueue in
    parent.(src) <- src;
    queue.(0) <- src;
    (* Level by level: the level is [queue.(lo .. hi-1)]. Plain BFS
       would give [dst] the first vertex of the level, in queue order,
       with a live route to it; testing that one bit per vertex before
       expanding any of them finds the same parent, and skips the
       expansion of the level that reaches [dst]. *)
    let dword = dst / matrix_bits and dbit = 1 lsl (dst mod matrix_bits) in
    let lo = ref 0 and hi = ref 1 in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let i = ref !lo in
      while (not !found) && !i < !hi do
        let u = queue.(!i) in
        if e.rows.{(u * c.w) + dword} land dbit <> 0 then begin
          parent.(dst) <- u;
          found := true
        end;
        incr i
      done;
      if not !found then begin
        let tail = ref !hi in
        for i = !lo to !hi - 1 do
          let u = queue.(i) in
          let row = u * c.w in
          for wi = 0 to c.w - 1 do
            let fw = ref (e.rows.{row + wi} land e.alive.(wi)) in
            let base = wi * matrix_bits in
            while !fw <> 0 do
              let v = base + Bitset.lowest_bit_index !fw in
              fw := !fw land (!fw - 1);
              if v < c.n && parent.(v) < 0 then begin
                parent.(v) <- u;
                queue.(!tail) <- v;
                incr tail
              end
            done
          done
        done;
        lo := !hi;
        hi := !tail
      end
    done;
    let rec walk v acc hops =
      if v = src then (v :: acc, hops)
      else
        let u = parent.(v) in
        walk u (v :: acc) (hops + route_hops c u v)
    in
    let answer = if !found then Some (walk dst [] 0) else None in
    (* Every vertex given a parent was queued, except [dst]. *)
    for i = 0 to !hi - 1 do
      parent.(queue.(i)) <- -1
    done;
    parent.(dst) <- -1;
    answer
  end

let diameter_exceeds e ~bound =
  (* diameter > bound; the surviving diameter is at least Finite 0, so
     a negative bound is always exceeded. *)
  Obs.incr c_exceeds_calls;
  let exceeded = bound < 0 || apsp e ~targets:e.alive ~ntargets:e.nalive ~bound < 0 in
  if exceeded then Obs.incr c_exceeds_early;
  exceeded

(* ------------------------------------------------------------------ *)
(* Bit-sliced fault-set evaluator.                                    *)
(*                                                                    *)
(* The incremental evaluator above packs VERTICES into word bits and  *)
(* answers one fault set per sweep. Exhaustive enumeration asks the   *)
(* opposite question — the same sweep over many fault sets — so here  *)
(* each word bit is a LANE holding one candidate fault set. A route   *)
(* carries a lane-liveness word (bit k clear iff lane k's faults hit  *)
(* the route), a vertex carries a lane-aliveness word, and one BFS    *)
(* from each source advances all lanes at once. Lanes are fault sets, *)
(* not vertices, and the sweep reads only per-vertex lane words and   *)
(* the by-source/by-destination route arrays, so it serves every      *)
(* vertex count — the [w]-word adjacency matrix above is never        *)
(* consulted.                                                         *)
(*                                                                    *)
(* Loading is transposed: [slice_add] only ORs lane bits into per-    *)
(* vertex and per-edge fault masks, and the sweep packs the liveness  *)
(* words once, walking each distinct faulted element's route list a   *)
(* single time with its whole lane mask (the canonical order puts a   *)
(* block's top vertex in all 63 lanes of a slice).                    *)
(*                                                                    *)
(* Each BFS level runs in one of two directions. Push walks the       *)
(* routes out of every frontier vertex; pull (bottom-up) walks the    *)
(* routes into every vertex that still needs some lane, stopping as   *)
(* soon as those lanes are covered. Level 1 always pushes, from the   *)
(* source alone. A later level tries pull when fewer vertices need a  *)
(* lane than push would walk routes (each needer costs pull at least  *)
(* one scan), with push's route count as its budget; a pull that      *)
(* exhausts the budget is abandoned and the level pushes, so a level  *)
(* never walks more than twice push's routes. Per-vertex bookkeeping  *)
(* is one pass over all n lane words per source, at level 1; every    *)
(* later level walks only the list of vertices some pending lane      *)
(* still needs. A vertex can be on the frontier at several levels     *)
(* (once per distinct distance across lanes), so a source costs       *)
(* O(n + routes scanned + the summed list length over its levels)     *)
(* word ops for up to [lane_capacity] verdicts at once.               *)
(*                                                                    *)
(* Pair halving. On a symmetric table (every route's reverse is its   *)
(* path read backwards, [compiled.symmetric]) a route and its reverse *)
(* die together in every lane, so d(x, y) = d(y, x) and each          *)
(* unordered pair needs measuring once: source x covers only the      *)
(* targets v > x. The vertices below x stay in the BFS as relays (a   *)
(* shortest x -> y path may pass through one), but they are walked    *)
(* only on levels where some lane still has a target left after the   *)
(* targets' pull, or after a push. A source then costs                *)
(* O(n + routes scanned + the summed unfinished-target count), plus   *)
(* the below-source list on the levels that walk it. On any other     *)
(* table the target threshold is 0 and nothing changes.               *)
(*                                                                    *)
(* Verdict semantics match the scalar engine lane-for-lane: a lane    *)
(* with at most one alive vertex has diameter [Finite 0]; a lane      *)
(* whose surviving graph is disconnected is [Infinite]; otherwise the *)
(* exact worst eccentricity. Lanes retire from a source's BFS as      *)
(* soon as they cover every alive target, and from the whole sweep    *)
(* the moment one source proves disconnection (or the bound is        *)
(* exceeded), exactly like the scalar early exits.                    *)
(* ------------------------------------------------------------------ *)

let lane_capacity = matrix_bits

type sliced = {
  sc : compiled;
  vmask : int array; (* by vertex: lanes in which it is faulty *)
  emask : int array; (* by edge id: lanes in which it is down *)
  touched_v : int array; (* vertices with a nonzero [vmask]: first [ntv] *)
  mutable ntv : int;
  touched_e : int array; (* edges with a nonzero [emask]: first [nte] *)
  mutable nte : int;
  mutable packed : bool; (* the two liveness planes reflect the masks *)
  route_live : words; (* by route POSITION (by-source order), lane word *)
  lane_alive : words; (* by vertex, lane word *)
  sl_front : words; (* n words *)
  sl_next : words;
  sl_need : words;
  sl_frontier : int array; (* the frontier's vertices: first [nfront] of n *)
  sl_unfinished : int array; (* vertices with a nonzero [need]: first [nunf] of n *)
  sl_above : int array; (* by vertex v: lanes with an alive vertex above v *)
  sl_reach : int array; (* by level: lanes some source covered there *)
  sl_ecc : int array; (* per lane: worst eccentricity of the last sweep *)
  mutable nlanes : int;
}

let sliced_capable (_ : compiled) = true

let sliced c =
  let m = Array.length c.edges in
  {
    sc = c;
    vmask = Array.make c.n 0;
    emask = Array.make m 0;
    touched_v = Array.make c.n 0;
    ntv = 0;
    touched_e = Array.make m 0;
    nte = 0;
    packed = false;
    route_live = words_make c.nroutes;
    lane_alive = words_make c.n;
    sl_front = words_make c.n;
    sl_next = words_make c.n;
    sl_need = words_make c.n;
    sl_frontier = Array.make c.n 0;
    sl_unfinished = Array.make c.n 0;
    sl_above = Array.make c.n 0;
    sl_reach = Array.make (c.n + 1) 0;
    sl_ecc = Array.make lane_capacity 0;
    nlanes = 0;
  }

let slice_count s = s.nlanes

let slice_reset s =
  for j = 0 to s.ntv - 1 do
    s.vmask.(s.touched_v.(j)) <- 0
  done;
  for j = 0 to s.nte - 1 do
    s.emask.(s.touched_e.(j)) <- 0
  done;
  s.ntv <- 0;
  s.nte <- 0;
  s.packed <- false;
  s.nlanes <- 0

let slice_add s ~nodes ~edges =
  if s.nlanes >= lane_capacity then invalid_arg "Surviving.slice_add: slice full";
  let c = s.sc in
  (* Validate every id before recording any: a rejected set must leave
     no trace in the lane it would have taken. *)
  List.iter
    (fun v ->
      if v < 0 || v >= c.n then invalid_arg "Surviving.slice_add: vertex out of range")
    nodes;
  List.iter
    (fun eid ->
      if eid < 0 || eid >= Array.length c.edges then
        invalid_arg "Surviving.slice_add: edge id out of range")
    edges;
  let k = s.nlanes in
  let bit = 1 lsl k in
  List.iter
    (fun v ->
      let mv = s.vmask.(v) in
      if mv = 0 then begin
        s.touched_v.(s.ntv) <- v;
        s.ntv <- s.ntv + 1
      end;
      s.vmask.(v) <- mv lor bit)
    nodes;
  List.iter
    (fun eid ->
      let me = s.emask.(eid) in
      if me = 0 then begin
        s.touched_e.(s.nte) <- eid;
        s.nte <- s.nte + 1
      end;
      s.emask.(eid) <- me lor bit)
    edges;
  s.packed <- false;
  s.nlanes <- k + 1;
  k

(* Rebuild both liveness planes from the recorded masks: all-ones,
   then each touched element clears its lanes from its own word and
   from every route through it. Masks only ever gain bits between
   resets, so repacking is idempotent; [packed] just skips the repeat
   when a slice is swept twice without an add in between. *)

(* bounds: touched vertices/edges were range-checked by [slice_add]
   (v < n = dim lane_alive, eid < m); via/eia hold route ids <
   nroutes recorded by [compile], and route_pos maps them into
   [0, nroutes) = dim route_live. *)
let slice_pack s =
  if not s.packed then begin
    let c = s.sc in
    let la = s.lane_alive and rl = s.route_live in
    words_fill rl (-1);
    words_fill la (-1);
    for j = 0 to s.ntv - 1 do
      let v = Array.unsafe_get s.touched_v j in
      let keep = lnot (Array.unsafe_get s.vmask v) in
      wset la v keep;
      for i = c.via_start.(v) to c.via_start.(v + 1) - 1 do
        let pos = Array.unsafe_get c.route_pos (Array.unsafe_get c.via i) in
        wset rl pos (wget rl pos land keep)
      done
    done;
    for j = 0 to s.nte - 1 do
      let eid = Array.unsafe_get s.touched_e j in
      let keep = lnot (Array.unsafe_get s.emask eid) in
      for i = c.eia_start.(eid) to c.eia_start.(eid + 1) - 1 do
        let pos = Array.unsafe_get c.route_pos (Array.unsafe_get c.eia i) in
        wset rl pos (wget rl pos land keep)
      done
    done;
    s.packed <- true
  end

(* One word-packed BFS per source, all lanes at once. Returns the
   sealed-lane mask: bit k set iff lane k's diameter is [Infinite] or
   provably exceeds [bound]; for every other lane [sl_ecc.(k)] holds
   the exact diameter on return. Everything here — the direction of
   every level and every aborted pull included — is a function of the
   slice contents and the fixed source order, never of scheduling, so
   the counters fed below stay [jobs]-independent.

   Level 1 pushes from the source alone and then makes the source's
   only pass over all n vertices: it writes every [front] word and
   every [need] word, [need v = alive v & ~reached v & pending], and
   lists the vertices with a nonzero [need] in [unfinished], in
   ascending order. Every later level touches only that list and the
   frontier: pull walks [unfinished], push ANDs [need d] into each
   [next d] it writes, and the update pass walks [unfinished] again,
   zeroing the old frontier's [front] words first and compacting the
   list (order kept) as vertices stop being needed. Invariants
   between a source's levels: [next] is all-zero (the dense pass and the update
   pass clear each word they read, and nothing writes a nonzero word
   outside the list); [need] is 0 for every vertex off the list;
   [front] is exact for every vertex, and [frontier] lists the
   vertices whose [front] word is nonzero. [need] may keep bits of
   lanes that have left [pending] since it was written, so its
   readers mask it with the current [pending].

   Pull gives the same fresh bits as push: for a vertex [v] it only
   cares about [need v & pending], and it stops once the OR over v's
   in-routes covers that, so [next v & need v & pending] matches
   push's. Both directions only ever set bits where [v] is alive,
   because a route into [v] is dead in every lane where [v] is
   faulty. A pull that runs out of budget leaves only sub-ORs of
   push's words behind, which the push absorbs.

   Targets. The source covers the alive vertices from [tmin] on:
   [tmin = x + 1] on a symmetric table, 0 otherwise. On a symmetric
   table d(x, y) = d(y, x) in every lane, so the diameter is the worst
   d(x, y) over x < y, and [pending] starts as the source's lanes with
   an alive vertex above it (a suffix OR over [lane_alive], once per
   sweep). The vertices below [tmin] cannot be dropped: one reached
   at level 2 or later can relay a shortest path to a target at level
   3 or later. They stay on [unfinished] as its ascending prefix (the
   first [nbelow] entries) and keep [need] words, but never count
   toward [uncov] or [reach]. A pull walks the targets first and ORs
   into [rest] the lanes left with a target uncovered; only then does
   it walk the prefix, with [want] masked to [rest]. The update pass
   walks the prefix after such a pull or after a push (which writes
   [next] words anywhere); after a pull with [rest = 0] nothing there
   was written, and every pending lane covered its last target at
   this level, so the source ends and the prefix's words are rewritten
   by the next source's dense pass. The stall rule stays exact: a lane
   whose targets were all covered at this level made progress, and a
   lane in [rest] progresses iff it reached a target or a prefix
   vertex, both walked exactly for it.

   A lane's eccentricity from a source is the level at which it
   covers every target; [reach.(l)] collects those lanes over
   all sources, so a lane's worst eccentricity is the deepest level
   whose mask holds it. [reach.(l)] is cleared the first time this
   sweep reaches level [l], whether or not anything is covered there,
   so masks left by an earlier, deeper sweep are never read. A level
   either makes progress in some pending lane or stalls them all, and
   a lane progresses at most n - 1 times, so no level exceeds n. *)

(* bounds: src/u/v/x/d < n = dim of every per-vertex array, and the
   frontier/unfinished lists hold distinct vertices; route positions
   (bs_start ranges, bd_pos) are < nroutes = dim route_live and
   bs_dst/bd_src < n, by [compile]; levels stay <= n < dim reach. *)
let sliced_sweep s ~bound =
  slice_pack s;
  let c = s.sc in
  let n = c.n in
  let sym = c.symmetric in
  let track = Obs.enabled () in
  let wops = ref 0 in
  let visits = ref 0 in
  let npush = ref 0 and npull = ref 0 and naborts = ref 0 and nbelow_walks = ref 0 in
  let lanemask = Bitset.mask s.nlanes in
  let front = s.sl_front and next = s.sl_next and need = s.sl_need in
  let frontier = s.sl_frontier and unfinished = s.sl_unfinished in
  let reach = s.sl_reach and above = s.sl_above in
  let la = s.lane_alive and rl = s.route_live in
  let bs_start = c.bs_start and bs_dst = c.bs_dst in
  let bd_start = c.bd_start and bd_src = c.bd_src and bd_pos = c.bd_pos in
  let outdeg v = Array.unsafe_get bs_start (v + 1) - Array.unsafe_get bs_start v in
  (* The lanes in which a source has a target; no other lane enters
     its [pending]. On a symmetric table, the lanes with an alive
     vertex above the source: [above], a suffix OR. Otherwise [multi],
     the lanes with at least two alive vertices, since in any other
     lane the source is the only alive vertex: eccentricity 0, nothing
     to cover. *)
  let multi =
    if sym then begin
      let acc = ref 0 in
      for v = n - 1 downto 0 do
        Array.unsafe_set above v !acc;
        acc := !acc lor wget la v
      done;
      0
    end
    else begin
      let one = ref 0 and two = ref 0 in
      for v = 0 to n - 1 do
        let a = wget la v in
        two := !two lor (!one land a);
        one := !one lor a
      done;
      !two
    end
  in
  let deepest = ref 0 in
  let sealed = ref 0 in
  let retired = ref 0 in
  let seal m =
    let fresh = m land lnot !sealed in
    if fresh <> 0 then begin
      sealed := !sealed lor fresh;
      retired := !retired + Bitset.popcount fresh
    end
  in
  let src = ref 0 in
  while !sealed <> lanemask && !src < n do
    let x = !src in
    (* Source [x] covers the targets [tmin .. n-1] other than itself;
       the vertices below [tmin] are intermediates only. *)
    let tmin = if sym then x + 1 else 0 in
    let act = wget la x land lanemask land lnot !sealed in
    (* [nunf] counts the vertices some pending lane still needs (the
       needers), the first [nbelow] of them below [tmin]; [push_cost] is
       the routes out of the frontier. *)
    let pending = ref (act land if sym then Array.unsafe_get above x else multi) in
    let nfront = ref 0 and nunf = ref 0 and nbelow = ref 0 in
    let push_cost = ref 0 in
    let level = ref 0 in
    while !pending <> 0 do
      if !level >= bound then begin
        (* Every still-pending lane either advances past [bound] or
           stalls (disconnected); both verdicts are "exceeds". *)
        seal !pending;
        pending := 0
      end
      else begin
        incr level;
        let l = !level in
        if l > !deepest then begin
          reach.(l) <- 0;
          deepest := l
        end;
        let pend = !pending in
        let progress = ref 0 in
        let uncov = ref 0 in
        if l = 1 then begin
          (* Push from the source, then the dense pass. No vertex is
             reached yet but the source, whose own [need] is 0 because
             [pend] is a subset of its alive lanes. *)
          incr npush;
          let lo = Array.unsafe_get bs_start x and hi = Array.unsafe_get bs_start (x + 1) in
          if track then wops := !wops + (hi - lo);
          for i = lo to hi - 1 do
            let d = Array.unsafe_get bs_dst i in
            wset next d (wget next d lor (act land wget rl i))
          done;
          visits := !visits + n;
          for v = 0 to n - 1 do
            let nx = wget next v in
            if nx <> 0 then wset next v 0;
            let keep = if v = x then 0 else pend in
            let fresh = nx land keep in
            wset front v fresh;
            if fresh <> 0 then begin
              progress := !progress lor fresh;
              Array.unsafe_set frontier !nfront v;
              incr nfront;
              push_cost := !push_cost + outdeg v
            end;
            let nd = wget la v land lnot fresh land keep in
            wset need v nd;
            if nd <> 0 then begin
              if v < tmin then incr nbelow else uncov := !uncov lor nd;
              Array.unsafe_set unfinished !nunf v;
              incr nunf
            end
          done
        end
        else begin
          (* Bottom-up first when it may be cheaper, with push's route
             count as its budget; on running out before the last
             vertex, push instead. The [next] words the aborted pull
             wrote need no undoing: each is an OR over some of the
             in-routes push ORs into the same word. The pull walks the
             targets first; [rest] collects the lanes left with a
             target uncovered, and only they send it on to the
             vertices below [tmin], with [want] masked to them. *)
          let try_pull = !nunf < !push_cost in
          let rest = ref 0 in
          let pulled =
            try_pull
            && begin
                 let budget = !push_cost in
                 let scanned = ref 0 in
                 let ok = ref true in
                 (* Pass 0 walks the targets, pass 1 the vertices below. *)
                 let pass = ref 0 in
                 while !ok && !pass < 2 do
                   let k = ref (if !pass = 0 then !nbelow else 0) in
                   let stop_k = if !pass = 0 then !nunf else if !rest = 0 then 0 else !nbelow in
                   let mask = if !pass = 0 then pend else !rest in
                   let k0 = !k in
                   while !ok && !k < stop_k do
                     let v = Array.unsafe_get unfinished !k in
                     let want = wget need v land mask in
                     if want <> 0 then begin
                       let lo = Array.unsafe_get bd_start v in
                       let hi = Array.unsafe_get bd_start (v + 1) in
                       let left = lo + budget - !scanned in
                       let stop = if left < hi then left else hi in
                       let acc = ref 0 in
                       let j = ref lo in
                       while !j < stop && !acc land want <> want do
                         let u = Array.unsafe_get bd_src !j in
                         acc := !acc lor (wget front u land wget rl (Array.unsafe_get bd_pos !j));
                         incr j
                       done;
                       scanned := !scanned + (!j - lo);
                       if !j < hi && !acc land want <> want then ok := false
                       else begin
                         if !acc <> 0 then wset next v !acc;
                         rest := !rest lor (want land lnot !acc)
                       end
                     end;
                     incr k
                   done;
                   visits := !visits + (!k - k0);
                   incr pass
                 done;
                 if track then wops := !wops + !scanned;
                 !ok
               end
          in
          if pulled then incr npull
          else begin
            if try_pull then incr naborts;
            incr npush;
            if track then wops := !wops + !push_cost;
            for f = 0 to !nfront - 1 do
              let u = Array.unsafe_get frontier f in
              let fu = wget front u in
              for i = Array.unsafe_get bs_start u to Array.unsafe_get bs_start (u + 1) - 1 do
                let d = Array.unsafe_get bs_dst i in
                wset next d (wget next d lor (fu land wget rl i land wget need d))
              done
            done
          end;
          for f = 0 to !nfront - 1 do
            wset front (Array.unsafe_get frontier f) 0
          done;
          nfront := 0;
          push_cost := 0;
          (* The update pass walks the vertices below [tmin] only after a
             push, or a pull that walked them: otherwise no [next] word
             there was written, and every pending lane covers its last
             target at this level, so the source is done. *)
          let first = if (not pulled) || !rest <> 0 then 0 else !nbelow in
          if first = 0 then begin
            if !nbelow > 0 then incr nbelow_walks;
            nbelow := 0
          end;
          let kept = ref first in
          for j = first to !nunf - 1 do
            let v = Array.unsafe_get unfinished j in
            let nx = wget next v in
            let nd = wget need v land pend in
            if nx <> 0 then wset next v 0;
            let fresh = nx land nd in
            if fresh <> 0 then begin
              wset front v fresh;
              progress := !progress lor fresh;
              Array.unsafe_set frontier !nfront v;
              incr nfront;
              push_cost := !push_cost + outdeg v
            end;
            let nd = nd land lnot fresh in
            wset need v nd;
            if nd <> 0 then begin
              if v < tmin then incr nbelow else uncov := !uncov lor nd;
              Array.unsafe_set unfinished !kept v;
              incr kept
            end
          done;
          visits := !visits + (!nunf - first);
          nunf := !kept
        end;
        reach.(l) <- reach.(l) lor (pend land lnot !uncov);
        let stalled = pend land lnot !progress in
        seal stalled;
        pending := pend land !uncov land lnot stalled
      end
    done;
    incr src
  done;
  let ecc = s.sl_ecc in
  Array.fill ecc 0 lane_capacity 0;
  let seen = ref 0 in
  for l = !deepest downto 1 do
    let m = ref (reach.(l) land lnot !seen) in
    seen := !seen lor !m;
    while !m <> 0 do
      ecc.(Bitset.lowest_bit_index !m) <- l;
      m := !m land (!m - 1)
    done
  done;
  if track then Obs.add c_bfs_word_ops !wops;
  Obs.incr c_slices;
  Obs.add c_slice_lanes s.nlanes;
  Obs.add c_lanes_retired !retired;
  Obs.add c_levels_push !npush;
  Obs.add c_levels_pull !npull;
  Obs.add c_pull_aborts !naborts;
  Obs.add c_vertex_visits !visits;
  Obs.add c_below_walks !nbelow_walks;
  !sealed

let slice_diameters s =
  if s.nlanes = 0 then [||]
  else begin
    Obs.add c_diameter_evals s.nlanes;
    let sealed = sliced_sweep s ~bound:max_int in
    Array.init s.nlanes (fun k ->
        if sealed land (1 lsl k) <> 0 then Metrics.Infinite
        else Metrics.Finite s.sl_ecc.(k))
  end

let slice_exceeds s ~bound =
  if s.nlanes = 0 then 0
  else begin
    Obs.add c_exceeds_calls s.nlanes;
    let sealed =
      if bound < 0 then Bitset.mask s.nlanes else sliced_sweep s ~bound
    in
    Obs.add c_exceeds_early (Bitset.popcount sealed);
    sealed
  end

let component_diameters routing ~faults =
  let dg = graph routing ~faults in
  let n = Digraph.n dg in
  (* Weak components: union arcs in both directions, reading the
     digraph's adjacency arrays directly. *)
  let undirected =
    let b = Graph.Builder.create n in
    for u = 0 to n - 1 do
      Array.iter (fun v -> Graph.Builder.add_edge b u v) (Digraph.succ dg u)
    done;
    Graph.Builder.to_graph b
  in
  let seen = Bitset.create n in
  let components = ref [] in
  for v = 0 to n - 1 do
    if alive faults v && not (Bitset.mem seen v) then begin
      let comp =
        Traversal.component_of undirected ~allowed:(alive faults) v
      in
      Bitset.union_into seen comp;
      let members = Bitset.elements comp in
      (* Directed diameter inside the component. *)
      let inside u = Bitset.mem comp u in
      let worst = ref (Metrics.Finite 0) in
      List.iter
        (fun x ->
          let dist = Digraph.bfs dg ~allowed:inside x in
          List.iter
            (fun y ->
              if y <> x then
                let d =
                  if dist.(y) < 0 then Metrics.Infinite else Metrics.Finite dist.(y)
                in
                worst := Metrics.max_distance !worst d)
            members)
        members;
      components := (members, !worst) :: !components
    end
  done;
  List.rev !components

(* ------------------------------------------------------------------ *)
(* Sampled probes at scale: bounded route-graph distance straight off
   [Routing.find], no compilation, no O(routes) state — the only
   distance primitive that works on million-node compact tables. *)

let probe_distance routing ~faults ~src ~dst ~bound ~budget =
  let n = Graph.n (Routing.graph routing) in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Surviving.probe_distance: vertex out of range";
  if Bitset.mem faults src || Bitset.mem faults dst then Metrics.Infinite
  else if src = dst then Metrics.Finite 0
  else begin
    let exception Found of int in
    let probes = ref (max 1 budget) in
    let survives x y =
      !probes > 0
      && begin
           decr probes;
           match Routing.find routing x y with
           | None -> false
           | Some p -> not (Path.hits p faults)
         end
    in
    (* Deterministic scan order (a fixed stride start hashed from the
       pair): verdicts are independent of domain scheduling. *)
    let start = (((31 * src) + dst) land max_int) mod n in
    try
      if bound >= 1 && survives src dst then raise (Found 1);
      if bound >= 2 && !probes > 0 then begin
        (* one-intermediate scan with early exit; exact when the budget
           covers the sweep *)
        let i = ref 0 in
        while !i < n && !probes > 0 do
          let w = start + !i in
          let w = if w >= n then w - n else w in
          if w <> src && w <> dst
             && (not (Bitset.mem faults w))
             && survives src w && survives w dst
          then raise (Found 2);
          incr i
        done
      end;
      if bound >= 3 && !probes > 0 then begin
        (* layered expansion for deeper bounds; each level first tries
           the direct hop to dst, then grows the next frontier *)
        let visited = Bytes.make n '\000' in
        Bytes.set visited src '\001';
        Bytes.set visited dst '\001';
        let frontier = ref [ src ] in
        let level = ref 0 in
        while !frontier <> [] && !level + 1 < bound && !probes > 0 do
          let next = ref [] in
          List.iter
            (fun x ->
              for i = 0 to n - 1 do
                let w = start + i in
                let w = if w >= n then w - n else w in
                if Bytes.get visited w = '\000'
                   && (not (Bitset.mem faults w))
                   && survives x w
                then begin
                  Bytes.set visited w '\001';
                  next := w :: !next
                end
              done)
            !frontier;
          incr level;
          (* vertices in [next] are at distance level+... from src; the
             direct-hop test below reaches dst at [!level + 1] arcs *)
          List.iter
            (fun x -> if survives x dst then raise (Found (!level + 1)))
            !next;
          frontier := !next
        done
      end;
      Metrics.Infinite
    with Found k -> Metrics.Finite k
  end

(* ------------------------------------------------------------------ *)
(* Fault universes.                                                   *)
(* ------------------------------------------------------------------ *)

type universe = Nodes | Links | Mixed
type fault_set = { nodes : int list; links : (int * int) list }

let no_faults = { nodes = []; links = [] }

(* A universe id below [edge_base] is a vertex; id [edge_base + e] is
   edge [e]. [Nodes] has no edge ids and [Links] no vertex ids, so one
   split serves all three. *)
let edge_base c = function Links -> 0 | Nodes | Mixed -> c.n

let universe_size c = function
  | Nodes -> c.n
  | Links -> Array.length c.edges
  | Mixed -> c.n + Array.length c.edges

let fault_set_of_ids c u ids =
  match u with
  | Nodes -> { nodes = ids; links = [] }
  | Links -> { nodes = []; links = List.map (edge_pair c) ids }
  | Mixed ->
      let nodes, eids = List.partition (fun id -> id < c.n) ids in
      { nodes; links = List.map (fun id -> edge_pair c (id - c.n)) eids }

let ids_of_fault_set c u { nodes; links } =
  let base = edge_base c u in
  if u = Links && nodes <> [] then
    invalid_arg "Surviving.ids_of_fault_set: node fault outside the Links universe";
  if u = Nodes && links <> [] then
    invalid_arg "Surviving.ids_of_fault_set: link fault outside the Nodes universe";
  List.iter
    (fun v ->
      if v < 0 || v >= c.n then
        invalid_arg "Surviving.ids_of_fault_set: vertex out of range")
    nodes;
  let link_id (a, b) =
    match edge_id c a b with
    | Some e -> base + e
    | None ->
        invalid_arg
          (Printf.sprintf "Surviving.ids_of_fault_set: (%d, %d) is not a graph edge" a b)
  in
  List.sort_uniq Int.compare (List.rev_append nodes (List.map link_id links))

let apply_id e u id =
  let base = edge_base e.c u in
  if id < base then apply_fault e id else apply_edge_fault e (id - base)

let revert_id e u id =
  let base = edge_base e.c u in
  if id < base then revert_fault e id else revert_edge_fault e (id - base)

let is_id_faulty e u id =
  let base = edge_base e.c u in
  if id < base then is_faulty e id else is_edge_faulty e (id - base)

let fault_ids e u =
  let base = edge_base e.c u in
  faults e @ List.map (fun eid -> base + eid) (edge_faults e)

let set_fault_ids e u ids =
  reset e;
  List.iter (apply_id e u) ids

(* A [Nodes] or [Links] id list goes into the lane as it is; only a
   [Mixed] one is split. *)
let slice_add_ids s u ids =
  match u with
  | Nodes -> slice_add s ~nodes:ids ~edges:[]
  | Links -> slice_add s ~nodes:[] ~edges:ids
  | Mixed ->
      let n = s.sc.n in
      let nodes, eids = List.partition (fun id -> id < n) ids in
      slice_add s ~nodes ~edges:(List.map (fun id -> id - n) eids)

let fault_set_to_string { nodes; links } =
  Printf.sprintf "{%s}%s"
    (String.concat "," (List.map string_of_int nodes))
    (match links with
    | [] -> ""
    | _ ->
        Printf.sprintf " links{%s}"
          (String.concat "," (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) links)))
