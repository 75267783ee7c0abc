open Ftr_graph
module Obs = Ftr_obs.Obs

(* Every counter here is a function of the requested search (config,
   seeds, pools), never of the schedule: restarts own private RNGs and
   budget slices, so their per-restart tallies — and these sums — are
   identical for every [jobs] value. *)
let c_searches = Obs.counter "attack.searches"
let c_evals = Obs.counter "attack.evals"
let c_restarts = Obs.counter "attack.restarts"
let c_sa_escapes = Obs.counter "attack.sa_escapes"
let c_shrink_evals = Obs.counter "attack.shrink.evals"
let c_shrink_dropped = Obs.counter "attack.shrink.dropped"

type config = {
  budget : int;
  restarts : int;
  sa_steps : int;
  init_temp : float;
  cooling : float;
}

let default_config =
  { budget = 1500; restarts = 6; sa_steps = 60; init_temp = 2.0; cooling = 0.95 }

type outcome = {
  worst : Metrics.distance;
  witness : Surviving.fault_set;
  raw_witness : Surviving.fault_set;
  evals : int;
  restarts_used : int;
}

let score ~n = function Metrics.Finite d -> d | Metrics.Infinite -> n

(* The search, shrinking and restart machinery is generic over the
   fault universe: an element is a [Surviving.universe] id, toggled on
   an evaluator by [Surviving.apply_id]/[revert_id]. Node, link and
   mixed search share one code path, so the determinism and
   jobs-independence arguments hold verbatim. *)
let fault_total ev = Surviving.fault_count ev + Surviving.edge_fault_count ev

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Greedy delta-minimisation: drop faults (in increasing vertex order,
   restarting after every successful drop) while the surviving
   diameter stays at least the target. Dropping a fault can also
   *raise* the diameter — a revived vertex may sit far from everyone —
   so the target ratchets upward and the returned witness achieves the
   returned diameter exactly. *)
let shrink_ids compiled ~universe ~witness =
  let ev = Surviving.evaluator compiled in
  let evals = ref 0 in
  let eval faults_list =
    incr evals;
    Surviving.set_fault_ids ev universe faults_list;
    Surviving.evaluator_diameter ev
  in
  let current = ref (List.sort_uniq compare witness) in
  let target = ref (eval !current) in
  let changed = ref true in
  while !changed do
    changed := false;
    let rec try_drop kept = function
      | [] -> ()
      | u :: rest ->
          let candidate = List.rev_append kept rest in
          let d = eval candidate in
          if Metrics.distance_le !target d then begin
            target := d;
            current := List.sort Int.compare candidate;
            changed := true
          end
          else try_drop (u :: kept) rest
    in
    try_drop [] !current
  done;
  (!current, !target, !evals)

(* Shrinking never leaves the witness's own elements, so [Mixed] ids
   serve every witness; their order (vertices, then edges by id) is
   the drop order of each narrower universe too. *)
let shrink compiled ~witness =
  let ids, d, evals =
    shrink_ids compiled ~universe:Surviving.Mixed
      ~witness:(Surviving.ids_of_fault_set compiled Surviving.Mixed witness)
  in
  (Surviving.fault_set_of_ids compiled Surviving.Mixed ids, d, evals)

(* One independent restart: pool- or random-seeded hill climbing with
   SA plateau escapes under a private budget and RNG, re-seeding from
   fresh random sets when the escape finds no new ground. Restarts
   share nothing mutable, so the caller may run them on any domain;
   merging their results in restart order keeps the outcome identical
   for every [jobs] value. *)
type restart_result = {
  r_d : Metrics.distance;
  r_w : int list; (* raw witness achieving r_d; [] when nothing beat Finite(-1) *)
  r_evals : int;
  r_sa : int; (* annealing escapes taken *)
}

let run_restart ev ~universe ~total ~config ~n ~f ~seed ~budget ~pool =
  Surviving.reset ev;
  let rng = Random.State.make [| seed; 0x5eed |] in
  let sc d = score ~n d in
  let evals = ref 0 in
  let budget_left () = !evals < budget in
  let eval () =
    incr evals;
    Surviving.evaluator_diameter ev
  in
  let members = Array.make f 0 in
  let cur_d = ref (Metrics.Finite (-1)) in
  let best_d = ref (Metrics.Finite (-1)) in
  let best_w = ref [] in
  let record_if_best d =
    if sc d > sc !best_d then begin
      best_d := d;
      best_w := List.sort Int.compare (Array.to_list members)
    end
  in
  let init_set pool =
    Surviving.reset ev;
    (match pool with
    | Some p ->
        (* A random f-subset of the pool; short pools are topped up
           with random elements below. *)
        let p = Array.of_list p in
        shuffle rng p;
        Array.iter
          (fun v ->
            if fault_total ev < f && not (Surviving.is_id_faulty ev universe v) then
              Surviving.apply_id ev universe v)
          p
    | None -> ());
    while fault_total ev < f do
      let v = Random.State.int rng total in
      if not (Surviving.is_id_faulty ev universe v) then Surviving.apply_id ev universe v
    done;
    List.iteri (fun k v -> members.(k) <- v) (Surviving.fault_ids ev universe);
    cur_d := eval ();
    record_if_best !cur_d
  in
  (* Swap members.(oi) for v; [accept] sees the new diameter and
     decides; a rejected swap is reverted. The evaluator makes the
     swap incremental: only routes through the two elements move. *)
  let try_swap oi v ~accept =
    if Surviving.is_id_faulty ev universe v then false
    else begin
      let u = members.(oi) in
      Surviving.revert_id ev universe u;
      Surviving.apply_id ev universe v;
      members.(oi) <- v;
      let d = eval () in
      if accept d then begin
        cur_d := d;
        record_if_best d;
        true
      end
      else begin
        Surviving.revert_id ev universe v;
        Surviving.apply_id ev universe u;
        members.(oi) <- u;
        false
      end
    end
  in
  let exception Step in
  (* One greedy step: randomised first-improvement over the full
     single-element-swap neighborhood. *)
  let greedy_step () =
    let improved = ref false in
    let outs = Array.init f Fun.id and vs = Array.init total Fun.id in
    shuffle rng outs;
    shuffle rng vs;
    (try
       Array.iter
         (fun oi ->
           Array.iter
             (fun v ->
               if not (budget_left ()) then raise Step;
               if try_swap oi v ~accept:(fun d -> sc d > sc !cur_d) then begin
                 improved := true;
                 raise Step
               end)
             vs)
         outs
     with Step -> ());
    !improved
  in
  (* Plateau escape: a short annealing walk accepting uphill moves
     always and downhill moves with cooling probability. *)
  let sa_escape () =
    let temp = ref config.init_temp in
    let steps = ref 0 in
    while budget_left () && !steps < config.sa_steps do
      incr steps;
      let oi = Random.State.int rng f in
      let v = Random.State.int rng total in
      ignore
        (try_swap oi v ~accept:(fun d ->
             let delta = float_of_int (sc d - sc !cur_d) in
             delta >= 0.0 || Random.State.float rng 1.0 < exp (delta /. !temp)));
      temp := !temp *. config.cooling
    done
  in
  init_set pool;
  let live = ref true in
  let sa_taken = ref 0 in
  while budget_left () && !live do
    if not (greedy_step ()) then begin
      let before = sc !best_d in
      incr sa_taken;
      sa_escape ();
      (* The escape found no new ground: burn the remaining private
         budget on a fresh random start instead of giving up. *)
      if sc !best_d <= before then begin
        if budget_left () then init_set None else live := false
      end
    end
  done;
  { r_d = !best_d; r_w = !best_w; r_evals = !evals; r_sa = !sa_taken }

let search_core ~config ~jobs ~rng ~pools ~universe compiled ~f =
  Obs.with_span "attack.search" @@ fun () ->
  Obs.incr c_searches;
  let n = Surviving.compiled_n compiled in
  let total = Surviving.universe_size compiled universe in
  let f = max 0 (min f total) in
  (* Fault-free baseline: the result is never below the fault-free
     diameter. *)
  let best_d = ref (Surviving.evaluator_diameter (Surviving.evaluator compiled)) in
  let best_w = ref [] in
  let evals = ref 1 in
  let restarts_used = ref 0 in
  if f > 0 && total > 0 && config.budget > 0 && config.restarts > 0 then begin
    let sc d = score ~n d in
    let pool_seeds =
      Array.of_list
        (List.filter (fun p -> p <> []) (List.map (List.sort_uniq compare) pools))
    in
    (* Restart seeds are drawn from the caller's RNG up front and each
       restart owns an equal slice of the budget, so restarts are
       independent tasks: the outcome does not depend on [jobs]. *)
    let restarts = config.restarts in
    let seeds = Array.init restarts (fun _ -> Random.State.bits rng) in
    let budgets =
      let base = config.budget / restarts and extra = config.budget mod restarts in
      Array.init restarts (fun i -> base + if i < extra then 1 else 0)
    in
    let active =
      Array.of_list
        (List.filter (fun i -> budgets.(i) > 0) (List.init restarts Fun.id))
    in
    let results =
      Par.run ~jobs ~ntasks:(Array.length active)
        ~init:(fun () -> Surviving.evaluator compiled)
        ~task:(fun ev ti ->
          let i = active.(ti) in
          let pool =
            if i < Array.length pool_seeds then Some pool_seeds.(i) else None
          in
          run_restart ev ~universe ~total ~config ~n ~f ~seed:seeds.(i)
            ~budget:budgets.(i) ~pool)
    in
    restarts_used := Array.length active;
    Array.iter
      (fun r ->
        evals := !evals + r.r_evals;
        Obs.add c_sa_escapes r.r_sa;
        if sc r.r_d > sc !best_d then begin
          best_d := r.r_d;
          best_w := r.r_w
        end)
      results
  end;
  let raw = !best_w in
  let witness, worst, shrink_evals =
    if raw = [] then ([], !best_d, 0) else shrink_ids compiled ~universe ~witness:raw
  in
  evals := !evals + shrink_evals;
  Obs.add c_evals !evals;
  Obs.add c_restarts !restarts_used;
  Obs.add c_shrink_evals shrink_evals;
  Obs.add c_shrink_dropped (max 0 (List.length raw - List.length witness));
  let decode = Surviving.fault_set_of_ids compiled universe in
  {
    worst;
    witness = decode witness;
    raw_witness = decode raw;
    evals = !evals;
    restarts_used = !restarts_used;
  }

let search ?(config = default_config) ?(jobs = Par.recommended_jobs ()) ~rng
    ?(pools = []) ?(universe = Surviving.Nodes) routing ~f =
  let g = Routing.graph routing in
  let n = Graph.n g in
  let compiled = Surviving.compile_cached routing in
  (* The pools are node pools: used verbatim when the universe has
     nodes, and mapped to their incident links when it has links, so
     pool-seeded restarts also attack the links the proofs lean on. *)
  let link_pool pool =
    Surviving.ids_of_fault_set compiled universe
      {
        Surviving.nodes = [];
        links =
          List.concat_map
            (fun v ->
              if v < 0 || v >= n then []
              else Array.to_list (Array.map (fun u -> (u, v)) (Graph.neighbors g v)))
            pool;
      }
  in
  let pools =
    (if universe = Surviving.Links then [] else pools)
    @ if universe = Surviving.Nodes then [] else List.map link_pool pools
  in
  search_core ~config ~jobs ~rng ~pools ~universe compiled ~f

(* ------------------------------------------------------------------ *)
(* Sampled search at scale                                            *)
(* ------------------------------------------------------------------ *)

(* The compiled-evaluator search above materialises every route; a
   10^5-node compact routing cannot. This variant scores a fault set
   by probing a fixed sampled pair set with
   [Surviving.probe_distance] — O(1) state per probe — and
   hill-climbs over single-node swaps. *)

let c_sampled_probes = Obs.counter "attack.sampled.probes"

type sampled_outcome = {
  s_worst : Metrics.distance;
  s_flagged : int;
  s_witness : int list;
  s_pair : (int * int) option;
  s_probes : int;
  s_restarts_used : int;
}

let search_sampled ?(restarts = 4) ?(steps = 60)
    ?(jobs = Par.recommended_jobs ()) ?probe_budget ~rng ?(pools = []) routing
    ~f ~bound ~pairs =
  Obs.with_span "attack.search_sampled" @@ fun () ->
  let g = Routing.graph routing in
  let n = Graph.n g in
  let budget = match probe_budget with Some b -> b | None -> (2 * n) + 1 in
  let f = max 0 (min f (max 0 (n - 2))) in
  let npairs = max 0 pairs in
  (* Pairs are drawn from the caller's RNG before any restart seed, so
     the objective — and hence the outcome — is [jobs]-independent. *)
  let pair_arr =
    Array.init npairs (fun _ ->
        let src = Random.State.int rng n in
        let d = Random.State.int rng (n - 1) in
        (src, if d >= src then d + 1 else d))
  in
  (* Lexicographic objective packed into one int: pairs pushed past the
     bound dominate, the capped distance sum breaks ties. *)
  let cap = bound + 1 in
  let weight = (npairs * cap) + 1 in
  let eval_set faults =
    let flagged = ref 0 and sum = ref 0 in
    let worst = ref (Metrics.Finite 0) and wp = ref None in
    Array.iter
      (fun (src, dst) ->
        (* Tolerance quantifies over non-faulty pairs only: faulting a
           sampled endpoint must not count as disconnecting it. *)
        if not (Bitset.mem faults src || Bitset.mem faults dst) then begin
          let d =
            Surviving.probe_distance routing ~faults ~src ~dst ~bound ~budget
          in
          (match d with
          | Metrics.Infinite ->
              incr flagged;
              sum := !sum + cap
          | Metrics.Finite k -> sum := !sum + k);
          if not (Metrics.distance_le d !worst) then begin
            worst := d;
            wp := Some (src, dst)
          end
        end)
      pair_arr;
    ((!flagged * weight) + !sum, !flagged, !worst, !wp)
  in
  let floyd_subset rst k =
    let chosen = Hashtbl.create (2 * max 1 k) in
    for j = n - k to n - 1 do
      let r = Random.State.int rst (j + 1) in
      let pick = if Hashtbl.mem chosen r then j else r in
      Hashtbl.replace chosen pick ()
    done;
    Hashtbl.fold (fun v () acc -> v :: acc) chosen []
  in
  let pool_seeds =
    Array.of_list
      (List.filter_map
         (fun p ->
           match
             List.filteri
               (fun i _ -> i < f)
               (List.sort_uniq Int.compare
                  (List.filter (fun v -> v >= 0 && v < n) p))
           with
           | [] -> None
           | prefix -> Some prefix)
         pools)
  in
  if f = 0 || npairs = 0 || restarts <= 0 then begin
    let _, flagged, worst, wp = eval_set (Bitset.create n) in
    Obs.add c_sampled_probes npairs;
    {
      s_worst = worst;
      s_flagged = flagged;
      s_witness = [];
      s_pair = wp;
      s_probes = npairs;
      s_restarts_used = 0;
    }
  end
  else begin
    (* Restart seeds drawn up front; each restart owns its RNG, fault
       set and scratch, so restarts are independent [Par] tasks. *)
    let seeds = Array.init restarts (fun _ -> Random.State.bits rng) in
    let run ti =
      let rst = Random.State.make [| seeds.(ti); ti |] in
      let faults = Bitset.create n in
      let members = Array.make f 0 in
      let init =
        if ti < Array.length pool_seeds then pool_seeds.(ti)
        else List.sort Int.compare (floyd_subset rst f)
      in
      let k = ref 0 in
      List.iter
        (fun v ->
          if not (Bitset.mem faults v) then begin
            Bitset.add faults v;
            members.(!k) <- v;
            incr k
          end)
        init;
      (* Pad a short pool prefix up to exactly f faults. *)
      while !k < f do
        let v = Random.State.int rst n in
        if not (Bitset.mem faults v) then begin
          Bitset.add faults v;
          members.(!k) <- v;
          incr k
        end
      done;
      let probes = ref npairs in
      let cur_sc, flagged0, worst0, wp0 = eval_set faults in
      let cur_sc = ref cur_sc in
      let best_sc = ref !cur_sc in
      let best = ref (List.sort Int.compare (Array.to_list members)) in
      let best_fl = ref flagged0 and best_w = ref worst0 and best_p = ref wp0 in
      for _ = 1 to steps do
        let oi = Random.State.int rst f in
        let v = Random.State.int rst n in
        if not (Bitset.mem faults v) then begin
          let out = members.(oi) in
          Bitset.remove faults out;
          Bitset.add faults v;
          members.(oi) <- v;
          probes := !probes + npairs;
          let sc, fl, w, p = eval_set faults in
          (* Accept strict improvements always, plateau moves half the
             time — enough drift to leave flat regions. *)
          if sc > !cur_sc || (sc = !cur_sc && Random.State.bool rst) then begin
            cur_sc := sc;
            if sc > !best_sc then begin
              best_sc := sc;
              best := List.sort Int.compare (Array.to_list members);
              best_fl := fl;
              best_w := w;
              best_p := p
            end
          end
          else begin
            Bitset.remove faults v;
            Bitset.add faults out;
            members.(oi) <- out
          end
        end
      done;
      (!best_sc, !best, !best_fl, !best_w, !best_p, !probes)
    in
    let results =
      Par.run ~jobs ~ntasks:restarts ~init:(fun () -> ()) ~task:(fun () ti -> run ti)
    in
    (* Merge in restart order: ties keep the earlier restart. *)
    let best_sc = ref min_int in
    let best = ref [] and best_fl = ref 0 in
    let best_w = ref (Metrics.Finite 0) and best_p = ref None in
    let probes = ref 0 in
    Array.iter
      (fun (sc, w, fl, d, p, pr) ->
        probes := !probes + pr;
        if sc > !best_sc then begin
          best_sc := sc;
          best := w;
          best_fl := fl;
          best_w := d;
          best_p := p
        end)
      results;
    (* Greedy shrink: drop members (ascending) whose removal keeps the
       score; deterministic, so the witness stays [jobs]-independent. *)
    let faults = Bitset.of_list n !best in
    let kept =
      List.filter
        (fun v ->
          Bitset.remove faults v;
          probes := !probes + npairs;
          let sc, fl, w, p = eval_set faults in
          if sc >= !best_sc then begin
            best_fl := fl;
            best_w := w;
            best_p := p;
            false
          end
          else begin
            Bitset.add faults v;
            true
          end)
        !best
    in
    Obs.add c_sampled_probes !probes;
    {
      s_worst = !best_w;
      s_flagged = !best_fl;
      s_witness = kept;
      s_pair = !best_p;
      s_probes = !probes;
      s_restarts_used = restarts;
    }
  end

(* ------------------------------------------------------------------ *)
(* Witness corpus                                                     *)
(* ------------------------------------------------------------------ *)

module Corpus = struct
  type entry = {
    graph : string;
    strategy : string;
    seed : int;
    n : int;
    f : int;
    faults : int list;
    edges : (int * int) list;
    diameter : Metrics.distance;
    bound : int option;
    found_by : string;
  }

  (* Normalised (min, max) link endpoints, ordered lexicographically. *)
  let edge_compare (u1, v1) (u2, v2) =
    let c = Int.compare u1 u2 in
    if c <> 0 then c else Int.compare v1 v2

  (* Version 1 entries are node-only and carry no "version" field (the
     format predates it); version 2 adds "version" and "edge_faults".
     Writers always stamp the current version; readers accept both and
     reject anything else loudly. *)
  let current_version = 2

  (* The corpus speaks a small JSON subset: null, integers, strings,
     arrays, objects. Hand-rolled like Routing_io so persistence stays
     dependency-free. *)
  type json =
    | Null
    | Int of int
    | Str of string
    | Arr of json list
    | Obj of (string * json) list

  let write_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Str s -> write_string b s
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string b ", ";
            write b v)
          l;
        Buffer.add_char b ']'
    | Obj l ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ", ";
            write_string b k;
            Buffer.add_string b ": ";
            write b v)
          l;
        Buffer.add_char b '}'

  exception Parse of string

  let parse_json text =
    let len = String.length text in
    let pos = ref 0 in
    let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < len then Some text.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let parse_literal word value =
      if !pos + String.length word <= len && String.sub text !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_int () =
      let start = !pos in
      if peek () = Some '-' then advance ();
      let rec digits () =
        match peek () with
        | Some ('0' .. '9') ->
            advance ();
            digits ()
        | _ -> ()
      in
      digits ();
      if !pos = start then fail "expected integer";
      match Decimal.parse ~signed:true (String.sub text start (!pos - start)) with
      | Some i -> Int i
      | None -> fail "bad integer"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' ->
                Buffer.add_char b '"';
                advance ();
                go ()
            | Some '\\' ->
                Buffer.add_char b '\\';
                advance ();
                go ()
            | Some '/' ->
                Buffer.add_char b '/';
                advance ();
                go ()
            | Some 'n' ->
                Buffer.add_char b '\n';
                advance ();
                go ()
            | Some 't' ->
                Buffer.add_char b '\t';
                advance ();
                go ()
            | Some 'r' ->
                Buffer.add_char b '\r';
                advance ();
                go ()
            | _ -> fail "unsupported escape")
        | Some c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
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
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
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
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (items [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 'n' -> parse_literal "null" Null
      | Some _ -> parse_int ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing input";
    v

  let entry_to_json e =
    Obj
      [
        ("version", Int current_version);
        ("graph", Str e.graph);
        ("strategy", Str e.strategy);
        ("seed", Int e.seed);
        ("n", Int e.n);
        ("f", Int e.f);
        ("faults", Arr (List.map (fun v -> Int v) e.faults));
        ("edge_faults", Arr (List.map (fun (u, v) -> Arr [ Int u; Int v ]) e.edges));
        ( "diameter",
          match e.diameter with Metrics.Finite d -> Int d | Metrics.Infinite -> Str "inf" );
        ("bound", match e.bound with Some b -> Int b | None -> Null);
        ("found_by", Str e.found_by);
      ]

  let to_json entries =
    let b = Buffer.create 256 in
    Buffer.add_string b "[";
    List.iteri
      (fun i e ->
        Buffer.add_string b (if i > 0 then ",\n  " else "\n  ");
        write b (entry_to_json e))
      entries;
    Buffer.add_string b "\n]\n";
    Buffer.contents b

  let field obj name =
    match List.assoc_opt name obj with
    | Some v -> v
    | None -> raise (Parse (Printf.sprintf "missing field %S" name))

  let as_int = function
    | Int i -> i
    | _ -> raise (Parse "expected an integer")

  let as_str = function
    | Str s -> s
    | _ -> raise (Parse "expected a string")

  let entry_of_json = function
    | Obj obj ->
        let version =
          match List.assoc_opt "version" obj with
          | None -> 1 (* legacy unstamped entry: node faults only *)
          | Some (Int v) -> v
          | Some _ -> raise (Parse "version must be an integer")
        in
        if version < 1 || version > current_version then
          raise
            (Parse
               (Printf.sprintf
                  "unsupported corpus version %d (this build reads versions 1-%d)"
                  version current_version));
        {
          graph = as_str (field obj "graph");
          strategy = as_str (field obj "strategy");
          seed = as_int (field obj "seed");
          n = as_int (field obj "n");
          f = as_int (field obj "f");
          faults =
            (match field obj "faults" with
            | Arr l -> List.sort Int.compare (List.map as_int l)
            | _ -> raise (Parse "faults must be an array"));
          edges =
            (if version < 2 then []
             else
               match List.assoc_opt "edge_faults" obj with
               | None -> []
               | Some (Arr l) ->
                   List.sort edge_compare
                     (List.map
                        (function
                          | Arr [ Int u; Int v ] -> (min u v, max u v)
                          | _ -> raise (Parse "edge_faults entries must be [u, v] pairs"))
                        l)
               | Some _ -> raise (Parse "edge_faults must be an array"));
          diameter =
            (match field obj "diameter" with
            | Int d -> Metrics.Finite d
            | Str "inf" -> Metrics.Infinite
            | _ -> raise (Parse "diameter must be an integer or \"inf\""));
          bound =
            (match field obj "bound" with
            | Null -> None
            | Int b -> Some b
            | _ -> raise (Parse "bound must be an integer or null"));
          found_by = as_str (field obj "found_by");
        }
    | _ -> raise (Parse "entry must be an object")

  let of_json text =
    try
      match parse_json text with
      | Arr l -> Ok (List.map entry_of_json l)
      | _ -> Error "corpus file must be a JSON array"
    with Parse msg -> Error msg

  let load_file path =
    match In_channel.with_open_text path In_channel.input_all with
    | text -> of_json text
    | exception Sys_error msg -> Error msg

  let save_file path entries =
    let oc = open_out path in
    output_string oc (to_json entries);
    close_out oc

  let load_dir dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then []
    else
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort String.compare
      |> List.map (fun f ->
             let path = Filename.concat dir f in
             (path, load_file path))

  let same_witness a b =
    a.graph = b.graph && a.strategy = b.strategy && a.faults = b.faults
    && a.edges = b.edges

  let add entries e =
    let e =
      {
        e with
        faults = List.sort Int.compare e.faults;
        edges = List.sort edge_compare (List.map (fun (u, v) -> (min u v, max u v)) e.edges);
      }
    in
    if List.exists (same_witness e) entries then (entries, false)
    else (entries @ [ e ], true)

  let replayable entries ~n ~f =
    List.filter_map
      (fun e ->
        if
          e.n = n && e.edges = []
          && List.length e.faults <= f
          && List.for_all (fun v -> v >= 0 && v < n) e.faults
        then Some e.faults
        else None)
      entries
end
