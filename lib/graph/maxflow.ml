(* Flat arc storage: arc [a] runs to [eto.(a)] with residual capacity
   [ecap.(a)]; arcs come in forward/reverse pairs [2i], [2i+1], so
   edge [i]'s flow is its reverse arc's residual capacity. Each node's
   arcs form an intrusive list [head.(v)], [enext.(a)], ... ending at
   [-1], newest first. The level, current-arc and queue buffers are
   allocated once per network and reused by every phase and run. *)
type t = {
  n : int;
  mutable eto : int array;
  mutable ecap : int array;
  mutable ebase : int array; (* capacity as added, restored by [reset] *)
  mutable enext : int array;
  mutable count : int; (* arcs stored; forward/reverse pairs, so even *)
  head : int array;
  level : int array;
  cur : int array; (* Dinic current-arc pointer per node *)
  queue : int array;
}

let create n =
  {
    n;
    eto = Array.make 16 0;
    ecap = Array.make 16 0;
    ebase = Array.make 16 0;
    enext = Array.make 16 0;
    count = 0;
    head = Array.make n (-1);
    level = Array.make n (-1);
    cur = Array.make n (-1);
    queue = Array.make n 0;
  }

let check_node t v =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Maxflow: node %d out of [0,%d)" v t.n)

let check_edge name t i =
  if i < 0 || (2 * i) + 1 >= t.count then
    invalid_arg (Printf.sprintf "Maxflow.%s: bad edge index" name)

let grow t =
  let cap = Array.length t.eto in
  if t.count + 2 > cap then begin
    let extend a = Array.append a (Array.make cap 0) in
    t.eto <- extend t.eto;
    t.ecap <- extend t.ecap;
    t.ebase <- extend t.ebase;
    t.enext <- extend t.enext
  end

let add_arc t src dst cap =
  grow t;
  let a = t.count in
  t.eto.(a) <- dst;
  t.ecap.(a) <- cap;
  t.ebase.(a) <- cap;
  t.enext.(a) <- t.head.(src);
  t.head.(src) <- a;
  t.count <- a + 1

let add_edge t ~src ~dst ~cap =
  check_node t src;
  check_node t dst;
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  add_arc t src dst cap;
  add_arc t dst src 0

let reset t = Array.blit t.ebase 0 t.ecap 0 t.count

let set_capacity t i cap =
  check_edge "set_capacity" t i;
  if cap < 0 then invalid_arg "Maxflow.set_capacity: negative capacity";
  t.ecap.(2 * i) <- cap;
  t.ecap.((2 * i) + 1) <- 0

(* Level graph by BFS from [src]. Once [dst] has a level, nodes at or
   past it cannot reach [dst] along level+1 arcs, so the search stops
   as soon as the next node to expand is that deep. *)
let bfs_levels t src dst =
  let level = t.level and queue = t.queue in
  Array.fill level 0 t.n (-1);
  level.(src) <- 0;
  queue.(0) <- src;
  let qhead = ref 0 and qtail = ref 1 in
  while
    !qhead < !qtail && (level.(dst) < 0 || level.(queue.(!qhead)) < level.(dst))
  do
    let u = queue.(!qhead) in
    incr qhead;
    let a = ref t.head.(u) in
    while !a >= 0 do
      let v = t.eto.(!a) in
      if t.ecap.(!a) > 0 && level.(v) < 0 then begin
        level.(v) <- level.(u) + 1;
        queue.(!qtail) <- v;
        incr qtail
      end;
      a := t.enext.(!a)
    done
  done;
  level.(dst) >= 0

(* Blocking-flow DFS: advance [u]'s current arc past every arc that
   cannot carry flow to [dst] in the level graph; stay on an arc that
   just did, since it may carry more. *)
let rec dfs t dst u pushed =
  if u = dst then pushed
  else begin
    let sent = ref 0 in
    let searching = ref true in
    while !searching do
      let a = t.cur.(u) in
      if a < 0 then searching := false
      else begin
        let v = t.eto.(a) in
        let c = t.ecap.(a) in
        let d =
          if c > 0 && t.level.(v) = t.level.(u) + 1 then
            dfs t dst v (if pushed < c then pushed else c)
          else 0
        in
        if d > 0 then begin
          t.ecap.(a) <- t.ecap.(a) - d;
          t.ecap.(a lxor 1) <- t.ecap.(a lxor 1) + d;
          sent := d;
          searching := false
        end
        else t.cur.(u) <- t.enext.(a)
      end
    done;
    !sent
  end

let max_flow t ~src ~dst ?(limit = max_int) () =
  check_node t src;
  check_node t dst;
  if src = dst then invalid_arg "Maxflow.max_flow: src = dst";
  let total = ref 0 in
  while !total < limit && bfs_levels t src dst do
    Array.blit t.head 0 t.cur 0 t.n;
    let pushing = ref true in
    while !pushing && !total < limit do
      let d = dfs t dst src (limit - !total) in
      if d > 0 then total := !total + d else pushing := false
    done
  done;
  !total

let flow_on t i =
  check_edge "flow_on" t i;
  t.ecap.((2 * i) + 1)

let rec take_from t a =
  if a < 0 then -1
  else if a land 1 = 0 && t.ecap.(a + 1) > 0 then begin
    t.ecap.(a + 1) <- t.ecap.(a + 1) - 1;
    t.ecap.(a) <- t.ecap.(a) + 1;
    t.eto.(a)
  end
  else take_from t t.enext.(a)

let take_unit t v =
  check_node t v;
  take_from t t.head.(v)

let min_cut_side t ~src =
  check_node t src;
  let side = Bitset.create t.n in
  let queue = t.queue in
  Bitset.add side src;
  queue.(0) <- src;
  let qhead = ref 0 and qtail = ref 1 in
  while !qhead < !qtail do
    let u = queue.(!qhead) in
    incr qhead;
    let a = ref t.head.(u) in
    while !a >= 0 do
      let v = t.eto.(!a) in
      if t.ecap.(!a) > 0 && not (Bitset.mem side v) then begin
        Bitset.add side v;
        queue.(!qtail) <- v;
        incr qtail
      end;
      a := t.enext.(!a)
    done
  done;
  side
