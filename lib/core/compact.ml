open Ftr_graph

(* Flat re-encoding of an explicit table: routes grouped by source,
   sorted by destination within a source, vertex sequences concatenated
   into one int array. Four flat arrays instead of O(routes) boxed
   paths and hashtable buckets. *)
type packed = {
  p_src_off : int array;  (* length n + 1: entry slice per source *)
  p_dst : int array;      (* destination per entry, sorted per slice *)
  p_path_off : int array; (* length entries + 1: slice into p_vert *)
  p_vert : int array;     (* concatenated route vertex sequences *)
}

(* Rooted-forest routing answered from Euler intervals: next hop toward
   [v] from inside the tree is the parent unless [v] lies in the
   subtree of some child, found by binary search over children ordered
   by preorder interval (the partition-map idiom: children of a vertex
   partition its tin-range, and a dst index selects its cell). *)
type tree = {
  t_parent : int array; (* -1 at roots *)
  t_tin : int array;    (* preorder index *)
  t_tout : int array;   (* max preorder index in subtree *)
  t_child_off : int array;
  t_child : int array;  (* children in preorder (= tin) order *)
}

type scheme =
  | Packed of packed
  | Hypercube of { d : int; bi : bool }
  | De_bruijn of { d : int }
  | Ccc of { d : int }
  | Tree of tree

type t = { n : int; count : int; scheme : scheme }

let n t = t.n
let route_count t = t.count

(* ------------------------------------------------------------------ *)
(* Label-computed routes for the structured families. Each is a pure
   function of the two vertex labels — nothing per-pair is stored. *)

(* Twin of Hypercube_routing.ecube_path: fix differing bits from bit 0
   upward. *)
let ecube_verts ~d ~src ~dst =
  let len = ref 1 in
  let diff = src lxor dst in
  for bit = 0 to d - 1 do
    if diff land (1 lsl bit) <> 0 then incr len
  done;
  let out = Array.make !len src in
  let j = ref 1 in
  let cur = ref src in
  for bit = 0 to d - 1 do
    let mask = 1 lsl bit in
    if !cur land mask <> dst land mask then begin
      cur := !cur lxor mask;
      out.(!j) <- !cur;
      incr j
    end
  done;
  out

(* Cut cycles out of a generated walk, keeping the first occurrence of
   each vertex. Adjacency of consecutive survivors is preserved: when
   positions i+1..j are dropped because seq.(j) = seq.(i), the next
   kept vertex was generated from an occurrence of the same label. *)
let loop_erase seq =
  let pos = Hashtbl.create 16 in
  let out = Array.make (Array.length seq) 0 in
  let len = ref 0 in
  Array.iter
    (fun v ->
      match Hashtbl.find_opt pos v with
      | Some i ->
          for j = i + 1 to !len - 1 do
            Hashtbl.remove pos out.(j)
          done;
          len := i + 1
      | None ->
          Hashtbl.replace pos v !len;
          out.(!len) <- v;
          incr len)
    seq;
  Array.sub out 0 !len

(* Shift-in route on the binary de Bruijn graph: overlap the longest
   suffix of src with a prefix of dst, then shift in the remaining
   bits of dst high-to-low; loop-erase to restore simplicity (the raw
   walk may revisit labels, e.g. around the 0 and 2^d - 1 self-loop
   words). *)
let de_bruijn_verts ~d ~src ~dst =
  let n = 1 lsl d in
  let o = ref (d - 1) in
  while !o > 0 && src land ((1 lsl !o) - 1) <> dst lsr (d - !o) do
    decr o
  done;
  let steps = d - !o in
  let seq = Array.make (steps + 1) src in
  let cur = ref src in
  for j = 1 to steps do
    let b = (dst lsr (steps - j)) land 1 in
    cur := ((!cur lsl 1) land (n - 1)) lor b;
    seq.(j) <- !cur
  done;
  loop_erase seq

(* Cube-connected cycles, vertex (i, x) = x * d + i. Phase 1 walks the
   small cycle forward from the source position, taking the dimension
   edge at every position where the row words differ, stopping at the
   last needed crossing; phase 2 walks the shorter way around the
   cycle to the destination position. Distinct row words keep the two
   phases vertex-disjoint. *)
let ccc_verts ~d ~src ~dst =
  let id i x = (x * d) + i in
  let si = src mod d and sx = src / d in
  let di = dst mod d and dx = dst / d in
  let diff = sx lxor dx in
  let acc = ref [ id si sx ] in
  let pos = ref si and cur_x = ref sx in
  if diff <> 0 then begin
    let last_off = ref 0 in
    for t = 0 to d - 1 do
      if diff land (1 lsl ((si + t) mod d)) <> 0 then last_off := t
    done;
    for t = 0 to !last_off do
      let k = (si + t) mod d in
      if t > 0 then acc := id k !cur_x :: !acc;
      pos := k;
      if diff land (1 lsl k) <> 0 then begin
        cur_x := !cur_x lxor (1 lsl k);
        acc := id k !cur_x :: !acc
      end
    done
  end;
  let fwd = (di - !pos + d) mod d and bwd = (!pos - di + d) mod d in
  let step = if fwd <= bwd then 1 else d - 1 in
  while !pos <> di do
    pos := (!pos + step) mod d;
    acc := id !pos !cur_x :: !acc
  done;
  Array.of_list (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Tree interval scheme. *)

let tree_in_subtree tr anc v =
  tr.t_tin.(anc) <= tr.t_tin.(v) && tr.t_tout.(v) <= tr.t_tout.(anc)

(* The child of [u] whose preorder interval contains tin v, or -1.
   Children are in increasing-tin order, so their intervals partition
   [tin u + 1, tout u] and binary search lands in the right cell. *)
let tree_child_toward tr u v =
  let tv = tr.t_tin.(v) in
  let lo = ref tr.t_child_off.(u) and hi = ref (tr.t_child_off.(u + 1) - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = tr.t_child.(mid) in
    if tv < tr.t_tin.(c) then hi := mid - 1
    else if tv > tr.t_tout.(c) then lo := mid + 1
    else begin
      found := c;
      lo := !hi + 1
    end
  done;
  !found

let tree_same_component tr u v =
  (* ascend u to its root, then interval-test v *)
  let r = ref u in
  while tr.t_parent.(!r) >= 0 do
    r := tr.t_parent.(!r)
  done;
  tree_in_subtree tr !r v

let tree_verts tr u v =
  if not (tree_same_component tr u v) then None
  else begin
    (* up from u while v is outside the current subtree, then descend
       by interval search: each step picks the child cell whose
       preorder interval contains tin v *)
    let up = ref [] and cur = ref u in
    while not (tree_in_subtree tr !cur v) do
      up := !cur :: !up;
      cur := tr.t_parent.(!cur)
    done;
    let down = ref [] in
    let w = ref !cur in
    while !w <> v do
      let c = tree_child_toward tr !w v in
      if c < 0 then invalid_arg "Compact: corrupt tree intervals";
      down := c :: !down;
      w := c
    done;
    Some (Array.of_list (List.rev_append !up (!cur :: List.rev !down)))
  end

(* ------------------------------------------------------------------ *)

let find t src dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src = dst then None
  else
    match t.scheme with
    | Packed p ->
        let lo = ref p.p_src_off.(src) and hi = ref (p.p_src_off.(src + 1) - 1) in
        let entry = ref (-1) in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          let d = p.p_dst.(mid) in
          if d = dst then begin
            entry := mid;
            lo := !hi + 1
          end
          else if d < dst then lo := mid + 1
          else hi := mid - 1
        done;
        if !entry < 0 then None
        else
          let e = !entry in
          Some
            (Path.of_array
               (Array.sub p.p_vert p.p_path_off.(e)
                  (p.p_path_off.(e + 1) - p.p_path_off.(e))))
    | Hypercube { d; bi } ->
        if bi && src > dst then
          Some (Path.rev (Path.of_array (ecube_verts ~d ~src:dst ~dst:src)))
        else Some (Path.of_array (ecube_verts ~d ~src ~dst))
    | De_bruijn { d } -> Some (Path.of_array (de_bruijn_verts ~d ~src ~dst))
    | Ccc { d } -> Some (Path.of_array (ccc_verts ~d ~src ~dst))
    | Tree tr -> Option.map Path.of_array (tree_verts tr src dst)

let mem t src dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src = dst then false
  else
    match t.scheme with
    | Packed _ | Tree _ -> Option.is_some (find t src dst)
    | Hypercube _ | De_bruijn _ | Ccc _ -> true

let iter f t =
  match t.scheme with
  | Packed p ->
      for src = 0 to t.n - 1 do
        for e = p.p_src_off.(src) to p.p_src_off.(src + 1) - 1 do
          f src p.p_dst.(e)
            (Path.of_array
               (Array.sub p.p_vert p.p_path_off.(e)
                  (p.p_path_off.(e + 1) - p.p_path_off.(e))))
        done
      done
  | Hypercube _ | De_bruijn _ | Ccc _ | Tree _ ->
      for src = 0 to t.n - 1 do
        for dst = 0 to t.n - 1 do
          if src <> dst then
            match find t src dst with Some p -> f src dst p | None -> ()
        done
      done

let words_of_arrays arrays =
  List.fold_left (fun acc a -> acc + Array.length a + 1) 0 arrays

let bytes t =
  let words =
    match t.scheme with
    | Packed p -> words_of_arrays [ p.p_src_off; p.p_dst; p.p_path_off; p.p_vert ]
    | Hypercube _ | De_bruijn _ | Ccc _ -> 2
    | Tree tr ->
        words_of_arrays
          [ tr.t_parent; tr.t_tin; tr.t_tout; tr.t_child_off; tr.t_child ]
  in
  (words + 4) * (Sys.word_size / 8)

let scheme_name t =
  match t.scheme with
  | Packed _ -> "packed"
  | Hypercube { bi; _ } -> if bi then "hypercube-bi" else "hypercube"
  | De_bruijn _ -> "debruijn"
  | Ccc _ -> "ccc"
  | Tree _ -> "tree"

(* ------------------------------------------------------------------ *)
(* Constructors. *)

let pack ~n iter_routes =
  let entries = ref [] in
  let count = ref 0 in
  iter_routes (fun src dst p ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg "Compact.pack: route endpoint out of range";
      entries := (src, dst, Path.to_array p) :: !entries;
      incr count);
  let arr = Array.of_list !entries in
  Array.sort
    (fun (s1, d1, _) (s2, d2, _) ->
      if s1 <> s2 then Int.compare s1 s2 else Int.compare d1 d2)
    arr;
  let entries_n = Array.length arr in
  let p_src_off = Array.make (n + 1) 0 in
  Array.iter (fun (s, _, _) -> p_src_off.(s + 1) <- p_src_off.(s + 1) + 1) arr;
  for i = 0 to n - 1 do
    p_src_off.(i + 1) <- p_src_off.(i + 1) + p_src_off.(i)
  done;
  let p_dst = Array.make (max 1 entries_n) 0 in
  let p_path_off = Array.make (entries_n + 1) 0 in
  Array.iteri
    (fun e (s, d, verts) ->
      if e > 0 then begin
        let s', d', _ = arr.(e - 1) in
        if s = s' && d = d' then
          invalid_arg
            (Printf.sprintf "Compact.pack: duplicate route for (%d,%d)" s d)
      end;
      p_dst.(e) <- d;
      p_path_off.(e + 1) <- p_path_off.(e) + Array.length verts)
    arr;
  let p_vert = Array.make (max 1 p_path_off.(entries_n)) 0 in
  Array.iteri
    (fun e (_, _, verts) ->
      Array.blit verts 0 p_vert p_path_off.(e) (Array.length verts))
    arr;
  {
    n;
    count = entries_n;
    scheme = Packed { p_src_off; p_dst; p_path_off; p_vert };
  }

let all_pairs_count n = n * (n - 1)

let hypercube ?(bidirectional = false) d =
  if d < 1 || d > 20 then invalid_arg "Compact.hypercube: d out of [1,20]";
  let n = 1 lsl d in
  { n; count = all_pairs_count n; scheme = Hypercube { d; bi = bidirectional } }

let de_bruijn d =
  if d < 2 || d > 24 then invalid_arg "Compact.de_bruijn: d out of [2,24]";
  let n = 1 lsl d in
  { n; count = all_pairs_count n; scheme = De_bruijn { d } }

let ccc d =
  if d < 3 || d >= 20 then invalid_arg "Compact.ccc: d out of [3,20)";
  let n = d * (1 lsl d) in
  { n; count = all_pairs_count n; scheme = Ccc { d } }

let tree_of_parents ~parent =
  let n = Array.length parent in
  let t_child_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun v p ->
      if p >= n || (p < 0 && p <> -1) then
        invalid_arg "Compact.tree_of_parents: parent out of range";
      if p = v then invalid_arg "Compact.tree_of_parents: self-parent";
      if p >= 0 then t_child_off.(p + 1) <- t_child_off.(p + 1) + 1)
    parent;
  for v = 0 to n - 1 do
    t_child_off.(v + 1) <- t_child_off.(v + 1) + t_child_off.(v)
  done;
  let t_child = Array.make (max 1 t_child_off.(n)) 0 in
  let cursor = Array.copy t_child_off in
  (* scanning v ascending keeps each child row sorted by child id;
     preorder below visits rows left to right, so t_child is also in
     tin order *)
  Array.iteri
    (fun v p ->
      if p >= 0 then begin
        t_child.(cursor.(p)) <- v;
        cursor.(p) <- cursor.(p) + 1
      end)
    parent;
  let t_tin = Array.make n (-1) in
  let t_tout = Array.make n (-1) in
  let clock = ref 0 in
  let stack = Array.make (max 1 n) 0 in
  let routable = ref 0 in
  for r = 0 to n - 1 do
    if parent.(r) = -1 then begin
      (* iterative preorder; tout filled on the way back via a second
         sweep over the subtree interval *)
      let top = ref 0 in
      stack.(0) <- r;
      top := 1;
      let first = !clock in
      while !top > 0 do
        decr top;
        let v = stack.(!top) in
        t_tin.(v) <- !clock;
        incr clock;
        (* push children in reverse so preorder visits them in id order *)
        for i = t_child_off.(v + 1) - 1 downto t_child_off.(v) do
          stack.(!top) <- t_child.(i);
          incr top
        done
      done;
      let size = !clock - first in
      routable := !routable + (size * (size - 1))
    end
  done;
  if !clock <> n then
    invalid_arg "Compact.tree_of_parents: parent array contains a cycle";
  (* tout.(v) = max tin in subtree(v): process vertices in reverse tin
     order, propagating to parents *)
  let by_tin = Array.make n 0 in
  Array.iteri (fun v tin -> by_tin.(tin) <- v) t_tin;
  for i = n - 1 downto 0 do
    let v = by_tin.(i) in
    if t_tout.(v) < t_tin.(v) then t_tout.(v) <- t_tin.(v);
    let p = parent.(v) in
    if p >= 0 && t_tout.(p) < t_tout.(v) then t_tout.(p) <- t_tout.(v)
  done;
  {
    n;
    count = !routable;
    scheme = Tree { t_parent = Array.copy parent; t_tin; t_tout; t_child_off; t_child };
  }

let bfs_tree g ~root =
  let csr = Graph.csr g in
  let off = Graph.Csr.offsets csr and tgt = Graph.Csr.targets csr in
  let n = Graph.Csr.n csr in
  let parent = Array.make n (-1) in
  let seen = Array.make (max 1 n) false in
  let queue = Array.make (max 1 n) 0 in
  let grow src =
    seen.(src) <- true;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for i = off.(u) to off.(u + 1) - 1 do
        let v = tgt.(i) in
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done
  in
  if n > 0 then begin
    if root < 0 || root >= n then invalid_arg "Compact.bfs_tree: root out of range";
    grow root;
    for v = 0 to n - 1 do
      if not seen.(v) then grow v
    done
  end;
  tree_of_parents ~parent

(* ------------------------------------------------------------------ *)
(* Specs: the one-token serial form used by Routing_io headers. *)

let spec t =
  match t.scheme with
  | Packed _ -> None
  | Hypercube { d; bi } ->
      Some (Printf.sprintf "hypercube:%d%s" d (if bi then ":bi" else ""))
  | De_bruijn { d } -> Some (Printf.sprintf "debruijn:%d" d)
  | Ccc { d } -> Some (Printf.sprintf "ccc:%d" d)
  | Tree tr ->
      Some
        (Printf.sprintf "tree:%s"
           (String.concat ","
              (Array.to_list (Array.map string_of_int tr.t_parent))))

let of_spec ~n s =
  let check c =
    if c.n <> n then
      Error (Printf.sprintf "compact spec is for n=%d, graph has n=%d" c.n n)
    else Ok c
  in
  let with_int name rest k =
    match Decimal.parse rest with
    | Some d -> ( try check (k d) with Invalid_argument m -> Error m)
    | None -> Error (Printf.sprintf "bad %s dimension %S" name rest)
  in
  match String.split_on_char ':' s with
  | [ "hypercube"; d ] -> with_int "hypercube" d (fun d -> hypercube d)
  | [ "hypercube"; d; "bi" ] ->
      with_int "hypercube" d (fun d -> hypercube ~bidirectional:true d)
  | [ "debruijn"; d ] -> with_int "debruijn" d de_bruijn
  | [ "ccc"; d ] -> with_int "ccc" d ccc
  | [ "tree"; parents ] -> (
      match Decimal.parse_list ~signed:true ',' parents with
      | None -> Error "bad tree parent list"
      | Some parent -> (
          try check (tree_of_parents ~parent:(Array.of_list parent))
          with Invalid_argument m -> Error m))
  | _ -> Error (Printf.sprintf "unknown compact scheme %S" s)
