module Obs = Ftr_obs.Obs

let c_non_finite = Obs.counter "stats.non_finite_dropped"

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

(* 0-based index of the nearest-rank [p]-th percentile of [n] sorted
   samples: rank [ceil (p/100 * n)], clamped into range. *)
let rank_index n p =
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  max 0 (min (n - 1) (rank - 1))

let percentile sorted p = sorted.(rank_index (Array.length sorted) p)

(* NaN is both unsortable under polymorphic [compare] (it lands
   anywhere, poisoning every percentile) and absorbing under [+.]
   (mean becomes NaN). A summary must never report one, so non-finite
   samples are dropped up front and tallied on a counter instead. *)
let summarize values =
  let finite, rest = List.partition Float.is_finite values in
  (match rest with [] -> () | dropped -> Obs.add c_non_finite (List.length dropped));
  match finite with
  | [] -> None
  | _ ->
      let sorted = Array.of_list finite in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      let total = Array.fold_left ( +. ) 0.0 sorted in
      Some
        {
          count = n;
          mean = total /. float_of_int n;
          min = sorted.(0);
          max = sorted.(n - 1);
          p50 = percentile sorted 50.0;
          p95 = percentile sorted 95.0;
          p99 = percentile sorted 99.0;
        }

let of_ints values = summarize (List.map float_of_int values)

(* Puts the [k]-th smallest of [a.(0) .. a.(len - 1)] at index [k]
   (Hoare's selection, median-of-three pivot), in expected linear time.
   [a] holds no NaN, so [<] is a total order on it; the float array
   is unboxed and [<] compiles to a float comparison, with no closure
   call. *)
let select (a : float array) ~len k =
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < a.(!lo) then swap mid !lo;
    if a.(!hi) < a.(!lo) then swap !hi !lo;
    if a.(!hi) < a.(mid) then swap !hi mid;
    let pivot = a.(mid) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while pivot < a.(!j) do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    (* a.(lo .. j) <= pivot = a.(j + 1 .. i - 1) <= a.(i .. hi) *)
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done;
  a.(k)

(* One copy of the finite samples serves every requested percentile,
   each read by one selection on it. The dropped samples are tallied
   once per percentile: the counter JSON of the serve, soak and chaos
   reports counts them that way. *)
let percentiles_of ?len values ~ps =
  let len = Option.value len ~default:(Array.length values) in
  let finite = Array.make len 0.0 in
  let m = ref 0 in
  for i = 0 to len - 1 do
    let v = values.(i) in
    if Float.is_finite v then begin
      finite.(!m) <- v;
      incr m
    end
  done;
  let m = !m in
  if m < len then Obs.add c_non_finite ((len - m) * List.length ps);
  List.map (fun p -> if m = 0 then None else Some (select finite ~len:m (rank_index m p))) ps

let histogram ~buckets values =
  let values = List.filter Float.is_finite values in
  match (values, buckets) with
  | [], _ | _, 0 -> []
  | _ ->
      let lo = List.fold_left min infinity values in
      let hi = List.fold_left max neg_infinity values in
      let width = if hi > lo then (hi -. lo) /. float_of_int buckets else 1.0 in
      let counts = Array.make buckets 0 in
      List.iter
        (fun v ->
          let i = min (buckets - 1) (int_of_float ((v -. lo) /. width)) in
          counts.(i) <- counts.(i) + 1)
        values;
      List.init buckets (fun i ->
          ( lo +. (width *. float_of_int i),
            lo +. (width *. float_of_int (i + 1)),
            counts.(i) ))

let pp_summary ppf s =
  Fmt.pf ppf "n=%d mean=%.2f min=%.0f p50=%.0f p95=%.0f p99=%.0f max=%.0f" s.count
    s.mean s.min s.p50 s.p95 s.p99 s.max

type delivery = {
  sent : int;
  delivered : int;
  undeliverable : int;
  dead_letters : int;
  pending : int;
  replans : int;
  latency : summary option;
  replans_per_message : summary option;
}

let delivery_report msgs =
  let count pred = List.length (List.filter pred msgs) in
  {
    sent = List.length msgs;
    delivered = count (fun m -> m.Message.status = Message.Delivered);
    undeliverable = count (fun m -> m.Message.status = Message.Undeliverable);
    dead_letters = count (fun m -> m.Message.status = Message.DeadLetter);
    pending = count (fun m -> m.Message.status = Message.Pending);
    replans = List.fold_left (fun acc m -> acc + m.Message.retries) 0 msgs;
    latency = summarize (List.filter_map Message.latency msgs);
    replans_per_message = of_ints (List.map (fun m -> m.Message.retries) msgs);
  }

let delivery_rate d =
  if d.sent = 0 then 1.0 else float_of_int d.delivered /. float_of_int d.sent

let pp_delivery ppf d =
  Fmt.pf ppf
    "sent=%d delivered=%d (%.1f%%) undeliverable=%d dead-letters=%d pending=%d \
     replans=%d"
    d.sent d.delivered
    (100.0 *. delivery_rate d)
    d.undeliverable d.dead_letters d.pending d.replans;
  match d.latency with
  | Some s -> Fmt.pf ppf "@ latency %a" pp_summary s
  | None -> ()
