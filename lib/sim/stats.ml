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

let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

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

(* One sort serves every requested percentile. The dropped samples are
   tallied once per percentile, as one sort per percentile used to, so
   the counter JSON of the serve, soak and chaos reports is unchanged. *)
let percentiles_of values ~ps =
  let finite = Array.of_seq (Seq.filter Float.is_finite (Array.to_seq values)) in
  let dropped = Array.length values - Array.length finite in
  if dropped > 0 then Obs.add c_non_finite (dropped * List.length ps);
  Array.sort Float.compare finite;
  List.map (fun p -> if Array.length finite = 0 then None else Some (percentile finite p)) ps

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
