(* Process-global observability registry.

   Counters are sharded over a small fixed array of atomics indexed by
   the recording domain's id, so concurrent domains do not serialise
   on one cache line; the read side sums the shards. Integer addition
   commutes, so shard totals — and therefore the emitted counter
   values — do not depend on which domain recorded which event. That
   is what keeps counter output identical for every [--jobs] value
   provided the instrumented quantities themselves are
   schedule-independent (the library's documented contract).

   Spans and gauges are allowed to be schedule-dependent, so they take
   the simple route: a mutex-protected hashtable of aggregates. Span
   recording happens once per completed span, never inside a hot
   loop, so the mutex is uncontended in practice. *)

let shard_count = 8 (* power of two; domains hash by id *)

type counter = int Atomic.t array
type gauge = float Atomic.t

let enabled_flag = Atomic.make false
let trace_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag
let set_trace b = Atomic.set trace_flag b

let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16

type span_cell = { mutable s_count : int; mutable s_total : float }

let spans_tbl : (string, span_cell) Hashtbl.t = Hashtbl.create 16

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
          let c = Array.init shard_count (fun _ -> Atomic.make 0) in
          Hashtbl.add counters_tbl name c;
          c)

let shard () = (Domain.self () :> int) land (shard_count - 1)
let add c k = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.(shard ()) k)
let incr c = add c 1
let value c = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt gauges_tbl name with
      | Some g -> g
      | None ->
          let g = Atomic.make 0.0 in
          Hashtbl.add gauges_tbl name g;
          g)

let set_gauge g v = if Atomic.get enabled_flag then Atomic.set g v

let rec cas_update g f =
  let cur = Atomic.get g in
  if not (Atomic.compare_and_set g cur (f cur)) then cas_update g f

let add_gauge g v = if Atomic.get enabled_flag then cas_update g (fun cur -> cur +. v)
let max_gauge g v = if Atomic.get enabled_flag then cas_update g (fun cur -> Float.max cur v)

(* Span clock: [Unix.gettimeofday] is the only sub-second clock in the
   distribution without extra dependencies, and it is NOT monotonic —
   an NTP step mid-span can make [now () -. t0] negative. Durations
   are therefore clamped at zero on entry to [record_span], and every
   clamp is tallied on the "obs.spans_clamped" gauge (a gauge, not a
   counter: clock steps are environment events, not a function of the
   requested work, so the determinism rule keeps them out of the
   counter output). Spans feed human-facing timings only, never the
   deterministic counter output, so wall-clock granularity is
   acceptable once negative durations cannot corrupt the totals. *)
let now = Unix.gettimeofday
let g_spans_clamped = gauge "obs.spans_clamped"

let record_span name dt =
  if Atomic.get enabled_flag then begin
    let dt =
      if dt < 0.0 then begin
        add_gauge g_spans_clamped 1.0;
        0.0
      end
      else dt
    in
    locked (fun () ->
        let cell =
          match Hashtbl.find_opt spans_tbl name with
          | Some c -> c
          | None ->
              let c = { s_count = 0; s_total = 0.0 } in
              Hashtbl.add spans_tbl name c;
              c
        in
        cell.s_count <- cell.s_count + 1;
        cell.s_total <- cell.s_total +. dt)
  end

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let dt = now () -. t0 in
        record_span name dt;
        if Atomic.get trace_flag then
          Printf.eprintf "[obs] %-36s %9.3f ms\n%!" name (Float.max 0.0 dt *. 1000.0))
  end

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ c -> Array.iter (fun cell -> Atomic.set cell 0) c)
        counters_tbl;
      Hashtbl.iter (fun _ g -> Atomic.set g 0.0) gauges_tbl;
      Hashtbl.reset spans_tbl)

let by_name (a, _) (b, _) = compare a b

(* [List.sort] at the call, where the lint's L6 pass sees the
   Hashtbl order erased before the names reach {!counters_json}. *)
let counters () =
  List.sort by_name
    (locked (fun () -> Hashtbl.fold (fun k c acc -> (k, value c) :: acc) counters_tbl []))

let gauges () =
  List.sort by_name
    (locked (fun () ->
         Hashtbl.fold (fun k g acc -> (k, Atomic.get g) :: acc) gauges_tbl []))

let spans () =
  locked (fun () ->
      Hashtbl.fold (fun k c acc -> (k, c.s_count, c.s_total) :: acc) spans_tbl [])
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* Counter/gauge/span names are code-controlled ASCII identifiers,
   but the repo's one JSON codec quotes them anyway, so the sink always
   emits valid JSON. *)
module Sjson = Ftr_json.Sjson

let counters_json () =
  let b = Buffer.create 512 in
  Sjson.write ~spaced:true b
    (Obj (List.map (fun (name, v) -> (name, Sjson.Int v)) (counters ())));
  Buffer.contents b

let to_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"ftr-metrics/1\",\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b (if i > 0 then ",\n    " else "\n    ");
      Buffer.add_string b (Sjson.to_string (Str name));
      Buffer.add_string b ": ";
      Buffer.add_string b (string_of_int v))
    (counters ());
  Buffer.add_string b "\n  },\n  \"gauges\": {";
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b (if i > 0 then ",\n    " else "\n    ");
      Buffer.add_string b (Sjson.to_string (Str name));
      Buffer.add_string b (Printf.sprintf ": %.6f" v))
    (gauges ());
  Buffer.add_string b "\n  },\n  \"spans\": {";
  List.iteri
    (fun i (name, count, total) ->
      Buffer.add_string b (if i > 0 then ",\n    " else "\n    ");
      Buffer.add_string b (Sjson.to_string (Str name));
      Buffer.add_string b
        (Printf.sprintf ": { \"count\": %d, \"total_ms\": %.3f }" count (total *. 1000.0)))
    (spans ());
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b
