(* Sinks: Chrome trace_event JSON, metrics JSON, and a compact aggregate
   text report. All three read the merged quiescent state (Trace.spans /
   Metrics.snapshot) and build Lpp_util.Json trees, so the emitted bytes go
   through the repo's one escaping implementation. *)

open Lpp_util

let ns_to_us ns = Int64.to_float ns /. 1e3

(* ---- Chrome trace_event --------------------------------------------- *)

let span_event (s : Trace.span) =
  let base =
    [
      ("name", Json.String s.name);
      ("cat", Json.String (if s.cat = "" then "lpp" else s.cat));
      ("ph", Json.String "X");
      ("ts", Json.Float (ns_to_us s.ts));
      ("dur", Json.Float (ns_to_us s.dur));
      ("pid", Json.Int 1);
      ("tid", Json.Int s.domain);
    ]
  in
  let args =
    if Array.length s.args = 0 then []
    else
      [
        ( "args",
          Json.Obj
            (Array.to_list
               (Array.map (fun (k, v) -> (k, Json.Float v)) s.args)) );
      ]
  in
  Json.Obj (base @ args)

(* One track per recording domain, named by its [Domain.self] id; the ring
   slot a domain wrote into ([Trace.span.dom]) may have served others. *)
let thread_meta domain =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int domain);
      ( "args",
        Json.Obj [ ("name", Json.String (Printf.sprintf "domain-%d" domain)) ]
      );
    ]

let chrome_trace () =
  let spans = Trace.spans () in
  let domains =
    List.sort_uniq Int.compare
      (List.map (fun (s : Trace.span) -> s.domain) spans)
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map thread_meta domains @ List.map span_event spans) );
      ("displayTimeUnit", Json.String "ms");
      ("droppedSpans", Json.Int (Trace.dropped ()));
    ]

(* ---- metrics JSON --------------------------------------------------- *)

let hist_json (h : Metrics.hist_snapshot) =
  let buckets = ref [] in
  for i = Metrics.bucket_count - 1 downto 0 do
    if h.buckets.(i) > 0 then
      buckets :=
        Json.Obj
          [
            ("lo", Json.Float (Metrics.bucket_lo i));
            ("hi", Json.Float (Metrics.bucket_hi i));
            ("count", Json.Int h.buckets.(i));
          ]
        :: !buckets
  done;
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("sum", Json.Float h.sum);
      ("p50", Json.Float (Metrics.hist_quantile h 0.50));
      ("p90", Json.Float (Metrics.hist_quantile h 0.90));
      ("p99", Json.Float (Metrics.hist_quantile h 0.99));
      ("buckets", Json.List !buckets);
    ]

let metrics_json_of (s : Metrics.snapshot) =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.gauges));
      ( "histograms",
        Json.Obj (List.map (fun (n, h) -> (n, hist_json h)) s.histograms) );
    ]

let metrics_json () = metrics_json_of (Metrics.snapshot ())

(* ---- Prometheus text exposition -------------------------------------- *)

(* https://prometheus.io/docs/instrumenting/exposition_formats/ version
   0.0.4. Metric names: dots (the registry convention) become underscores
   under the [lpp_] prefix; counters get the idiomatic [_total] suffix;
   log2 histograms map to the native histogram text form — cumulative
   [_bucket{le="2^i"}] series plus [_sum]/[_count]. *)

let prom_name name =
  let b = Buffer.create (String.length name + 4) in
  Buffer.add_string b "lpp_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_label_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_number v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let prom_type buf ~name kind =
  Printf.bprintf buf "# TYPE %s %s\n" name
    (match kind with
    | `Counter -> "counter"
    | `Gauge -> "gauge"
    | `Histogram -> "histogram")

let prom_sample buf ~name ?(labels = []) v =
  Buffer.add_string buf name;
  (match labels with
  | [] -> ()
  | labels ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, lv) ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "%s=\"%s\"" k (prom_label_escape lv))
        labels;
      Buffer.add_char buf '}');
  Printf.bprintf buf " %s\n" (prom_number v)

let counter_name name =
  let n = prom_name name in
  if String.length n >= 6 && String.sub n (String.length n - 6) 6 = "_total"
  then n
  else n ^ "_total"

let prom_hist buf name (h : Metrics.hist_snapshot) =
  let name = prom_name name in
  prom_type buf ~name `Histogram;
  let top = ref (-1) in
  Array.iteri (fun i c -> if c > 0 then top := i) h.buckets;
  let cum = ref 0 in
  for i = 0 to !top do
    cum := !cum + h.buckets.(i);
    prom_sample buf ~name:(name ^ "_bucket")
      ~labels:[ ("le", prom_number (Metrics.bucket_hi i)) ]
      (float_of_int !cum)
  done;
  prom_sample buf ~name:(name ^ "_bucket")
    ~labels:[ ("le", "+Inf") ]
    (float_of_int h.count);
  prom_sample buf ~name:(name ^ "_sum") h.sum;
  prom_sample buf ~name:(name ^ "_count") (float_of_int h.count)

let prometheus_of (s : Metrics.snapshot) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (n, v) ->
      let name = counter_name n in
      prom_type buf ~name `Counter;
      prom_sample buf ~name (float_of_int v))
    s.counters;
  List.iter
    (fun (n, v) ->
      let name = prom_name n in
      prom_type buf ~name `Gauge;
      prom_sample buf ~name (float_of_int v))
    s.gauges;
  List.iter (fun (n, h) -> prom_hist buf n h) s.histograms;
  Buffer.contents buf

let prometheus () = prometheus_of (Metrics.snapshot ())

let write path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Json.to_channel oc json;
      output_char oc '\n')

let write_chrome_trace path = write path (chrome_trace ())

let write_metrics path = write path (metrics_json ())

(* ---- text summary --------------------------------------------------- *)

type agg = {
  mutable calls : int;
  mutable total : int64;
  mutable min : int64;
  mutable max : int64;
  mutable durs : float list;  (* exact per-call ns, for true quantiles *)
}

let summary () =
  let buf = Buffer.create 4096 in
  let spans = Trace.spans () in
  let by_name : (string * string, agg) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      let key = (s.cat, s.name) in
      match Hashtbl.find_opt by_name key with
      | Some a ->
          a.calls <- a.calls + 1;
          a.total <- Int64.add a.total s.dur;
          if Int64.compare s.dur a.min < 0 then a.min <- s.dur;
          if Int64.compare s.dur a.max > 0 then a.max <- s.dur;
          a.durs <- Int64.to_float s.dur :: a.durs
      | None ->
          Hashtbl.add by_name key
            {
              calls = 1;
              total = s.dur;
              min = s.dur;
              max = s.dur;
              durs = [ Int64.to_float s.dur ];
            })
    spans;
  let ms ns = Printf.sprintf "%.3f" (Int64.to_float ns /. 1e6) in
  let us ns = Printf.sprintf "%.1f" (Int64.to_float ns /. 1e3) in
  if Hashtbl.length by_name > 0 then begin
    let t =
      Ascii_table.create
        [
          "cat"; "span"; "calls"; "total ms"; "mean µs"; "p50 µs"; "p99 µs";
          "min µs"; "max µs";
        ]
    in
    Hashtbl.fold (fun k a acc -> (k, a) :: acc) by_name []
    |> List.sort (fun ((_, _), a) ((_, _), b) -> Int64.compare b.total a.total)
    |> List.iter (fun ((cat, name), a) ->
           (* exact quantiles: the aggregator kept every sample *)
           let sorted = Array.of_list a.durs in
           Array.sort Float.compare sorted;
           let q p = Printf.sprintf "%.1f" (Quantiles.quantile sorted p /. 1e3) in
           Ascii_table.add_row t
             [
               (if cat = "" then "lpp" else cat);
               name;
               string_of_int a.calls;
               ms a.total;
               us (Int64.div a.total (Int64.of_int a.calls));
               q 0.50;
               q 0.99;
               us a.min;
               us a.max;
             ]);
    Buffer.add_string buf
      (Printf.sprintf "Spans (%d recorded%s)\n" (List.length spans)
         (match Trace.dropped () with
         | 0 -> ""
         | d -> Printf.sprintf ", %d dropped" d));
    Buffer.add_string buf (Ascii_table.render t)
  end
  else Buffer.add_string buf "Spans: none recorded\n";
  let snap = Metrics.snapshot () in
  let nonzero_counters = List.filter (fun (_, v) -> v <> 0) snap.counters in
  if nonzero_counters <> [] then begin
    let t = Ascii_table.create [ "counter"; "value" ] in
    List.iter
      (fun (n, v) -> Ascii_table.add_row t [ n; string_of_int v ])
      nonzero_counters;
    Buffer.add_string buf "\nCounters\n";
    Buffer.add_string buf (Ascii_table.render t)
  end;
  let live_hists =
    List.filter (fun (_, (h : Metrics.hist_snapshot)) -> h.count > 0) snap.histograms
  in
  if live_hists <> [] then begin
    let t =
      Ascii_table.create
        [ "histogram"; "count"; "sum"; "mean"; "~p50"; "~p90"; "~p99" ]
    in
    List.iter
      (fun (n, (h : Metrics.hist_snapshot)) ->
        let q p = Printf.sprintf "%.1f" (Metrics.hist_quantile h p) in
        Ascii_table.add_row t
          [
            n;
            string_of_int h.count;
            Printf.sprintf "%.1f" h.sum;
            Printf.sprintf "%.2f" (h.sum /. float_of_int h.count);
            q 0.50;
            q 0.90;
            q 0.99;
          ])
      live_hists;
    Buffer.add_string buf "\nHistograms\n";
    Buffer.add_string buf (Ascii_table.render t)
  end;
  Buffer.contents buf

let print_summary () = print_string (summary ())
[@@lpp.allow
  "D006 the lpp-trace text sink: the CLI calls this to put the summary on \
   stdout"]
