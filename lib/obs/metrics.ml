(* Metrics registry: named counters, gauges and fixed-bucket log-scale
   histograms.

   Writes go to lock-free per-domain shards: each domain holds (via
   Domain.DLS) an array of cells indexed by metric id, so an increment is
   one DLS lookup plus plain int stores — no atomics, no contention. Shards
   register themselves under a mutex on first use; reads ([value],
   [snapshot]) merge all shards. A shard belongs to one live domain at a
   time: when its domain exits, [Domain.at_exit] puts it on a free list and
   the next domain that records takes it over, counts included, so pool
   domains spawned afresh on every call add no shards. A gauge keeps the
   exited owner's last value as its floor, so the merged gauge stays the
   max over domains. Word-sized loads cannot tear in OCaml, so reading
   concurrently with writers yields a momentary but valid view; exact
   totals require the workload to be quiescent, which is when the CLI
   sinks run.

   Registration ([counter] / [gauge] / [histogram]) is idempotent by name
   and mutex-guarded; call it at module initialisation, not on hot paths. *)

type kind = Counter | Gauge | Histogram

type metric = { id : int; name : string; kind : kind }

type counter = metric

type gauge = metric

type histogram = metric

(* Histogram shape: bucket 0 holds values <= 1 (and everything non-positive
   or NaN); bucket i in 1..62 holds values in (2^(i-1), 2^i]; bucket 63 is
   the overflow. Fixed for every histogram so shards merge by plain array
   addition. *)
let bucket_count = 64

let bucket_of x =
  if not (x > 1.0) then 0
  else if x = Float.infinity then bucket_count - 1
  else begin
    (* x = m·2^e with m ∈ [0.5, 1): x ∈ (2^(e-1), 2^e] after nudging exact
       powers of two down into their closed-upper bucket *)
    let m, e = Float.frexp x in
    let e = if m = 0.5 then e - 1 else e in
    if e > bucket_count - 1 then bucket_count - 1 else e
  end

let bucket_lo i = if i = 0 then 0.0 else 2.0 ** float_of_int (i - 1)

let bucket_hi i = 2.0 ** float_of_int i

(* ---- registry ------------------------------------------------------- *)

let mutex = Mutex.create ()

let by_name : (string, metric) Hashtbl.t = Hashtbl.create 64
[@@lpp.domain_safe "registry table; every access holds [mutex]"]

let metrics : metric list ref = ref []
[@@lpp.domain_safe "registry list; every access holds [mutex]"]

let metric_count = ref 0
[@@lpp.domain_safe "guarded by [mutex]"]

let register kind name =
  Lpp_util.Sync.with_lock mutex (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some m ->
          if m.kind <> kind then
            invalid_arg
              (Printf.sprintf "Metrics: %S already registered with another kind"
                 name);
          m
      | None ->
          let m = { id = !metric_count; name; kind } in
          incr metric_count;
          Hashtbl.add by_name name m;
          metrics := m :: !metrics;
          m)

let counter name : counter = register Counter name

let gauge name : gauge = register Gauge name

let histogram name : histogram = register Histogram name

(* ---- per-domain shards ---------------------------------------------- *)

type cell = {
  mutable v : int;  (* counter total / gauge value / histogram count *)
  mutable sum : float;  (* histograms only *)
  mutable hist : int array;  (* [||] unless the metric is a histogram *)
  mutable floor : int;  (* gauges only: max last value of earlier owners *)
}

type shard = { mutable cells : cell option array }

let shards : shard list ref = ref []
[@@lpp.domain_safe
  "shard registry: registration holds [mutex]; merged reads assume \
   quiescence (see module header)"]

let free : shard list ref = ref []
[@@lpp.domain_safe "shards of exited domains; guarded by [mutex]"]

let make_shard () =
  let sh =
    Lpp_util.Sync.with_lock mutex (fun () ->
        match !free with
        | sh :: rest ->
            free := rest;
            sh
        | [] ->
            let sh = { cells = Array.make 64 None } in
            shards := sh :: !shards;
            sh)
  in
  Domain.at_exit (fun () ->
      Lpp_util.Sync.with_lock mutex (fun () ->
          Array.iter (Option.iter (fun c -> c.floor <- max c.floor c.v)) sh.cells;
          free := sh :: !free));
  sh

let shard_key = Domain.DLS.new_key make_shard

let cell (m : metric) =
  let sh = Domain.DLS.get shard_key in
  if m.id >= Array.length sh.cells then begin
    let fresh = Array.make (max (m.id + 1) (2 * Array.length sh.cells)) None in
    Array.blit sh.cells 0 fresh 0 (Array.length sh.cells);
    sh.cells <- fresh
  end;
  match sh.cells.(m.id) with
  | Some c -> c
  | None ->
      let c =
        {
          v = 0;
          sum = 0.0;
          hist =
            (match m.kind with
            | Histogram -> Array.make bucket_count 0
            | Counter | Gauge -> [||]);
          floor = 0;
        }
      in
      sh.cells.(m.id) <- Some c;
      c

(* Writers check the global switch themselves so cold call sites stay a bare
   [Metrics.incr c]; hot paths additionally hide the whole instrumented
   block behind [Obs.enabled]. *)

let incr c = if Flag.enabled () then (let cl = cell c in cl.v <- cl.v + 1)

let add c n = if Flag.enabled () then (let cl = cell c in cl.v <- cl.v + n)

let set g x = if Flag.enabled () then (cell g).v <- x

let observe h x =
  if Flag.enabled () then begin
    let cl = cell h in
    cl.v <- cl.v + 1;
    cl.sum <- cl.sum +. x;
    cl.hist.(bucket_of x) <- cl.hist.(bucket_of x) + 1
  end

(* ---- merged reads --------------------------------------------------- *)

let fold_cells (m : metric) ~init ~f =
  Lpp_util.Sync.with_lock mutex (fun () ->
      List.fold_left
        (fun acc sh ->
          if m.id < Array.length sh.cells then
            match sh.cells.(m.id) with Some c -> f acc c | None -> acc
          else acc)
        init !shards)

let value (m : metric) =
  match m.kind with
  | Counter | Histogram -> fold_cells m ~init:0 ~f:(fun acc c -> acc + c.v)
  | Gauge -> fold_cells m ~init:0 ~f:(fun acc c -> max acc (max c.floor c.v))

let gauge_value = value

type hist_snapshot = { count : int; sum : float; buckets : int array }

let hist_value (m : metric) =
  fold_cells m
    ~init:{ count = 0; sum = 0.0; buckets = Array.make bucket_count 0 }
    ~f:(fun acc c ->
      Array.iteri (fun i n -> acc.buckets.(i) <- acc.buckets.(i) + n) c.hist;
      { acc with count = acc.count + c.v; sum = acc.sum +. c.sum })

(* Quantiles derived from the log2 buckets: find the bucket holding rank
   ⌈p·count⌉ and interpolate geometrically inside it (linearly inside
   bucket 0, which spans (0, 1]). Exact to within one bucket — a factor of
   2 — which is plenty for latency reporting. *)
let hist_quantile (h : hist_snapshot) p =
  if h.count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p *. float_of_int h.count)) in
      if r < 1 then 1 else if r > h.count then h.count else r
    in
    let cum = ref 0 and i = ref 0 in
    (* [incr] here is this module's counter incr, hence the explicit update *)
    while !cum + h.buckets.(!i) < rank do
      cum := !cum + h.buckets.(!i);
      i := !i + 1
    done;
    let frac = float_of_int (rank - !cum) /. float_of_int h.buckets.(!i) in
    if !i = 0 then frac else bucket_lo !i *. (2.0 ** frac)
  end

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_snapshot) list;
}

let snapshot () =
  let all = Lpp_util.Sync.with_lock mutex (fun () -> List.rev !metrics) in
  let by_kind k = List.filter (fun m -> m.kind = k) all in
  let named f ms =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun m -> (m.name, f m)) ms)
  in
  {
    counters = named value (by_kind Counter);
    gauges = named value (by_kind Gauge);
    histograms = named hist_value (by_kind Histogram);
  }

let reset () =
  Lpp_util.Sync.with_lock mutex (fun () ->
      List.iter
        (fun sh ->
          Array.iter
            (function
              | None -> ()
              | Some c ->
                  c.v <- 0;
                  c.floor <- 0;
                  c.sum <- 0.0;
                  Array.fill c.hist 0 (Array.length c.hist) 0)
            sh.cells)
        !shards)
