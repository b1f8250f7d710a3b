(* Span recorder for the traced run. Spans are recorded only from the
   benchmark's own files, around its calls into each layer: name, start,
   end, parent span and request id. They stay in memory (parallel growable
   arrays, no per-span record) and are written as a Chrome trace when the
   run ends; self times are computed from the parent links. *)

open Lpp_util

let now () = Int64.to_int (Clock.now_ns ())

type t = {
  mutable n : int;
  mutable names : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable rids : int array;
  mutable args : (string * float) list array;
}

let create () =
  let cap = 4096 in
  {
    n = 0;
    names = Array.make cap "";
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    parents = Array.make cap (-1);
    rids = Array.make cap (-1);
    args = Array.make cap [];
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.parents <- extend t.parents (-1);
  t.rids <- extend t.rids (-1);
  t.args <- extend t.args []

(* A finished span with known bounds; returns its id. [rid] is -1 for spans
   that belong to no request. *)
let add t ~name ?(parent = -1) ?(rid = -1) ?(args = []) ~start ~stop () =
  if t.n = Array.length t.names then grow t;
  let i = t.n in
  t.names.(i) <- name;
  t.starts.(i) <- start;
  t.stops.(i) <- stop;
  t.parents.(i) <- parent;
  t.rids.(i) <- rid;
  t.args.(i) <- args;
  t.n <- i + 1;
  i

let enter t ~name ?parent ?rid () =
  let now = now () in
  add t ~name ?parent ?rid ~start:now ~stop:now ()

let leave t i = t.stops.(i) <- now ()

let with_span t ~name ?parent ?rid f =
  let i = enter t ~name ?parent ?rid () in
  Fun.protect ~finally:(fun () -> leave t i) (fun () -> f i)

(* Duration minus the part covered by child spans. Children of one parent
   never overlap: every nested span here is recorded on one thread. *)
let self_ns t =
  let covered = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parents.(i) in
    if p >= 0 then covered.(p) <- covered.(p) + (t.stops.(i) - t.starts.(i))
  done;
  Array.init t.n (fun i -> t.stops.(i) - t.starts.(i) - covered.(i))

type row = {
  name : string;
  count : int;
  total_ms : float;
  self_ms : float;
  self_share : float;  (* of all self time *)
  self_per_call_ns : float;  (* interquartile mean *)
}

let table t =
  let self = self_ns t in
  let by_name = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let total, selfs =
      Option.value (Hashtbl.find_opt by_name t.names.(i)) ~default:(0, [])
    in
    Hashtbl.replace by_name t.names.(i)
      (total + (t.stops.(i) - t.starts.(i)), float_of_int self.(i) :: selfs)
  done;
  let all_self = float_of_int (Array.fold_left ( + ) 0 self) in
  Hashtbl.fold
    (fun name (total, selfs) acc ->
      let selfs = Array.of_list selfs in
      let self_total = Array.fold_left ( +. ) 0.0 selfs in
      {
        name;
        count = Array.length selfs;
        total_ms = float_of_int total /. 1e6;
        self_ms = self_total /. 1e6;
        self_share = (if all_self > 0.0 then self_total /. all_self else 0.0);
        self_per_call_ns = Summary.iq_mean selfs;
      }
      :: acc)
    by_name []
  |> List.sort (fun a b -> Float.compare b.self_ms a.self_ms)

let render_table rows =
  let tbl =
    Ascii_table.create
      [ "span"; "count"; "total ms"; "self ms"; "self %"; "self/call ns" ]
  in
  List.iter
    (fun r ->
      Ascii_table.add_row tbl
        [
          r.name;
          string_of_int r.count;
          Printf.sprintf "%.1f" r.total_ms;
          Printf.sprintf "%.1f" r.self_ms;
          Printf.sprintf "%.1f" (100.0 *. r.self_share);
          Printf.sprintf "%.0f" r.self_per_call_ns;
        ])
    rows;
  Ascii_table.render tbl

(* Chrome trace_event JSON (load in Perfetto or about:tracing). Requests
   are sampled evenly by id, whole, so that their spans number about
   [max_events]; spans outside any request are all kept. *)
let write_chrome t ~path ~max_events =
  let request_spans = ref 0 in
  for i = 0 to t.n - 1 do
    if t.rids.(i) >= 0 then incr request_spans
  done;
  let stride = max 1 ((!request_spans + max_events - 1) / max 1 max_events) in
  let origin = if t.n = 0 then 0 else Array.fold_left min max_int (Array.sub t.starts 0 t.n) in
  let us x = float_of_int (x - origin) /. 1e3 in
  let events = ref [] in
  for i = t.n - 1 downto 0 do
    let rid = t.rids.(i) in
    if rid < 0 || rid mod stride = 0 then
      events :=
        Json.Obj
          [
            ("name", Json.String t.names.(i));
            ("ph", Json.String "X");
            ("ts", Json.Float (us t.starts.(i)));
            ("dur", Json.Float (float_of_int (t.stops.(i) - t.starts.(i)) /. 1e3));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj
                ([
                   ("id", Json.Int i);
                   ("parent", Json.Int t.parents.(i));
                   ("rid", Json.Int rid);
                 ]
                @ List.map (fun (k, v) -> (k, Json.Float v)) t.args.(i)) );
          ]
        :: !events
  done;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (Json.Obj [ ("traceEvents", Json.List !events) ]);
      output_char oc '\n')
