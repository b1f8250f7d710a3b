(* Layers replayed in-process (traced runs): the benchmark times calls into
   each public function a served request passes through, on the workload's
   own patterns, and counts minor-heap words per call.

   The estimator is also split by operator kind from outside, by prefix
   differencing: the cost of prefix k minus the cost of prefix k-1 is
   charged to operator k's kind. *)

open Lpp_util
module Algebra = Lpp_pattern.Algebra

let config_name = Lpp_core.Config.name Lpp_core.Config.a_lhd

(* [span] names the span and prefixes the words metric; [metric] is the
   per-call time metric. *)
type layer = { span : string; metric : string; ns : float array; words : float array }

let layer span metric n = { span; metric; ns = Array.make n 0.0; words = Array.make n 0.0 }

(* Words that [Gc.minor_words] and the clock reads allocate themselves. *)
let words_overhead () =
  let w0 = Gc.minor_words () in
  let t0 = Spans.now () in
  let t1 = Spans.now () in
  let w1 = Gc.minor_words () in
  ignore (t1 - t0 : int);
  w1 -. w0

let kind_name : Algebra.op -> string = function
  | Get_nodes _ -> "get_nodes"
  | Label_selection _ -> "label_selection"
  | Prop_selection _ -> "prop_selection"
  | Expand _ -> "expand"
  | Merge_on _ -> "merge_on"

let kinds = [ "get_nodes"; "label_selection"; "prop_selection"; "expand"; "merge_on" ]

(* Replays at most [budget_s] seconds of patterns, then spends at most as
   long again on prefix differencing. *)
let run (ledger : Ledger.t) (oracle : Oracle.t) ~spans ~texts ~budget_s =
  let graph = oracle.ds.graph and catalog = oracle.ds.catalog in
  let l2 = Lpp_core.Est_cache.create_l2 ~budget_bytes:(64 lsl 20) () in
  let cache = Lpp_core.Est_cache.create ~l2 Lpp_core.Config.a_lhd catalog in
  let session = Lpp_core.Estimator.make Lpp_core.Config.a_lhd catalog in
  let scratch = Lpp_pattern.Canon.create_scratch () in
  let n = Array.length texts in
  let decode = layer "protocol.decode" "protocol.decode_ns" n
  and parse = layer "parse" "parse.ns" n
  and plan = layer "planner" "planner.ns" n
  and canon = layer "canon" "canon.ns" n
  and miss = layer "est_cache.miss" "est_cache.miss_ns" n
  and hit = layer "est_cache.hit" "est_cache.hit_ns" n
  and estimator = layer "estimator" "estimator.p50_ns" n
  and encode = layer "protocol.encode" "protocol.encode_ns" n in
  let overhead = words_overhead () in
  let timed l i ~parent f =
    let w0 = Gc.minor_words () in
    let t0 = Spans.now () in
    let v = f () in
    let t1 = Spans.now () in
    let w1 = Gc.minor_words () in
    l.ns.(i) <- float_of_int (t1 - t0);
    l.words.(i) <- w1 -. w0 -. overhead;
    ignore (Spans.add spans ~name:l.span ~parent ~rid:i ~start:t0 ~stop:t1 () : int);
    v
  in
  let deadline = Spans.now () + int_of_float (budget_s *. 1e9) in
  let algs = ref [] and m = ref 0 in
  while !m < n && (!m = 0 || Spans.now () < deadline) do
    let i = !m in
    let text = texts.(i) in
    let line =
      Json.to_string
        (Json.Obj [ ("op", Json.String "estimate"); ("pattern", Json.String text) ])
    in
    let parent = Spans.enter spans ~name:"replay.request" ~rid:i () in
    (match timed decode i ~parent (fun () -> Lpp_serve.Protocol.request_of_line line) with
    | Ok _ -> ()
    | Error _ -> failwith ("replay: request line rejected: " ^ line));
    let pattern =
      match timed parse i ~parent (fun () -> Lpp_pattern.Parse.parse graph text) with
      | Ok { pattern; _ } -> pattern
      | Error msg -> failwith ("replay: unparsable " ^ text ^ ": " ^ msg)
    in
    let alg = timed plan i ~parent (fun () -> Lpp_pattern.Planner.plan pattern) in
    timed canon i ~parent (fun () ->
        Lpp_pattern.Canon.load scratch alg;
        ignore (Lpp_pattern.Canon.hash scratch : int));
    let cold = timed miss i ~parent (fun () -> Lpp_core.Est_cache.estimate cache alg) in
    let warm = timed hit i ~parent (fun () -> Lpp_core.Est_cache.estimate cache alg) in
    let plain =
      timed estimator i ~parent (fun () -> Lpp_core.Estimator.session_estimate session alg)
    in
    timed encode i ~parent (fun () ->
        ignore
          (Json.to_string
             (Lpp_serve.Protocol.ok_estimate ~id:None ~config:config_name
                ~estimate:plain ~ns:0.0 ())
            : string));
    Spans.leave spans parent;
    let bits = Int64.bits_of_float in
    if bits cold <> bits plain || bits warm <> bits plain then begin
      ledger.failed <- ledger.failed + 1;
      Ledger.note ledger "replay: cached %h / %h <> computed %h for %s" cold warm plain text
    end;
    algs := alg :: !algs;
    incr m
  done;
  let m = !m in
  let add = Ledger.add ledger ~layer:"replay" in
  List.iter
    (fun l ->
      let ns = Array.sub l.ns 0 m and words = Array.sub l.words 0 m in
      if l == estimator then begin
        add ~name:"estimator.p50_ns" ~unit:"ns" ~n:m (Summary.quantile ns 0.5);
        add ~name:"estimator.p99_ns" ~unit:"ns" ~n:m (Summary.quantile ns 0.99)
      end
      else add ~name:l.metric ~unit:"ns" ~n:m (Summary.iq_mean ns);
      add ~name:(l.span ^ ".minor_words") ~unit:"words" ~n:m (Summary.iq_mean words))
    [ decode; parse; plan; canon; miss; hit; estimator; encode ];
  let diffs = Hashtbl.create 8 in
  let cost alg =
    let best = ref max_int in
    for _ = 1 to 3 do
      let t0 = Spans.now () in
      ignore (Lpp_core.Estimator.session_estimate session alg : float);
      best := min !best (Spans.now () - t0)
    done;
    float_of_int !best
  in
  let deadline = Spans.now () + int_of_float (budget_s *. 1e9) in
  List.iter
    (fun (alg : Algebra.t) ->
      if Spans.now () < deadline then begin
        let prefix k = { alg with ops = Array.sub alg.ops 0 k } in
        let prev = ref (cost (prefix 0)) in
        Array.iteri
          (fun k op ->
            let c = cost (prefix (k + 1)) in
            let kind = kind_name op in
            Hashtbl.replace diffs kind
              ((c -. !prev) :: Option.value (Hashtbl.find_opt diffs kind) ~default:[]);
            prev := c)
          alg.ops
      end)
    (List.rev !algs);
  List.iter
    (fun kind ->
      let d = Array.of_list (Option.value (Hashtbl.find_opt diffs kind) ~default:[]) in
      add
        ~name:(Printf.sprintf "estimator.op.%s_ns" kind)
        ~unit:"ns" ~n:(Array.length d)
        (if Array.length d = 0 then 0.0 else Summary.iq_mean d))
    kinds
