(* Terminal dashboard renderer for `lpp top`. Pure: JSON stats in, one
   frame string out — the CLI owns the polling loop, the ANSI clearing and
   the client socket, so this stays testable (test_serve feeds it canned
   stats documents) and the library stays silent (LPP-D006). *)

open Lpp_util

type sample = { at_ns : int64; served : int }

let sample ~at_ns stats =
  {
    at_ns;
    served = Option.value (Json.member_int "served" stats) ~default:0;
  }

let num ?(default = 0.0) key json =
  Option.value (Json.member_number key json) ~default

let fmt_us ns = Printf.sprintf "%.1fµs" (ns /. 1e3)

let fmt_count n =
  if n >= 1_000_000 then Printf.sprintf "%.2fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.1fk" (float_of_int n /. 1e3)
  else string_of_int n

let render ?prev ~now_ns ~addr ~stats ~metrics () =
  let buf = Buffer.create 1024 in
  let served = Option.value (Json.member_int "served" stats) ~default:0 in
  let errors = Option.value (Json.member_int "errors" stats) ~default:0 in
  let rejected = Option.value (Json.member_int "rejected" stats) ~default:0 in
  let uptime = num "uptime_s" stats in
  let qps =
    match prev with
    | Some p when now_ns > p.at_ns && served >= p.served ->
        float_of_int (served - p.served)
        /. (Int64.to_float (Int64.sub now_ns p.at_ns) /. 1e9)
    | _ -> num "estimates_per_sec" stats
  in
  Printf.bprintf buf "lpp top — %s   uptime %.1fs\n" addr uptime;
  Printf.bprintf buf "served %s (%.1f/s)   errors %s   rejected %s\n"
    (fmt_count served) qps (fmt_count errors) (fmt_count rejected);
  (match Json.member "latency" stats with
  | Some lat ->
      Printf.bprintf buf "latency  mean %s   p50 %s   p90 %s   p99 %s\n"
        (fmt_us (num "mean_ns" lat))
        (fmt_us (num "p50_ns" lat))
        (fmt_us (num "p90_ns" lat))
        (fmt_us (num "p99_ns" lat))
  | None -> ());
  (match Json.member "qerror" stats with
  | Some qe when Option.value (Json.member_int "count" qe) ~default:0 > 0 ->
      Printf.bprintf buf
        "q-error  n=%d   mean %.2f   p50 %.2f   p90 %.2f   p99 %.2f\n"
        (Option.value (Json.member_int "count" qe) ~default:0)
        (num "mean" qe) (num "p50" qe) (num "p90" qe) (num "p99" qe)
  | _ -> ());
  (match Json.member "cache" stats with
  | Some c when Json.member "enabled" c = Some (Json.Bool true) ->
      let i k = Option.value (Json.member_int k c) ~default:0 in
      let l1 = i "l1_hits" and l2 = i "l2_hits" and miss = i "misses" in
      let total = l1 + l2 + miss in
      let hit_pct =
        if total = 0 then 0.0
        else 100.0 *. float_of_int (l1 + l2) /. float_of_int total
      in
      Printf.bprintf buf
        "cache    hit %.1f%% (l1 %s  l2 %s  miss %s)   %s/%s   evict %s\n"
        hit_pct (fmt_count l1) (fmt_count l2) (fmt_count miss)
        (fmt_count (i "l2_bytes" + i "l1_bytes"))
        (fmt_count (i "l2_budget"))
        (fmt_count (i "l2_evictions"))
  | _ -> ());
  (match Json.member "workers" stats with
  | Some (Json.List ws) when ws <> [] ->
      let t = Ascii_table.create [ "worker"; "served"; "util %" ] in
      List.iteri
        (fun i w ->
          Ascii_table.add_row t
            [
              string_of_int i;
              fmt_count (Option.value (Json.member_int "served" w) ~default:0);
              Printf.sprintf "%.1f" (100.0 *. num "utilization" w);
            ])
        ws;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Ascii_table.render t)
  | _ -> ());
  (match Option.bind metrics (Json.member "counters") with
  | Some (Json.Obj counters) ->
      let nonzero =
        List.filter
          (fun (n, v) -> v <> Json.Int 0 && not (String.length n >= 6 && String.sub n 0 6 = "serve."))
          counters
      in
      if nonzero <> [] then begin
        let t = Ascii_table.create [ "counter"; "value" ] in
        List.iter
          (fun (n, v) ->
            Ascii_table.add_row t
              [ n; (match v with Json.Int i -> fmt_count i | _ -> Json.to_string v) ])
          nonzero;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (Ascii_table.render t)
      end
  | _ -> ());
  Buffer.contents buf
