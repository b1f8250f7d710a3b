(* The benchmark's workloads and every parameter they run with. Why each
   exists is in README.md; the names and one-line reasons are repeated in
   BENCHMARK.json. *)

module Scale = Lpp_datasets.Scale

type source =
  | Zipf of { patterns : int; s : float }
      (** a pool of distinct patterns, each sent once to prime the cache,
          then requested with Zipf-distributed popularity *)
  | Fresh  (** every request is a pattern never sent before *)

type serve = {
  dataset : string;
  server_scale : Scale.t;  (** the tier `lpp serve --scale` builds *)
  pattern_scale : Scale.t;  (** the tier patterns are drawn from *)
  source : source;
  servers : int;
      (** server processes per run, started one after another, each serving
          an equal share of the rounds *)
  setups : int;
      (** start-ups timed per run, at least [servers]: the serving servers'
          and, spread between them, [setups - servers] more that are
          stopped as soon as they answer; setup_s is their median *)
  closed_rate : float;
      (** nominal closed-loop estimates/s: the closed phase sends
          [closed_share × seconds × closed_rate] requests, a fixed count per
          run length so answers_digest repeats at a seed *)
  open_rate : float;  (** the open loop's fixed arrival rate *)
}

type plan = {
  scale : Scale.t;
  setups : int;
  nominal_qps : float;  (** sizes the fixed query count, as closed_rate *)
  random_orders : int;  (** candidate orders besides the heuristic one *)
}

type kind = Serve of serve | Plan of plan

type t = { name : string; kind : kind }

(* Share of the measured seconds given to the closed loop; the open loop
   gets the rest. *)
let closed_share = 0.4

let window = 16

let hot_pool = Zipf { patterns = 256; s = 1.1 }

let all =
  [
    {
      name = "serve-hot-snb";
      kind =
        Serve
          {
            dataset = "snb";
            server_scale = Default;
            pattern_scale = Default;
            source = hot_pool;
            servers = 5;
            setups = 15;
            closed_rate = 90_000.0;
            open_rate = 10_000.0;
          };
    };
    {
      name = "serve-cold-dbpedia";
      kind =
        Serve
          {
            dataset = "dbpedia";
            server_scale = Default;
            pattern_scale = Default;
            source = Fresh;
            servers = 2;
            setups = 7;
            closed_rate = 2_500.0;
            open_rate = 1_000.0;
          };
    };
    {
      name = "plan-snb";
      kind = Plan { scale = Default; setups = 9; nominal_qps = 700.0; random_orders = 16 };
    };
    {
      (* the same requests as serve-hot-snb, against a server holding the
         large tier: start-up and memory are dominated by generate → build
         → freeze, and the front end runs beside a much larger heap *)
      name = "build-large-snb";
      kind =
        Serve
          {
            dataset = "snb";
            server_scale = Large;
            pattern_scale = Default;
            source = hot_pool;
            servers = 2;
            setups = 2;
            closed_rate = 90_000.0;
            open_rate = 10_000.0;
          };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The smoke variant: every tier at [Smoke], single start-ups. *)
let smoke w =
  match w.kind with
  | Serve s ->
      {
        w with
        kind =
          Serve
            {
              s with
              server_scale = Smoke;
              pattern_scale = Smoke;
              servers = 1;
              setups = 1;
              source =
                (match s.source with
                | Zipf z -> Zipf { z with patterns = 32 }
                | Fresh -> Fresh);
            };
      }
  | Plan p -> { w with kind = Plan { p with scale = Smoke; setups = 1 } }
