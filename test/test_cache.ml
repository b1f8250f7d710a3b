(* The semantic estimate cache (DESIGN.md §16).

   Pins the contracts Est_cache and Canon advertise:
   - canonicalization is invariant under bijective variable renaming and
     renamed algebras estimate bit-identically (the soundness argument for
     sharing one cache entry between them) — QCheck over random patterns;
   - cached estimates are bit-identical to computed ones, warm or cold,
     for every configuration;
   - each catalog snapshot has its own epoch, so fronts over different
     catalogs — or over a Builder's successive snapshots — sharing one L2
     never answer with each other's estimates;
   - the shared L2 never exceeds its byte budget: an entry that would pass
     it first empties the table;
   - many domains hammering one shared L2 stay correct and within budget. *)

open Lpp_pattern

let bits = Int64.bits_of_float

let check_bits what a b =
  if bits a <> bits b then
    Alcotest.failf "%s: %h <> %h (bits differ)" what a b

(* ---- random patterns over a small fixed vocabulary ------------------- *)

(* Label ids 0..2 and type ids 0..1 exist in this graph (A/B/C, u/v), so
   random patterns below can use raw ids. *)
let small_graph () =
  let b = Lpp_pgraph.Graph_builder.create () in
  let rng = Lpp_util.Rng.create 42 in
  let nodes =
    Array.init 30 (fun i ->
        let labels =
          List.filteri (fun j _ -> (i + j) mod 3 = 0 || Lpp_util.Rng.bool rng)
            [ "A"; "B"; "C" ]
        in
        Lpp_pgraph.Graph_builder.add_node b ~labels
          ~props:[ ("k", Lpp_pgraph.Value.Int (i mod 5)) ])
  in
  for _ = 1 to 80 do
    ignore
      (Lpp_pgraph.Graph_builder.add_rel b
         ~src:(Lpp_util.Rng.pick rng nodes)
         ~dst:(Lpp_util.Rng.pick rng nodes)
         ~rel_type:(if Lpp_util.Rng.bool rng then "u" else "v")
         ~props:[])
  done;
  Lpp_pgraph.Graph_builder.freeze b

let random_pattern rng max_nodes =
  let open Lpp_util in
  let n = Rng.int_in rng 1 max_nodes in
  let nodes =
    Array.init n (fun _ ->
        { Pattern.n_labels = (if Rng.bool rng then [| Rng.int rng 3 |] else [||]);
          n_props =
            (if Rng.coin rng 0.2 then
               [| (0, Pattern.Eq (Lpp_pgraph.Value.Int (Rng.int rng 5))) |]
             else [||]) })
  in
  let rels = ref [] in
  for i = 1 to n - 1 do
    rels :=
      { Pattern.r_src = i; r_dst = Rng.int rng i;
        r_types = (if Rng.bool rng then [| Rng.int rng 2 |] else [||]);
        r_directed = Rng.bool rng; r_props = [||];
        r_hops = (if Rng.coin rng 0.15 then Some (1, 2) else None) }
      :: !rels
  done;
  if n >= 2 && Rng.coin rng 0.4 then
    rels :=
      { Pattern.r_src = Rng.int rng n; r_dst = Rng.int rng n; r_types = [||];
        r_directed = true; r_props = [||]; r_hops = None }
      :: !rels;
  Pattern.make ~nodes ~rels:(Array.of_list !rels)

(* A uniformly random permutation of 0..n-1 (identity for n <= 1). *)
let random_perm rng n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Lpp_util.Rng.int rng (i + 1) in
    let tmp = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- tmp
  done;
  p

let rename_alg perm_n perm_r (alg : Algebra.t) =
  let open Algebra in
  let ops =
    Array.map
      (function
        | Get_nodes { var } -> Get_nodes { var = perm_n.(var) }
        | Label_selection { var; label } ->
            Label_selection { var = perm_n.(var); label }
        | Prop_selection { kind; var; props } ->
            let var =
              match kind with
              | Node_var -> perm_n.(var)
              | Rel_var -> perm_r.(var)
            in
            Prop_selection { kind; var; props }
        | Expand { src_var; rel_var; dst_var; types; dir; hops } ->
            Expand
              { src_var = perm_n.(src_var); rel_var = perm_r.(rel_var);
                dst_var = perm_n.(dst_var); types; dir; hops }
        | Merge_on { keep; merge; cycle_len } ->
            Merge_on
              { keep = perm_n.(keep); merge = perm_n.(merge); cycle_len })
      alg.ops
  in
  { alg with ops }

(* ---- canon soundness -------------------------------------------------- *)

(* The cache-sharing criterion: bijectively renaming the variables of an
   operator sequence leaves the canonical key unchanged AND the estimate
   bit-identical, for every configuration. This is exactly the situation in
   which Est_cache answers one algebra from an entry another one wrote. *)
let prop_canon_rename_sound =
  QCheck.Test.make ~name:"canon: renamed algebras share key and bits"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Lpp_util.Rng.create (seed + 7) in
      let g = small_graph () in
      let catalog = Lpp_stats.Catalog.build g in
      match random_pattern rng 6 with
      | exception Invalid_argument _ -> true
      | p ->
          let alg = Planner.plan p in
          let renamed =
            rename_alg
              (random_perm rng alg.Algebra.node_vars)
              (random_perm rng alg.Algebra.rel_vars)
              alg
          in
          if Canon.of_algebra alg <> Canon.of_algebra renamed then
            QCheck.Test.fail_report "renaming changed the canonical key";
          List.iter
            (fun config ->
              let e = Lpp_core.Estimator.make config catalog in
              let e' = Lpp_core.Estimator.make config catalog in
              if
                bits (Lpp_core.Estimator.session_estimate e alg)
                <> bits (Lpp_core.Estimator.session_estimate e' renamed)
              then
                QCheck.Test.fail_reportf
                  "renaming changed estimate bits under %s"
                  (Lpp_core.Config.name config))
            Lpp_core.Config.all;
          true)

(* Keys must separate sequences that genuinely differ. *)
let test_canon_separates () =
  let g = small_graph () in
  let pat labels types =
    Pattern.of_spec g
      [ Pattern.node_spec ~labels (); Pattern.node_spec () ]
      [ Pattern.rel_spec ~types ~src:0 ~dst:1 () ]
  in
  let k1 = Canon.of_pattern (pat [ "A" ] [ "u" ]) in
  let k2 = Canon.of_pattern (pat [ "B" ] [ "u" ]) in
  let k3 = Canon.of_pattern (pat [ "A" ] [ "v" ]) in
  let k4 = Canon.of_pattern (pat [ "A" ] []) in
  let keys = [ k1; k2; k3; k4 ] in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && a = b then
            Alcotest.failf "distinct patterns %d and %d share a key" i j)
        keys)
    keys

let test_canon_scratch_consistent () =
  let g = small_graph () in
  let p =
    Pattern.of_spec g
      [ Pattern.node_spec ~labels:[ "A" ] (); Pattern.node_spec () ]
      [ Pattern.rel_spec ~types:[ "u" ] ~src:0 ~dst:1 () ]
  in
  let alg = Planner.plan p in
  let s = Canon.create_scratch () in
  Canon.load s alg;
  let key = Canon.key s in
  Alcotest.(check int) "length" (String.length key) (Canon.length s);
  Alcotest.(check bool) "matches own key" true (Canon.matches s key);
  Alcotest.(check bool) "rejects other keys" false
    (Canon.matches s (key ^ "x"));
  let h = Canon.hash s in
  Alcotest.(check bool) "hash non-negative" true (h >= 0);
  Canon.load s alg;
  Alcotest.(check int) "hash deterministic" h (Canon.hash s);
  Alcotest.(check string) "one-shot agrees" key (Canon.of_algebra alg)

(* ---- bit-identity of cached estimates --------------------------------- *)

let configs = Lpp_core.Config.all @ [ Lpp_core.Config.a_lhdt ]

let campus_patterns g =
  [
    Pattern.of_spec g
      [ Pattern.node_spec ~labels:[ "Student" ] ();
        Pattern.node_spec ~labels:[ "Course" ] () ]
      [ Pattern.rel_spec ~types:[ "attends" ] ~src:0 ~dst:1 () ];
    Pattern.of_spec g
      [ Pattern.node_spec ~labels:[ "Person" ] (); Pattern.node_spec () ]
      [ Pattern.rel_spec ~src:0 ~dst:1 () ];
    Pattern.of_spec g
      [ Pattern.node_spec ~labels:[ "Teacher" ] ();
        Pattern.node_spec ~labels:[ "Course" ] ();
        Pattern.node_spec ~labels:[ "Seminar" ] () ]
      [ Pattern.rel_spec ~types:[ "teaches" ] ~src:0 ~dst:1 ();
        Pattern.rel_spec ~types:[ "teaches" ] ~src:0 ~dst:2 () ];
    Pattern.of_spec g
      [ Pattern.node_spec ~labels:[ "Student" ] (); Pattern.node_spec () ]
      [ Pattern.rel_spec ~types:[ "likes" ] ~src:0 ~dst:1 ();
        Pattern.rel_spec ~types:[ "likes" ] ~src:1 ~dst:0 () ];
    Pattern.of_spec g
      [ Pattern.node_spec ~labels:[ "Student" ] ();
        Pattern.node_spec
          ~props:[ ("semester", Pattern.Eq (Lpp_pgraph.Value.Int 3)) ]
          () ]
      [ Pattern.rel_spec ~hops:(1, 2) ~src:0 ~dst:1 () ];
  ]

(* Eight generated SNB queries with property predicates (30 persons,
   seed 11), so property values in canonical keys are covered too. *)
let snb_prop_patterns () =
  let ds = Lpp_datasets.Snb_gen.generate ~persons:30 ~seed:11 () in
  let spec =
    { (Lpp_workload.Query_gen.default_spec With_props) with
      target = 8;
      attempts = 50;
      truth_budget = 300_000;
    }
  in
  let queries =
    Lpp_workload.Query_gen.generate (Lpp_util.Rng.create 11) ds spec
  in
  let patterns =
    List.map (fun (q : Lpp_workload.Query_gen.query) -> q.pattern) queries
  in
  Alcotest.(check bool) "some SNB query has a property predicate" true
    (List.exists
       (fun (p : Pattern.t) ->
         Array.exists (fun n -> n.Pattern.n_props <> [||]) p.nodes
         || Array.exists (fun r -> r.Pattern.r_props <> [||]) p.rels)
       patterns);
  (ds.catalog, patterns)

let check_warm_equals_cold catalog patterns =
  let l2 = Lpp_core.Est_cache.create_l2 ~budget_bytes:(1 lsl 20) () in
  List.iter
    (fun config ->
      let name = Lpp_core.Config.name config in
      let reference = Lpp_core.Estimator.make config catalog in
      let cache = Lpp_core.Est_cache.create ~l2 config catalog in
      List.iter
        (fun p ->
          let expect =
            Lpp_core.Estimator.session_estimate_pattern reference p
          in
          let cold = Lpp_core.Est_cache.estimate_pattern cache p in
          let warm = Lpp_core.Est_cache.estimate_pattern cache p in
          check_bits (name ^ " cold") expect cold;
          check_bits (name ^ " warm") expect warm)
        patterns;
      (* a second front sharing the L2 must answer from it, bit-identical *)
      let other = Lpp_core.Est_cache.create ~l2 config catalog in
      List.iter
        (fun p ->
          check_bits (name ^ " via L2")
            (Lpp_core.Estimator.session_estimate_pattern reference p)
            (Lpp_core.Est_cache.estimate_pattern other p))
        patterns;
      let c = Lpp_core.Est_cache.counters other in
      Alcotest.(check int)
        (name ^ ": second front computed nothing")
        0 c.Lpp_core.Est_cache.c_misses)
    configs

let test_warm_equals_cold_all_configs () =
  let f = Fixtures.campus () in
  check_warm_equals_cold (Lpp_stats.Catalog.build f.graph)
    (campus_patterns f.graph);
  let catalog, patterns = snb_prop_patterns () in
  check_warm_equals_cold catalog patterns

let test_renamed_algebra_hits_l1 () =
  let g = small_graph () in
  let catalog = Lpp_stats.Catalog.build g in
  let p =
    Pattern.of_spec g
      [ Pattern.node_spec ~labels:[ "A" ] (); Pattern.node_spec ();
        Pattern.node_spec ~labels:[ "B" ] () ]
      [ Pattern.rel_spec ~types:[ "u" ] ~src:0 ~dst:1 ();
        Pattern.rel_spec ~types:[ "v" ] ~src:1 ~dst:2 () ]
  in
  let alg = Planner.plan p in
  let rng = Lpp_util.Rng.create 99 in
  let cache = Lpp_core.Est_cache.create Lpp_core.Config.a_lhd catalog in
  let v = Lpp_core.Est_cache.estimate cache alg in
  for _ = 1 to 10 do
    let renamed =
      rename_alg
        (random_perm rng alg.Algebra.node_vars)
        (random_perm rng alg.Algebra.rel_vars)
        alg
    in
    check_bits "renamed hit" v (Lpp_core.Est_cache.estimate cache renamed)
  done;
  let c = Lpp_core.Est_cache.counters cache in
  Alcotest.(check int) "one computation" 1 c.Lpp_core.Est_cache.c_misses;
  Alcotest.(check int) "ten L1 hits" 10 c.Lpp_core.Est_cache.c_hits

(* ---- epochs: one per snapshot ----------------------------------------- *)

let test_epoch_invalidation () =
  let f = Fixtures.campus () in
  let builder = Lpp_stats.Catalog.Builder.of_graph f.graph in
  let first = Lpp_stats.Catalog.Builder.snapshot builder in
  let p = List.hd (campus_patterns f.graph) in
  let l2 = Lpp_core.Est_cache.create_l2 ~budget_bytes:(1 lsl 20) () in
  let cache = Lpp_core.Est_cache.create ~l2 Lpp_core.Config.a_lhd first in
  let c = Lpp_core.Est_cache.counters cache in
  let before = Lpp_core.Est_cache.estimate_pattern cache p in
  ignore (Lpp_core.Est_cache.estimate_pattern cache p);
  Alcotest.(check int) "warm hit" 1 c.Lpp_core.Est_cache.c_hits;
  (* add a Student-attends->Course relationship — the pattern counts
     exactly these, so its estimate must move — and take a second
     snapshot over the same L2 *)
  let attends =
    Option.get
      (Lpp_pgraph.Interner.find_opt
         (Lpp_pgraph.Graph.rel_types f.graph)
         "attends")
  in
  Lpp_stats.Catalog.Builder.note_rel_added builder
    ~src_labels:(Lpp_pgraph.Graph.node_labels f.graph f.student_e)
    ~typ:attends
    ~dst_labels:(Lpp_pgraph.Graph.node_labels f.graph f.course_a);
  let second = Lpp_stats.Catalog.Builder.snapshot builder in
  Alcotest.(check bool) "new epoch" true
    (Lpp_stats.Catalog.epoch second <> Lpp_stats.Catalog.epoch first);
  let cache' =
    Lpp_core.Est_cache.create ~l2 ~counters:c Lpp_core.Config.a_lhd second
  in
  let after = Lpp_core.Est_cache.estimate_pattern cache' p in
  Alcotest.(check int) "recomputed" 2 c.Lpp_core.Est_cache.c_misses;
  Alcotest.(check int) "no stale shared hit" 0
    c.Lpp_core.Est_cache.c_shared_hits;
  check_bits "matches fresh session on the second snapshot"
    (Lpp_core.Estimator.session_estimate_pattern
       (Lpp_core.Estimator.make Lpp_core.Config.a_lhd second)
       p)
    after;
  if bits before = bits after then
    Alcotest.fail "adding a matching relationship did not change the estimate";
  (* both snapshots keep serving their own answers *)
  check_bits "first snapshot unchanged" before
    (Lpp_core.Est_cache.estimate_pattern cache p);
  check_bits "warm at the new epoch" after
    (Lpp_core.Est_cache.estimate_pattern cache' p);
  Alcotest.(check int) "both hits" 3 c.Lpp_core.Est_cache.c_hits

(* Two catalogs with the same vocabulary share one L2: the same pattern
   has the same canonical key on both, and each front must still get its
   own catalog's estimate. *)
let test_shared_l2_keeps_catalogs_apart () =
  let snb seed =
    Option.get
      (Lpp_datasets.Scale.build Lpp_datasets.Scale.Smoke ~name:"snb" ~seed)
  in
  let a = snb 1 and b = snb 2 in
  let pattern (ds : Lpp_datasets.Dataset.t) =
    match Lpp_pattern.Parse.parse ds.graph "(a:Person)-[:KNOWS]->(b:Person)" with
    | Ok { pattern; _ } -> pattern
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  let config = Lpp_core.Config.a_lhd in
  let l2 = Lpp_core.Est_cache.create_l2 ~budget_bytes:(1 lsl 20) () in
  let front (ds : Lpp_datasets.Dataset.t) =
    Lpp_core.Est_cache.create ~l2 config ds.catalog
  in
  let fresh (ds : Lpp_datasets.Dataset.t) =
    Lpp_core.Estimator.session_estimate_pattern
      (Lpp_core.Estimator.make config ds.catalog)
      (pattern ds)
  in
  if bits (fresh a) = bits (fresh b) then
    Alcotest.fail "the two catalogs should estimate the pattern differently";
  check_bits "A through the shared L2" (fresh a)
    (Lpp_core.Est_cache.estimate_pattern (front a) (pattern a));
  check_bits "B through the shared L2" (fresh b)
    (Lpp_core.Est_cache.estimate_pattern (front b) (pattern b))

(* ---- L2 budget and eviction ------------------------------------------- *)

let distinct_patterns g n =
  List.init n (fun i ->
      Pattern.of_spec g
        [ Pattern.node_spec ~labels:[ "A" ]
            ~props:[ ("k", Pattern.Eq (Lpp_pgraph.Value.Int i)) ]
            ();
          Pattern.node_spec () ]
        [ Pattern.rel_spec ~types:[ "u" ] ~src:0 ~dst:1 () ])

let estimate_all cache ps =
  List.iter (fun p -> ignore (Lpp_core.Est_cache.estimate_pattern cache p)) ps

let test_l2_eviction_respects_budget () =
  let g = small_graph () in
  let catalog = Lpp_stats.Catalog.build g in
  let budget = 4096 in
  let l2 = Lpp_core.Est_cache.create_l2 ~budget_bytes:budget () in
  let cache = Lpp_core.Est_cache.create ~l2 Lpp_core.Config.a_lhd catalog in
  let patterns = distinct_patterns g 400 in
  estimate_all cache (List.filteri (fun i _ -> i < 200) patterns);
  let s = Lpp_core.Est_cache.l2_stats l2 in
  Alcotest.(check bool) "bytes within budget" true
    (s.Lpp_core.Est_cache.l2_bytes <= s.Lpp_core.Est_cache.l2_budget);
  Alcotest.(check bool) "entries live" true
    (s.Lpp_core.Est_cache.l2_entries > 0);
  Alcotest.(check bool) "evictions happened" true
    (s.Lpp_core.Est_cache.l2_evictions > 0);
  (* 200 distinct small entries cannot all fit 4 KiB *)
  Alcotest.(check bool) "capacity actually bounded" true
    (s.Lpp_core.Est_cache.l2_entries < 200);
  estimate_all cache (List.filteri (fun i _ -> i >= 200) patterns);
  let s' = Lpp_core.Est_cache.l2_stats l2 in
  Alcotest.(check bool) "more evictions" true
    (s'.Lpp_core.Est_cache.l2_evictions > s.Lpp_core.Est_cache.l2_evictions);
  Alcotest.(check bool) "bytes still within budget" true
    (s'.Lpp_core.Est_cache.l2_bytes <= s'.Lpp_core.Est_cache.l2_budget);
  (* with room for everything, every entry stays reachable through a fresh
     front *)
  let roomy = Lpp_core.Est_cache.create_l2 ~budget_bytes:(1 lsl 20) () in
  let front () = Lpp_core.Est_cache.create ~l2:roomy Lpp_core.Config.a_lhd catalog in
  estimate_all (front ()) patterns;
  let second = front () in
  estimate_all second patterns;
  let r = Lpp_core.Est_cache.l2_stats roomy in
  Alcotest.(check int) "all entries live" 400 r.Lpp_core.Est_cache.l2_entries;
  Alcotest.(check int) "all reachable" 400
    (Lpp_core.Est_cache.counters second).Lpp_core.Est_cache.c_shared_hits

(* The L2's bound: an entry that would take the held bytes past the budget
   first empties the table, so the L2 then holds that entry alone. *)
let test_l2_reset_rule () =
  let g = small_graph () in
  let catalog = Lpp_stats.Catalog.build g in
  let k = 3 in
  let patterns = distinct_patterns g (k + 1) in
  let older = List.filteri (fun i _ -> i < k) patterns in
  let newest = List.nth patterns k in
  let front l2 = Lpp_core.Est_cache.create ~l2 Lpp_core.Config.a_lhd catalog in
  (* a budget that holds exactly the first k entries *)
  let sizing = Lpp_core.Est_cache.create_l2 ~budget_bytes:(1 lsl 20) () in
  estimate_all (front sizing) older;
  let budget = (Lpp_core.Est_cache.l2_stats sizing).Lpp_core.Est_cache.l2_bytes in
  let l2 = Lpp_core.Est_cache.create_l2 ~budget_bytes:budget () in
  let cache = front l2 in
  estimate_all cache older;
  let s = Lpp_core.Est_cache.l2_stats l2 in
  Alcotest.(check int) "k entries fill the budget" k
    s.Lpp_core.Est_cache.l2_entries;
  Alcotest.(check int) "nothing evicted yet" 0
    s.Lpp_core.Est_cache.l2_evictions;
  estimate_all cache [ newest ];
  let s = Lpp_core.Est_cache.l2_stats l2 in
  Alcotest.(check int) "the newest entry alone" 1
    s.Lpp_core.Est_cache.l2_entries;
  Alcotest.(check int) "the k older entries evicted" k
    s.Lpp_core.Est_cache.l2_evictions;
  Alcotest.(check bool) "bytes within budget" true
    (s.Lpp_core.Est_cache.l2_bytes <= s.Lpp_core.Est_cache.l2_budget);
  let fresh = front l2 in
  let c = Lpp_core.Est_cache.counters fresh in
  estimate_all fresh [ newest ];
  Alcotest.(check int) "the newest pattern hits the L2" 1
    c.Lpp_core.Est_cache.c_shared_hits;
  estimate_all fresh [ List.hd older ];
  Alcotest.(check int) "the oldest pattern misses" 1
    c.Lpp_core.Est_cache.c_misses

let test_oversized_entries_not_cached () =
  let g = small_graph () in
  let catalog = Lpp_stats.Catalog.build g in
  let l2 = Lpp_core.Est_cache.create_l2 ~budget_bytes:32 () in
  let cache = Lpp_core.Est_cache.create ~l2 Lpp_core.Config.a_lhd catalog in
  let p = List.hd (distinct_patterns g 1) in
  let a = Lpp_core.Est_cache.estimate_pattern cache p in
  let s = Lpp_core.Est_cache.l2_stats l2 in
  Alcotest.(check int) "nothing cached" 0 s.Lpp_core.Est_cache.l2_entries;
  Alcotest.(check int) "no bytes held" 0 s.Lpp_core.Est_cache.l2_bytes;
  (* still answers correctly (from L1 on repeat) *)
  check_bits "repeat" a (Lpp_core.Est_cache.estimate_pattern cache p)

(* ---- concurrent hammer ------------------------------------------------ *)

let test_concurrent_hammer () =
  let g = small_graph () in
  let catalog = Lpp_stats.Catalog.build g in
  let patterns = Array.of_list (distinct_patterns g 64) in
  let algs = Array.map Planner.plan patterns in
  let reference = Lpp_core.Estimator.make Lpp_core.Config.a_lhd catalog in
  let expect = Array.map (Lpp_core.Estimator.session_estimate reference) algs in
  let budget = 8 * 1024 in
  let l2 = Lpp_core.Est_cache.create_l2 ~budget_bytes:budget () in
  let ndomains = 4 in
  let failures = Atomic.make 0 in
  let domains =
    Array.init ndomains (fun d ->
        Domain.spawn (fun () ->
            let rng = Lpp_util.Rng.create (1000 + d) in
            (* small L1 so the run also exercises L2 lookups and overwrites *)
            let cache =
              Lpp_core.Est_cache.create ~l1_slots:16 ~l2
                Lpp_core.Config.a_lhd catalog
            in
            for _ = 1 to 2000 do
              let i = Lpp_util.Rng.int rng (Array.length algs) in
              let v = Lpp_core.Est_cache.estimate cache algs.(i) in
              if bits v <> bits expect.(i) then Atomic.incr failures
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "every concurrent estimate bit-identical" 0
    (Atomic.get failures);
  let s = Lpp_core.Est_cache.l2_stats l2 in
  Alcotest.(check bool) "bytes within budget under contention" true
    (s.Lpp_core.Est_cache.l2_bytes <= s.Lpp_core.Est_cache.l2_budget)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_canon_rename_sound;
    Alcotest.test_case "canon separates distinct sequences" `Quick
      test_canon_separates;
    Alcotest.test_case "canon scratch is consistent" `Quick
      test_canon_scratch_consistent;
    Alcotest.test_case "warm == cold, all configurations" `Quick
      test_warm_equals_cold_all_configs;
    Alcotest.test_case "renamed algebras hit L1" `Quick
      test_renamed_algebra_hits_l1;
    Alcotest.test_case "epoch bump invalidates" `Quick test_epoch_invalidation;
    Alcotest.test_case "shared L2 keeps catalogs apart" `Quick
      test_shared_l2_keeps_catalogs_apart;
    Alcotest.test_case "L2 eviction respects budget" `Quick
      test_l2_eviction_respects_budget;
    Alcotest.test_case "L2 reset keeps the newest entry alone" `Quick
      test_l2_reset_rule;
    Alcotest.test_case "oversized entries are not cached" `Quick
      test_oversized_entries_not_cached;
    Alcotest.test_case "concurrent domains over one L2" `Quick
      test_concurrent_hammer;
  ]
