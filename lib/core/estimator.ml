open Lpp_pgraph
open Lpp_pattern
open Lpp_stats

(* A session bundles the resolved configuration with every piece of mutable
   state an estimate needs, so a workload amortises all allocation: the label
   probability matrix, the representative/ordering scratch arrays, and the
   degree-vector cache (session-lifetime: a catalog never changes) are
   created once in [make] and reset by [begin_estimate]. One session serves
   one domain; concurrent use from several domains needs one session each
   (see Lpp_harness.Technique). *)

type deg_entry = {
  de_dir : Direction.t;
  de_types : int array;
  de_degs : float array;
      (* index 0 = wildcard [*], l+1 = label l; NaN marks a slot not yet
         computed — degrees are filled lazily because an Expand only touches
         the representative labels plus whatever the source update needs *)
}

type session = {
  config : Config.t;
  checks : bool;
  catalog : Catalog.t;
  hierarchy : Label_hierarchy.t;  (* trivial when H_L is switched off *)
  partition : Label_partition.t;  (* trivial when D_L is switched off *)
  probs : Label_probs.t;
  labels : int;
  mutable rel_var_types : int array array;  (* rel var -> allowed types *)
  mutable card : float;
  mutable last_expand_factor : float;
      (* multiplier applied by the most recent Expand, for the triangle-aware
         MergeOn which re-bases the closing estimate on the wedge count *)
  mutable last_expand_dir : Direction.t;
  (* ---- reusable scratch, valid only within one operator application ---- *)
  pos_buf : int array;  (* positive_labels target *)
  ord_buf : int array;  (* one cluster's labels, ranked *)
  ord_p : float array;  (* ranking keys, parallel to ord_buf *)
  ord_d : float array;
  ord_dom : bool array;
      (* ord_dom.(a): ord_buf.(a) is a strict sublabel of some already-ranked
         label — maintained incrementally by [note_ranked] as the ranked
         prefix grows, so [repr_prob] reads it in O(1) per factor *)
  repr_labels : int array;  (* representatives across all clusters *)
  repr_probs : float array;
  varlen_cur : float array;  (* hop-mixing state for variable-length paths *)
  varlen_mix : float array;
  rc_row_buf : int array;  (* one Catalog.rc_row result *)
  tp_buf : float array;  (* the advanced target-probability numerators *)
  mutable deg_entries : deg_entry list;  (* per-(dir, types) cache *)
  mutable deg_count : int;  (* length of deg_entries *)
}

(* deg_entries survives across estimates (degrees are deterministic in the
   counters of an immutable catalog, so reuse is bit-identical), bounded so
   adversarial type-set diversity cannot grow the list without limit. *)
let max_deg_entries = 64

let make ?(checks = false) config catalog =
  let labels = Catalog.label_count catalog in
  let n = max labels 1 in
  {
    config;
    checks;
    catalog;
    hierarchy =
      (if config.Config.use_hierarchy then Catalog.hierarchy catalog
       else Label_hierarchy.trivial labels);
    partition =
      (if config.Config.use_partition then Catalog.partition catalog
       else Label_partition.trivial labels);
    probs = Label_probs.create ~labels ();
    labels;
    rel_var_types = Array.make 8 [||];
    card = 0.0;
    last_expand_factor = 1.0;
    last_expand_dir = Direction.Out;
    pos_buf = Array.make n 0;
    ord_buf = Array.make n 0;
    ord_p = Array.make n 0.0;
    ord_d = Array.make n 0.0;
    ord_dom = Array.make n false;
    repr_labels = Array.make n 0;
    repr_probs = Array.make n 0.0;
    varlen_cur = Array.make labels 0.0;
    varlen_mix = Array.make labels 0.0;
    rc_row_buf = Array.make labels 0;
    tp_buf = Array.make labels 0.0;
    deg_entries = [];
    deg_count = 0;
  }

let begin_estimate st (alg : Algebra.t) =
  Label_probs.reset st.probs;
  if Array.length st.rel_var_types < alg.rel_vars then
    st.rel_var_types <-
      Array.make (max alg.rel_vars (2 * Array.length st.rel_var_types)) [||]
  else Array.fill st.rel_var_types 0 (Array.length st.rel_var_types) [||];
  st.card <- 0.0;
  st.last_expand_factor <- 1.0;
  st.last_expand_dir <- Direction.Out

let fi = float_of_int

(* Observability: per-operator spans and counters. Metrics are registered
   once at module initialisation; each write site costs one load and one
   branch while the global [Lpp_obs] switch is off, and [session_estimate]
   picks the spanned or an untraced step once per estimate (see [walk]), so
   disabled estimates run the exact pre-instrumentation float sequence. *)
let m_estimates = Lpp_obs.Metrics.counter "estimator.estimates"

let m_deg_hit = Lpp_obs.Metrics.counter "estimator.degcache.hit"

let m_deg_fill = Lpp_obs.Metrics.counter "estimator.degcache.fill"

let h_card_out = Lpp_obs.Metrics.histogram "estimator.card_out"

let h_live_vars = Lpp_obs.Metrics.histogram "estimator.label_map.live_vars"

let c_get_nodes = Lpp_obs.Metrics.counter "estimator.op.get_nodes"

let c_label_sel = Lpp_obs.Metrics.counter "estimator.op.label_selection"

let c_prop_sel = Lpp_obs.Metrics.counter "estimator.op.prop_selection"

let c_expand = Lpp_obs.Metrics.counter "estimator.op.expand"

let c_merge_on = Lpp_obs.Metrics.counter "estimator.op.merge_on"

(* Static names: span recording must not allocate per operator. *)
let op_name (op : Algebra.op) =
  match op with
  | Get_nodes _ -> "GetNodes"
  | Label_selection _ -> "LabelSelection"
  | Prop_selection _ -> "PropertySelection"
  | Expand _ -> "Expand"
  | Merge_on _ -> "MergeOn"

let op_counter (op : Algebra.op) =
  match op with
  | Get_nodes _ -> c_get_nodes
  | Label_selection _ -> c_label_sel
  | Prop_selection _ -> c_prop_sel
  | Expand _ -> c_expand
  | Merge_on _ -> c_merge_on

let safe_div num den = if den <= 0.0 then 0.0 else num /. den

let clamp01 p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p

(* ------------------------------------------------------------------ *)
(* GetNodes (Section 5.1)                                              *)
(* ------------------------------------------------------------------ *)

let apply_get_nodes st ~var =
  let total = fi (Catalog.nc_star st.catalog) in
  st.card <- total;
  Label_probs.introduce st.probs ~var ~init:(fun l ->
      safe_div (fi (Catalog.nc st.catalog l)) total)

(* ------------------------------------------------------------------ *)
(* LabelSelection (Section 5.2)                                        *)
(* ------------------------------------------------------------------ *)

let apply_label_selection st ~var ~label =
  (* A label id with no catalog counter has no statistics: the selection is
     empty. An unknown query label is one: names are resolved against the
     vocabulary, never written into it, and a missing one maps to the
     vocabulary's size. *)
  if label < 0 || label >= Label_probs.label_count st.probs then begin
    st.card <- 0.0;
    Label_probs.update_all st.probs ~var ~f:(fun _ _ -> 0.0)
  end
  else begin
  let p_sel = Label_probs.get st.probs ~var ~label in
  st.card <- st.card *. p_sel;
  if p_sel <= 0.0 then
    (* Contradictory selection: the variable now provably has [label] in an
       empty result; only implied superlabels keep probability 1. *)
    Label_probs.update_all st.probs ~var ~f:(fun l _ ->
        if l = label || Label_hierarchy.is_strict_sublabel st.hierarchy label l
        then 1.0
        else 0.0)
  else
    Label_probs.update_all st.probs ~var ~f:(fun l p ->
        if l = label then 1.0 (* case 1 *)
        else if Label_hierarchy.is_strict_sublabel st.hierarchy label l then
          1.0 (* case 2: selected label is a sublabel of l *)
        else if Label_hierarchy.is_strict_sublabel st.hierarchy l label then
          p /. p_sel (* case 3: l is a sublabel of the selected label *)
        else if Label_partition.disjoint st.partition label l then 0.0
          (* case 5 *)
        else p (* case 4: overlapping, independence keeps P(l) *))
  end

(* ------------------------------------------------------------------ *)
(* PropertySelection (Section 5.3)                                     *)
(* ------------------------------------------------------------------ *)

(* sel averaged over the owners of Section 5.3's set L': the positive-prob
   labels of a node variable (in st.pos_buf, [n] of them; none = Any_node)
   or the allowed types of a relationship variable (none = Any_rel). *)
let avg_node_selectivity st ~n (key, pred) =
  let stats = Catalog.props st.catalog in
  if n = 0 then Prop_stats.selectivity stats Prop_stats.Any_node ~key pred
  else begin
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum :=
        !sum
        +. Prop_stats.selectivity stats
             (Prop_stats.Node_label st.pos_buf.(i))
             ~key pred
    done;
    safe_div !sum (fi n)
  end

let avg_rel_selectivity st ~rvar (key, pred) =
  let stats = Catalog.props st.catalog in
  let types = st.rel_var_types.(rvar) in
  let n = Array.length types in
  if n = 0 then Prop_stats.selectivity stats Prop_stats.Any_rel ~key pred
  else begin
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum :=
        !sum
        +. Prop_stats.selectivity stats (Prop_stats.Rel_type types.(i)) ~key pred
    done;
    safe_div !sum (fi n)
  end

let apply_prop_selection st ~kind ~var ~props =
  match st.config.Config.property_mode with
  | Config.Fixed f ->
      (* Classical constant selectivity; predicates on the same entity are
         assumed fully correlated, so min over them is still [f]. *)
      st.card <- st.card *. f
  | Config.Use_stats -> begin
      let overall =
        match (kind : Algebra.var_kind) with
        | Node_var ->
            let n = Label_probs.positive_labels st.probs ~var ~buf:st.pos_buf in
            Array.fold_left
              (fun acc pred -> Float.min acc (avg_node_selectivity st ~n pred))
              1.0 props
        | Rel_var ->
            Array.fold_left
              (fun acc pred ->
                Float.min acc (avg_rel_selectivity st ~rvar:var pred))
              1.0 props
      in
      st.card <- st.card *. overall;
      match kind with
      | Rel_var -> ()
      | Node_var ->
          (* Bayes: P(ℓ | predicates) = P(ℓ) · sel(ℓ) / overall. Labels whose
             own selectivity is zero drop out; labels satisfying the
             predicates more often than average gain probability. *)
          let stats = Catalog.props st.catalog in
          Label_probs.update_all st.probs ~var ~f:(fun l p ->
              if p <= 0.0 then 0.0
              else begin
                let min_sel_for_label =
                  Array.fold_left
                    (fun acc (key, pred) ->
                      Float.min acc
                        (Prop_stats.selectivity stats (Node_label l) ~key pred))
                    1.0 props
                in
                if min_sel_for_label <= 0.0 then 0.0
                else safe_div (p *. min_sel_for_label) overall
              end)
    end

(* ------------------------------------------------------------------ *)
(* Representative labels (shared by Expand and MergeOn, Sections 5.4/5.5) *)
(* ------------------------------------------------------------------ *)

(* Order the labels of one partition cluster into st.ord_buf[0..n-1] and
   return n: representative labels are those that cover most of the nodes
   matched by v (probability descending) and whose extent size is closest to
   the current result cardinality |R| (Section 5.4's ordering criterion).
   After a LabelSelection this ranks the selected label first, so its degree
   statistics dominate the Expand. The insertion sort is stable, matching the
   List.sort-based ranking this replaced (clusters are ascending, so full
   ties stay in label order). *)
let order_cluster_into st ~prob cluster =
  let card = Float.max st.card 0.0 in
  let n = ref 0 in
  Array.iter
    (fun l ->
      let p = prob l in
      if p > 0.0 then begin
        let d = Float.abs (fi (Catalog.nc st.catalog l) -. card) in
        let i = ref !n in
        while
          !i > 0
          && (st.ord_p.(!i - 1) < p
             || (st.ord_p.(!i - 1) = p && st.ord_d.(!i - 1) > d))
        do
          st.ord_buf.(!i) <- st.ord_buf.(!i - 1);
          st.ord_p.(!i) <- st.ord_p.(!i - 1);
          st.ord_d.(!i) <- st.ord_d.(!i - 1);
          decr i
        done;
        st.ord_buf.(!i) <- l;
        st.ord_p.(!i) <- p;
        st.ord_d.(!i) <- d;
        incr n
      end)
    cluster;
  !n

(* Grow the ranked prefix to include st.ord_buf.(len): refresh its dominated
   flag against the earlier ranks and propagate its negation down to them.
   Callers invoke this after processing rank [len], keeping st.ord_dom exact
   for every subsequent [repr_prob ~len:(len+1)] — O(len) here instead of the
   O(len²) rescan per representative this replaced, which made deep ranked
   prefixes (hierarchy configs leave all labels in one cluster) cubic in the
   number of positive labels. *)
let note_ranked st ~len =
  let m = st.ord_buf.(len) in
  let dominated = ref false in
  for b = 0 to len - 1 do
    if
      (not !dominated)
      && Label_hierarchy.is_strict_sublabel st.hierarchy m st.ord_buf.(b)
    then dominated := true;
    if
      (not st.ord_dom.(b))
      && Label_hierarchy.is_strict_sublabel st.hierarchy st.ord_buf.(b) m
    then st.ord_dom.(b) <- true
  done;
  st.ord_dom.(len) <- !dominated

(* P(v has ℓⱼ and none of the previously ranked labels), Equations 5–6. The
   previously ranked labels are st.ord_buf[0..len-1]; negation factors are
   multiplied most-recently-ranked first over the hierarchy-maximal ones
   (st.ord_dom flags the dominated ranks), reproducing the exact
   float-product order of the list-based code. *)
let repr_prob st ~prob ~len lj =
  let p_lj = prob lj in
  if p_lj <= 0.0 then 0.0
  else begin
    let implies_negated = ref false in
    let a = ref 0 in
    while (not !implies_negated) && !a < len do
      if Label_hierarchy.is_strict_sublabel st.hierarchy lj st.ord_buf.(!a)
      then implies_negated := true;
      incr a
    done;
    if !implies_negated then 0.0 (* ℓⱼ implies a negated superlabel *)
    else begin
      let acc = ref p_lj in
      for a = len - 1 downto 0 do
        if not st.ord_dom.(a) then begin
          let l' = st.ord_buf.(a) in
          let factor =
            if Label_hierarchy.is_strict_sublabel st.hierarchy l' lj then
              (* exact under the hierarchy: P(ℓⱼ ∧ ¬ℓ') = P(ℓⱼ) − P(ℓ') *)
              clamp01 (1.0 -. safe_div (prob l') p_lj)
            else clamp01 (1.0 -. prob l')
          in
          acc := !acc *. factor
        end
      done;
      !acc
    end
  end

(* All (label, repr-probability) pairs across the partition — written into
   st.repr_labels/st.repr_probs, count returned — plus the label coverage
   (probability that the node carries at least one label). *)
let representatives_into st ~prob =
  let count = ref 0 in
  let coverage = ref 0.0 in
  Array.iter
    (fun cluster ->
      let n = order_cluster_into st ~prob cluster in
      for j = 0 to n - 1 do
        let lj = st.ord_buf.(j) in
        let p = repr_prob st ~prob ~len:j lj in
        if p > 0.0 then begin
          st.repr_labels.(!count) <- lj;
          st.repr_probs.(!count) <- p;
          incr count;
          coverage := !coverage +. p
        end;
        if j < n - 1 then note_ranked st ~len:j
      done)
    (Label_partition.clusters st.partition);
  (!count, clamp01 !coverage)

(* ------------------------------------------------------------------ *)
(* Expand (Section 5.4)                                                *)
(* ------------------------------------------------------------------ *)

let degree st ~dir ~types ~node ~other =
  let count = Catalog.rc st.catalog ~dir ~node ~types ~other in
  let base =
    match node with
    | Some l -> Catalog.nc st.catalog l
    | None -> Catalog.nc_star st.catalog
  in
  safe_div (fi count) (fi base)

let types_equal a b =
  a == b
  || (Array.length a = Array.length b
     && begin
          let i = ref 0 in
          while !i < Array.length a && a.(!i) = b.(!i) do
            incr i
          done;
          !i = Array.length a
        end)

(* The unrestricted degree vector of one (dir, types) pair, cached for the
   rest of the estimate: repeated Expands over the same type set (chains,
   stars, variable-length hops) reuse it instead of recomputing deg_of for
   every label. Restricted degrees (~other) are not cached — they are touched
   once per (repr, target) pair within a single Expand. *)
let deg_vector st ~dir ~types =
  match
    List.find_opt
      (fun e -> e.de_dir = dir && types_equal e.de_types types)
      st.deg_entries
  with
  | Some e -> e.de_degs
  | None ->
      if st.deg_count >= max_deg_entries then begin
        st.deg_entries <- [];
        st.deg_count <- 0
      end;
      let degs = Array.make (st.labels + 1) Float.nan in
      st.deg_entries <-
        { de_dir = dir; de_types = Array.copy types; de_degs = degs }
        :: st.deg_entries;
      st.deg_count <- st.deg_count + 1;
      degs

let cached_deg st degs ~dir ~types node =
  let idx = match node with None -> 0 | Some l -> l + 1 in
  let v = degs.(idx) in
  if v = v then begin
    (* filled: degrees are never NaN *)
    if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_deg_hit;
    v
  end
  else begin
    if !Lpp_obs.Obs.live then Lpp_obs.Metrics.incr m_deg_fill;
    let d = degree st ~dir ~types ~node ~other:None in
    degs.(idx) <- d;
    d
  end

(* One hop of expansion from a population described by [prob] (per-label
   probabilities). Returns the expansion factor, the per-label probabilities
   of the hop's endpoints, and the (cached) unrestricted degree function. *)
let expand_step st ~types ~dir ~prob =
  let repr_count, coverage = representatives_into st ~prob in
  let p_unlabeled = clamp01 (1.0 -. coverage) in
  let degs = deg_vector st ~dir ~types in
  let deg_of l = cached_deg st degs ~dir ~types (Some l) in
  let deg_star () = cached_deg st degs ~dir ~types None in
  let expansion =
    let acc = ref 0.0 in
    for i = 0 to repr_count - 1 do
      acc := !acc +. (st.repr_probs.(i) *. deg_of st.repr_labels.(i))
    done;
    !acc +. (p_unlabeled *. deg_star ())
  in
  let target_prob =
    if st.config.Config.advanced_rc then begin
      (* Whole-row formulation: fetch each representative's restricted
         relationship counts as one [Catalog.rc_row] sweep and accumulate the
         probability-weighted degrees into [tp_buf] slot by slot. Per target
         label the additions run in the same order as the former
         per-ℓ' fold over representatives (then the unlabeled term), so the
         floats are bit-identical — only the count lookups are batched. *)
      let row = st.rc_row_buf and tp = st.tp_buf in
      Array.fill tp 0 st.labels 0.0;
      for i = 0 to repr_count - 1 do
        let l = st.repr_labels.(i) and p = st.repr_probs.(i) in
        Catalog.rc_row st.catalog ~dir ~node:(Some l) ~types ~row;
        let base = fi (Catalog.nc st.catalog l) in
        for l' = 0 to st.labels - 1 do
          tp.(l') <- tp.(l') +. (p *. safe_div (fi row.(l')) base)
        done
      done;
      Catalog.rc_row st.catalog ~dir ~node:None ~types ~row;
      let base = fi (Catalog.nc_star st.catalog) in
      for l' = 0 to st.labels - 1 do
        tp.(l') <- tp.(l') +. (p_unlabeled *. safe_div (fi row.(l')) base)
      done;
      (* reads the tp scratch: consume before the next Expand *)
      fun l' -> safe_div tp.(l') expansion
    end
    else begin
      (* Simple statistics: the share of qualifying relationship endpoints
         carrying ℓ', from reversed pair counts. [simple_rc ~dir:rev
         ~node:(Some l')] equals [rc ~dir ~node:None ~other:(Some l')] —
         swapping which endpoint is "the node" mirrors the direction — so the
         whole numerator row is one [rc_row] sweep. *)
      let rev = Direction.reverse dir in
      let total = Catalog.simple_rc st.catalog ~dir:rev ~node:None ~types in
      let row = st.rc_row_buf in
      Catalog.rc_row st.catalog ~dir ~node:None ~types ~row;
      (* reads the row scratch: consume before the next Expand *)
      fun l' -> safe_div (fi row.(l')) (fi total)
    end
  in
  (expansion, target_prob, deg_of)

let apply_expand st ~src_var ~rel_var ~dst_var ~types ~dir ~hops =
  st.rel_var_types.(rel_var) <- types;
  st.last_expand_dir <- dir;
  let src_prob l = Label_probs.get st.probs ~var:src_var ~label:l in
  match hops with
  | None ->
      let expansion, target_prob, deg_of = expand_step st ~types ~dir ~prob:src_prob in
      st.card <- st.card *. expansion;
      st.last_expand_factor <- expansion;
      Label_probs.introduce st.probs ~var:dst_var ~init:target_prob;
      (* Updated probabilities for the source variable: high-degree nodes are
         over-represented after expansion (Section 5.4, final equation). *)
      Label_probs.update_all st.probs ~var:src_var ~f:(fun l p ->
          if p <= 0.0 then 0.0 else safe_div (p *. deg_of l) expansion)
  | Some (lo, hi) ->
      (* Variable-length path (the paper's future-work extension): iterate the
         one-hop step, summing the path-count factors of every admissible
         length and mixing the endpoint label distributions by their weight.
         Hop-level edge isomorphism is ignored by the estimate (repeated
         relationships are a vanishing fraction on realistic graphs). *)
      let labels = st.labels in
      let cur = st.varlen_cur and mix = st.varlen_mix in
      for l = 0 to labels - 1 do
        cur.(l) <- src_prob l;
        mix.(l) <- 0.0
      done;
      let factor = ref 1.0 in
      let total = ref 0.0 in
      let first_hop_deg = ref None in
      for k = 1 to hi do
        let expansion, target_prob, deg_of =
          expand_step st ~types ~dir ~prob:(fun l -> cur.(l))
        in
        if k = 1 then first_hop_deg := Some (deg_of, expansion);
        factor := !factor *. expansion;
        for l = 0 to labels - 1 do
          cur.(l) <- clamp01 (target_prob l)
        done;
        if k >= lo then begin
          total := !total +. !factor;
          for l = 0 to labels - 1 do
            mix.(l) <- mix.(l) +. (!factor *. cur.(l))
          done
        end
      done;
      let total_factor = !total in
      st.card <- st.card *. total_factor;
      st.last_expand_factor <- total_factor;
      Label_probs.introduce st.probs ~var:dst_var ~init:(fun l ->
          safe_div mix.(l) total_factor);
      (* Source-variable re-weighting uses the first hop's degrees, the
         dominant effect for short ranges. *)
      (match !first_hop_deg with
      | Some (deg_of, expansion) when expansion > 0.0 ->
          Label_probs.update_all st.probs ~var:src_var ~f:(fun l p ->
              if p <= 0.0 then 0.0 else safe_div (p *. deg_of l) expansion)
      | Some _ | None -> ())

(* ------------------------------------------------------------------ *)
(* MergeOn (Section 5.5)                                               *)
(* ------------------------------------------------------------------ *)

(* Triangle-aware closing (extension): a MergeOn that closes a 3-cycle
   immediately after its Expand can be estimated as
     |wedges| · closure-rate
   instead of |wedges| · deg · P(same node). We re-base on the pre-Expand
   cardinality (the wedge estimate) and multiply by the global wedge-closure
   rate. The closing relationship's type constraint is not conditioned on —
   a per-type census would refine this further. *)
let apply_triangle_merge st ~keep ~merge =
  let ts = Catalog.triangles st.catalog in
  let rate =
    match st.last_expand_dir with
    | Direction.Out | Direction.In -> ts.Triangle_stats.rate_directed
    | Direction.Both -> ts.Triangle_stats.rate_undirected
  in
  let wedges = safe_div st.card st.last_expand_factor in
  let merged = wedges *. rate in
  let reduction = safe_div merged (Float.max st.card 1e-300) in
  st.card <- merged;
  let prob_merge l = Label_probs.get st.probs ~var:merge ~label:l in
  Label_probs.update_all st.probs ~var:keep ~f:(fun l pk ->
      let combined = Float.min pk (prob_merge l) in
      if reduction <= 0.0 then 0.0 else clamp01 (combined /. reduction));
  Label_probs.drop st.probs ~var:merge

let apply_merge_on st ~keep ~merge =
  let prob_keep l = Label_probs.get st.probs ~var:keep ~label:l in
  let prob_merge l = Label_probs.get st.probs ~var:merge ~label:l in
  (* Rank clusters by the max of both variables' probabilities, then compute
     per-variable representative probabilities along the shared order. *)
  let prob_max l = Float.max (prob_keep l) (prob_merge l) in
  let labeled = ref 0.0 in
  let cov_keep = ref 0.0 and cov_merge = ref 0.0 in
  Array.iter
    (fun cluster ->
      let n = order_cluster_into st ~prob:prob_max cluster in
      for j = 0 to n - 1 do
        let lj = st.ord_buf.(j) in
        let pk = repr_prob st ~prob:prob_keep ~len:j lj in
        let pm = repr_prob st ~prob:prob_merge ~len:j lj in
        cov_keep := !cov_keep +. pk;
        cov_merge := !cov_merge +. pm;
        let c = Catalog.nc st.catalog lj in
        if c > 0 then labeled := !labeled +. (pk *. pm /. fi c);
        if j < n - 1 then note_ranked st ~len:j
      done)
    (Label_partition.clusters st.partition);
  let unl_keep = clamp01 (1.0 -. !cov_keep) in
  let unl_merge = clamp01 (1.0 -. !cov_merge) in
  let unlabeled =
    safe_div (unl_keep *. unl_merge) (fi (Catalog.nc_star st.catalog))
  in
  let reduction = !labeled +. unlabeled in
  st.card <- st.card *. reduction;
  Label_probs.update_all st.probs ~var:keep ~f:(fun l pk ->
      let combined = Float.min pk (prob_merge l) in
      if reduction <= 0.0 then 0.0 else clamp01 (combined /. reduction));
  Label_probs.drop st.probs ~var:merge

(* ------------------------------------------------------------------ *)
(* Algorithm 1                                                         *)
(* ------------------------------------------------------------------ *)

let apply_op st (op : Algebra.op) =
  (match op with
  | Get_nodes { var } -> apply_get_nodes st ~var
  | Label_selection { var; label } -> apply_label_selection st ~var ~label
  | Prop_selection { kind; var; props } ->
      apply_prop_selection st ~kind ~var ~props
  | Expand { src_var; rel_var; dst_var; types; dir; hops } ->
      apply_expand st ~src_var ~rel_var ~dst_var ~types ~dir ~hops
  | Merge_on { keep; merge; cycle_len } ->
      if st.config.Config.use_triangles && cycle_len = Some 3 then
        apply_triangle_merge st ~keep ~merge
      else apply_merge_on st ~keep ~merge);
  if st.card < 0.0 then st.card <- 0.0

(* Runtime assertion mode (opt-in, [make ~checks:true]): after every operator
   the invariants the soundness verifier proves statically — cardinality
   finite and ≥ 0, every live probability in [0, 1] — are re-checked against
   the actual state, failing loudly instead of propagating garbage. *)
let assert_sound st i op =
  let bad fmt = Format.kasprintf failwith fmt in
  if Float.is_nan st.card || st.card = Float.infinity || st.card < 0.0 then
    bad "estimator soundness violated after op %d (%a): cardinality %h" i
      Algebra.pp_op op st.card;
  List.iter
    (fun var ->
      for label = 0 to Label_probs.label_count st.probs - 1 do
        let p = Label_probs.get st.probs ~var ~label in
        if Float.is_nan p || p < 0.0 || p > 1.0 then
          bad "estimator soundness violated after op %d (%a): P(v%d:L%d) = %h"
            i Algebra.pp_op op var label p
      done)
    (Label_probs.live_vars st.probs)

(* The one walk over an operator sequence (Algorithm 1's loop). What happens
   at each operator — plain, checked, spanned or recording — is a [step]
   chosen once per estimate, so the loop itself never branches on modes. *)
let walk st (alg : Algebra.t) step =
  for i = 0 to Array.length alg.ops - 1 do
    step st i alg.ops.(i)
  done

let plain_step st _ op = apply_op st op

let checked_step st i op =
  apply_op st op;
  assert_sound st i op

(* Traced step, reached only when the global switch is on: one span per
   operator, nested in the enclosing "estimate" span, carrying input/output
   cardinality and the live variable count of the label probability matrix.
   The other steps never touch Lpp_obs, so disabled estimates are
   bit-identical. *)
let spanned_step st i op =
  let card_in = st.card in
  Lpp_obs.Metrics.incr (op_counter op);
  Lpp_obs.Trace.begin_span ~cat:"estimator" (op_name op);
  (try
     apply_op st op;
     if st.checks then assert_sound st i op
   with e ->
     Lpp_obs.Trace.end_span ();
     raise e);
  let live = fi (List.length (Label_probs.live_vars st.probs)) in
  Lpp_obs.Metrics.observe h_live_vars live;
  Lpp_obs.Trace.end_span
    ~args:[| ("card_in", card_in); ("card_out", st.card); ("live_vars", live) |]
    ()

let session_estimate st (alg : Algebra.t) =
  begin_estimate st alg;
  if Lpp_obs.Obs.enabled () then begin
    Lpp_obs.Trace.begin_span ~cat:"estimator" "estimate";
    (try walk st alg spanned_step
     with e ->
       Lpp_obs.Trace.end_span ();
       raise e);
    Lpp_obs.Metrics.incr m_estimates;
    Lpp_obs.Metrics.observe h_card_out st.card;
    Lpp_obs.Trace.end_span
      ~args:[| ("ops", fi (Array.length alg.ops)); ("card", st.card) |] ()
  end
  else walk st alg (if st.checks then checked_step else plain_step);
  st.card

let session_estimate_pattern st pattern =
  session_estimate st (Planner.plan pattern)

let estimate config catalog (alg : Algebra.t) =
  session_estimate (make config catalog) alg

let estimate_pattern config catalog pattern =
  estimate config catalog (Planner.plan pattern)

let trace config catalog (alg : Algebra.t) =
  let st = make config catalog in
  begin_estimate st alg;
  let steps = ref [] in
  walk st alg (fun st _ op ->
      apply_op st op;
      steps := (op, st.card) :: !steps);
  List.rev !steps

let memory_bytes (config : Config.t) catalog =
  let required =
    if config.advanced_rc then Catalog.memory_bytes_advanced catalog
    else Catalog.memory_bytes_simple catalog
  in
  let hierarchy =
    if config.use_hierarchy then
      Label_hierarchy.memory_bytes (Catalog.hierarchy catalog)
    else 0
  in
  let partition =
    if config.use_partition then
      Label_partition.memory_bytes (Catalog.partition catalog)
    else 0
  in
  let props =
    match config.property_mode with
    | Use_stats -> Catalog.memory_bytes_props catalog
    | Fixed _ -> 0
  in
  required + hierarchy + partition + props
