(* The estimator exactly as it stood before the frozen-catalog / session
   rewrite (lib/core/{label_probs,estimator}.ml at 9a5f01f), kept as the
   independent differential oracle of the [legacy] test group: a
   straightforward transcription of Algorithm 1 with hashtable-backed
   Label_probs, per-estimate state allocation, list-based representatives
   with List.sort, and uncached per-label degree lookups through the
   catalog's public API. Every estimate of [Lpp_core.Estimator] must equal
   this one bit for bit. Only [estimate] is used; nothing outside test/
   links this module. *)

open Lpp_pgraph
open Lpp_pattern
open Lpp_stats
open Lpp_core

module Label_probs = struct
  type t = { labels : int; vars : (int, float array) Hashtbl.t }

  let create ~labels = { labels; vars = Hashtbl.create 8 }

  let label_count t = t.labels

  let clamp p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p

  let introduce t ~var ~init =
    if Hashtbl.mem t.vars var then
      invalid_arg "Label_probs.introduce: variable already live";
    Hashtbl.add t.vars var (Array.init t.labels (fun l -> clamp (init l)))

  let drop t ~var = Hashtbl.remove t.vars var

  let is_live t ~var = Hashtbl.mem t.vars var

  let probs t var =
    match Hashtbl.find_opt t.vars var with
    | Some arr -> arr
    | None -> invalid_arg "Label_probs: variable not live"

  let get t ~var ~label = (probs t var).(label)

  let set t ~var ~label p = (probs t var).(label) <- clamp p

  let update_all t ~var ~f =
    let arr = probs t var in
    Array.iteri (fun l p -> arr.(l) <- clamp (f l p)) arr

  let positive_labels t ~var =
    let arr = probs t var in
    let acc = ref [] in
    for l = t.labels - 1 downto 0 do
      if arr.(l) > 0.0 then acc := l :: !acc
    done;
    !acc

  let live_vars t =
    Hashtbl.fold (fun v _ acc -> v :: acc) t.vars [] |> List.sort Int.compare
end


type state = {
  config : Config.t;
  catalog : Catalog.t;
  hierarchy : Label_hierarchy.t;  (* trivial when H_L is switched off *)
  partition : Label_partition.t;  (* trivial when D_L is switched off *)
  probs : Label_probs.t;
  rel_var_types : int array array;  (* rel var -> allowed types from Expand *)
  mutable card : float;
  mutable last_expand_factor : float;
      (* multiplier applied by the most recent Expand, for the triangle-aware
         MergeOn which re-bases the closing estimate on the wedge count *)
  mutable last_expand_dir : Direction.t;
}

let make_state config catalog (alg : Algebra.t) =
  let labels = Catalog.label_count catalog in
  {
    config;
    catalog;
    hierarchy =
      (if config.Config.use_hierarchy then Catalog.hierarchy catalog
       else Label_hierarchy.trivial labels);
    partition =
      (if config.Config.use_partition then Catalog.partition catalog
       else Label_partition.trivial labels);
    probs = Label_probs.create ~labels;
    rel_var_types = Array.make (max alg.rel_vars 1) [||];
    card = 0.0;
    last_expand_factor = 1.0;
    last_expand_dir = Direction.Out;
  }

let fi = float_of_int

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
  (* Labels interned after the catalog was built (e.g. a query naming a label
     the data never uses) have no statistics: the selection is empty. *)
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

let node_prop_owners st ~var =
  match Label_probs.positive_labels st.probs ~var with
  | [] -> [ Prop_stats.Any_node ]
  | labels -> List.map (fun l -> Prop_stats.Node_label l) labels

let rel_prop_owners st ~rvar =
  match Array.to_list st.rel_var_types.(rvar) with
  | [] -> [ Prop_stats.Any_rel ]
  | types -> List.map (fun t -> Prop_stats.Rel_type t) types

let avg_selectivity st owners (key, pred) =
  let stats = Catalog.props st.catalog in
  let sum =
    List.fold_left
      (fun acc owner -> acc +. Prop_stats.selectivity stats owner ~key pred)
      0.0 owners
  in
  safe_div sum (fi (List.length owners))

let apply_prop_selection st ~kind ~var ~props =
  match st.config.Config.property_mode with
  | Config.Fixed f ->
      (* Classical constant selectivity; predicates on the same entity are
         assumed fully correlated, so min over them is still [f]. *)
      st.card <- st.card *. f
  | Config.Use_stats -> begin
      let owners =
        match (kind : Algebra.var_kind) with
        | Node_var -> node_prop_owners st ~var
        | Rel_var -> rel_prop_owners st ~rvar:var
      in
      let overall =
        Array.fold_left
          (fun acc pred -> Float.min acc (avg_selectivity st owners pred))
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

(* Order the labels of one partition cluster: representative labels are those
   that cover most of the nodes matched by v (probability descending) and
   whose extent size is closest to the current result cardinality |R|
   (Section 5.4's ordering criterion). After a LabelSelection this ranks the
   selected label first, so its degree statistics dominate the Expand. *)
let order_cluster st ~prob cluster =
  let card = Float.max st.card 0.0 in
  let scored =
    Array.to_list cluster
    |> List.filter_map (fun l ->
           let p = prob l in
           if p <= 0.0 then None
           else Some (l, p, Float.abs (fi (Catalog.nc st.catalog l) -. card)))
  in
  List.sort
    (fun (_, p1, d1) (_, p2, d2) ->
      match Float.compare p2 p1 with
      | 0 -> Float.compare d1 d2
      | c -> c)
    scored
  |> List.map (fun (l, _, _) -> l)

(* P(v has ℓⱼ and none of the previously ranked labels), Equations 5–6. *)
let repr_prob st ~prob ~before lj =
  let p_lj = prob lj in
  if p_lj <= 0.0 then 0.0
  else if
    List.exists (fun l' -> Label_hierarchy.is_strict_sublabel st.hierarchy lj l') before
  then 0.0 (* ℓⱼ implies a negated superlabel *)
  else begin
    let maximal = Label_hierarchy.maximal_among st.hierarchy before in
    List.fold_left
      (fun acc l' ->
        let factor =
          if Label_hierarchy.is_strict_sublabel st.hierarchy l' lj then
            (* exact under the hierarchy: P(ℓⱼ ∧ ¬ℓ') = P(ℓⱼ) − P(ℓ') *)
            clamp01 (1.0 -. safe_div (prob l') p_lj)
          else clamp01 (1.0 -. prob l')
        in
        acc *. factor)
      p_lj maximal
  end

(* All (label, repr-probability) pairs across the partition, plus the label
   coverage (probability that the node carries at least one label). *)
let representatives st ~prob =
  let reprs = ref [] in
  let coverage = ref 0.0 in
  Array.iter
    (fun cluster ->
      let ordered = order_cluster st ~prob cluster in
      let rec go before = function
        | [] -> ()
        | lj :: rest ->
            let p = repr_prob st ~prob ~before lj in
            if p > 0.0 then begin
              reprs := (lj, p) :: !reprs;
              coverage := !coverage +. p
            end;
            go (lj :: before) rest
      in
      go [] ordered)
    (Label_partition.clusters st.partition);
  (List.rev !reprs, clamp01 !coverage)

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

(* One hop of expansion from a population described by [prob] (per-label
   probabilities). Returns the expansion factor and the per-label
   probabilities of the hop's endpoints. *)
let expand_step st ~types ~dir ~prob =
  let reprs, coverage = representatives st ~prob in
  let p_unlabeled = clamp01 (1.0 -. coverage) in
  let deg_of ?other l = degree st ~dir ~types ~node:(Some l) ~other in
  let deg_star ?other () = degree st ~dir ~types ~node:None ~other in
  let expansion =
    List.fold_left (fun acc (l, p) -> acc +. (p *. deg_of l)) 0.0 reprs
    +. (p_unlabeled *. deg_star ())
  in
  let target_prob =
    if st.config.Config.advanced_rc then fun l' ->
      let restricted =
        List.fold_left
          (fun acc (l, p) -> acc +. (p *. deg_of ~other:l' l))
          0.0 reprs
        +. (p_unlabeled *. deg_star ~other:l' ())
      in
      safe_div restricted expansion
    else begin
      (* Simple statistics: the share of qualifying relationship endpoints
         carrying ℓ', from reversed pair counts. *)
      let rev = Direction.reverse dir in
      let total = Catalog.simple_rc st.catalog ~dir:rev ~node:None ~types in
      fun l' ->
        let into =
          Catalog.simple_rc st.catalog ~dir:rev ~node:(Some l') ~types
        in
        safe_div (fi into) (fi total)
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
          safe_div (p *. deg_of l) expansion)
  | Some (lo, hi) ->
      (* Variable-length path (the paper's future-work extension): iterate the
         one-hop step, summing the path-count factors of every admissible
         length and mixing the endpoint label distributions by their weight.
         Hop-level edge isomorphism is ignored by the estimate (repeated
         relationships are a vanishing fraction on realistic graphs). *)
      let labels = Catalog.label_count st.catalog in
      let cur = Array.init labels src_prob in
      let factor = ref 1.0 in
      let total = ref 0.0 in
      let mix = Array.make labels 0.0 in
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
              safe_div (p *. deg_of l) expansion)
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
      let ordered = order_cluster st ~prob:prob_max cluster in
      let rec go before = function
        | [] -> ()
        | lj :: rest ->
            let pk = repr_prob st ~prob:prob_keep ~before lj in
            let pm = repr_prob st ~prob:prob_merge ~before lj in
            cov_keep := !cov_keep +. pk;
            cov_merge := !cov_merge +. pm;
            let n = Catalog.nc st.catalog lj in
            if n > 0 then labeled := !labeled +. (pk *. pm /. fi n);
            go (lj :: before) rest
      in
      go [] ordered)
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

let estimate config catalog (alg : Algebra.t) =
  let st = make_state config catalog alg in
  Array.iter (apply_op st) alg.ops;
  st.card

