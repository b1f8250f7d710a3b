type var_kind = Node_var | Rel_var

type op =
  | Get_nodes of { var : int }
  | Label_selection of { var : int; label : int }
  | Prop_selection of {
      kind : var_kind;
      var : int;
      props : (int * Pattern.prop_pred) array;
    }
  | Expand of {
      src_var : int;
      rel_var : int;
      dst_var : int;
      types : int array;
      dir : Lpp_pgraph.Direction.t;
      hops : (int * int) option;
    }
  | Merge_on of { keep : int; merge : int; cycle_len : int option }

type t = { ops : op array; node_vars : int; rel_vars : int }

let op_count t = Array.length t.ops

module Dataflow = struct
  type violation =
    | Node_var_out_of_range of int
    | Node_var_unbound of int
    | Node_var_rebound of int
    | Rel_var_out_of_range of int
    | Rel_var_unbound of int
    | Rel_var_rebound of int
    | Negative_label of int
    | Empty_prop_selection
    | Invalid_hop_range of int * int
    | Merge_self of int

  let message = function
    | Node_var_out_of_range v -> Printf.sprintf "node var %d out of range" v
    | Node_var_unbound v ->
        Printf.sprintf "node var %d used before introduction" v
    | Node_var_rebound v -> Printf.sprintf "node var %d introduced twice" v
    | Rel_var_out_of_range v -> Printf.sprintf "rel var %d out of range" v
    | Rel_var_unbound v -> Printf.sprintf "rel var %d used before introduction" v
    | Rel_var_rebound v -> Printf.sprintf "rel var %d introduced twice" v
    | Negative_label _ -> "negative label id"
    | Empty_prop_selection -> "empty property selection"
    | Invalid_hop_range _ -> "invalid hop range"
    | Merge_self _ -> "Merge_on of a variable with itself"

  type state = {
    s_nodes : bool array;
    s_rels : bool array;
    s_labels : int list array;  (* most-recent selection first *)
  }

  let labels_of st v =
    if v >= 0 && v < Array.length st.s_labels then List.rev st.s_labels.(v)
    else []

  let scan ?observe (alg : t) =
    let st =
      {
        s_nodes = Array.make (max alg.node_vars 1) false;
        s_rels = Array.make (max alg.rel_vars 1) false;
        s_labels = Array.make (max alg.node_vars 1) [];
      }
    in
    let out = ref [] in
    let report i v = out := (i, v) :: !out in
    let node_in_range v = v >= 0 && v < alg.node_vars in
    let rel_in_range v = v >= 0 && v < alg.rel_vars in
    (* On a violation we recover so the scan can keep reporting: an unbound
       use binds the variable, a rebinding keeps it bound. Every check keeps
       the order of the original single-error [validate], so the first
       violation of the scan is exactly the error it used to report. *)
    let use_node i v =
      if not (node_in_range v) then report i (Node_var_out_of_range v)
      else if not st.s_nodes.(v) then begin
        report i (Node_var_unbound v);
        st.s_nodes.(v) <- true
      end
    in
    let introduce_node i v =
      if not (node_in_range v) then report i (Node_var_out_of_range v)
      else if st.s_nodes.(v) then report i (Node_var_rebound v)
      else st.s_nodes.(v) <- true
    in
    let use_rel i v =
      if not (rel_in_range v) then report i (Rel_var_out_of_range v)
      else if not st.s_rels.(v) then begin
        report i (Rel_var_unbound v);
        st.s_rels.(v) <- true
      end
    in
    let introduce_rel i v =
      if not (rel_in_range v) then report i (Rel_var_out_of_range v)
      else if st.s_rels.(v) then report i (Rel_var_rebound v)
      else st.s_rels.(v) <- true
    in
    Array.iteri
      (fun i op ->
        (match observe with Some f -> f ~index:i op st | None -> ());
        match op with
        | Get_nodes { var } -> introduce_node i var
        | Label_selection { var; label } ->
            use_node i var;
            if label < 0 then report i (Negative_label label)
            else if node_in_range var then
              st.s_labels.(var) <- label :: st.s_labels.(var)
        | Prop_selection { kind; var; props } ->
            if Array.length props = 0 then report i Empty_prop_selection
            else begin
              match kind with
              | Node_var -> use_node i var
              | Rel_var -> use_rel i var
            end
        | Expand { src_var; rel_var; dst_var; types = _; dir = _; hops } ->
            (match hops with
            | Some (lo, hi) when lo < 1 || hi < lo ->
                report i (Invalid_hop_range (lo, hi))
            | Some _ | None -> ());
            use_node i src_var;
            introduce_node i dst_var;
            introduce_rel i rel_var
        | Merge_on { keep; merge; cycle_len = _ } ->
            use_node i keep;
            use_node i merge;
            if keep = merge then report i (Merge_self keep)
            else if node_in_range merge then begin
              st.s_nodes.(merge) <- false;
              if node_in_range keep then
                st.s_labels.(keep) <- st.s_labels.(merge) @ st.s_labels.(keep);
              st.s_labels.(merge) <- []
            end)
      alg.ops;
    List.rev !out
end

let validate t =
  match Dataflow.scan t with
  | [] -> Ok ()
  | (_, v) :: _ -> Error (Dataflow.message v)

let pp_props ppf props =
  Array.iteri
    (fun i (k, p) ->
      if i > 0 then Format.fprintf ppf ", ";
      match (p : Pattern.prop_pred) with
      | Exists -> Format.fprintf ppf "k%d" k
      | Eq v -> Format.fprintf ppf "k%d=%a" k Lpp_pgraph.Value.pp v)
    props

let pp_op ppf = function
  | Get_nodes { var } -> Format.fprintf ppf "GetNodes(v%d)" var
  | Label_selection { var; label } ->
      Format.fprintf ppf "LabelSel(v%d : L%d)" var label
  | Prop_selection { kind; var; props } ->
      let prefix = match kind with Node_var -> "v" | Rel_var -> "r" in
      Format.fprintf ppf "PropSel(%s%d {%a})" prefix var pp_props props
  | Expand { src_var; rel_var; dst_var; types; dir; hops } ->
      let hops_str =
        match hops with
        | None -> ""
        | Some (lo, hi) ->
            if lo = hi then Printf.sprintf "*%d" lo
            else Printf.sprintf "*%d..%d" lo hi
      in
      Format.fprintf ppf "Expand(v%d %a[r%d:%s%s] v%d)" src_var
        Lpp_pgraph.Direction.pp dir rel_var
        (String.concat "|"
           (Array.to_list (Array.map (fun t -> "T" ^ string_of_int t) types)))
        hops_str dst_var
  | Merge_on { keep; merge; cycle_len } ->
      Format.fprintf ppf "MergeOn(v%d = v%d%s)" keep merge
        (match cycle_len with
        | None -> ""
        | Some k -> Printf.sprintf ", %d-cycle" k)

let pp ppf t =
  Array.iteri
    (fun i op ->
      if i > 0 then Format.fprintf ppf " ; ";
      pp_op ppf op)
    t.ops
