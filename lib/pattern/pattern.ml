type prop_pred = Exists | Eq of Lpp_pgraph.Value.t

type node_pat = {
  n_labels : int array;
  n_props : (int * prop_pred) array;
}

type rel_pat = {
  r_src : int;
  r_dst : int;
  r_types : int array;
  r_directed : bool;
  r_props : (int * prop_pred) array;
  r_hops : (int * int) option;
}

type t = { nodes : node_pat array; rels : rel_pat array }

let node_count t = Array.length t.nodes

let rel_count t = Array.length t.rels

let incident_rels t v =
  let acc = ref [] in
  Array.iteri
    (fun i r -> if r.r_src = v || r.r_dst = v then acc := i :: !acc)
    t.rels;
  List.rev !acc

let degree t v =
  Array.fold_left
    (fun acc r ->
      acc + (if r.r_src = v then 1 else 0) + if r.r_dst = v then 1 else 0)
    0 t.rels

let is_connected t =
  let n = node_count t in
  if n = 0 then false
  else begin
    let seen = Array.make n false in
    let rec visit v =
      if not seen.(v) then begin
        seen.(v) <- true;
        Array.iter
          (fun r ->
            if r.r_src = v then visit r.r_dst;
            if r.r_dst = v then visit r.r_src)
          t.rels
      end
    in
    visit 0;
    Array.for_all Fun.id seen
  end

let make ~nodes ~rels =
  if Array.length nodes = 0 then invalid_arg "Pattern.make: empty pattern";
  Array.iter
    (fun r ->
      if
        r.r_src < 0
        || r.r_src >= Array.length nodes
        || r.r_dst < 0
        || r.r_dst >= Array.length nodes
      then invalid_arg "Pattern.make: relationship endpoint out of range";
      match r.r_hops with
      | Some (lo, hi) when lo < 1 || hi < lo ->
          invalid_arg "Pattern.make: invalid hop range"
      | Some _ | None -> ())
    rels;
  let t = { nodes; rels } in
  if not (is_connected t) then invalid_arg "Pattern.make: pattern not connected";
  t

type node_spec = { labels : string list; props : (string * prop_pred) list }

type rel_spec = {
  src : int;
  dst : int;
  types : string list;
  directed : bool;
  rprops : (string * prop_pred) list;
  hops : (int * int) option;
}

let node_spec ?(labels = []) ?(props = []) () = { labels; props }

let rel_spec ?(types = []) ?(directed = true) ?(rprops = []) ?hops ~src ~dst () =
  { src; dst; types; directed; rprops; hops }

let sorted_ids id names =
  let arr = Array.of_list (List.map id names) in
  Array.sort Int.compare arr;
  arr

let sorted_props id props =
  let arr = Array.of_list (List.map (fun (k, p) -> (id k, p)) props) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
  arr

(* Read-only: a name the vocabulary lacks resolves to the vocabulary's size,
   an id no statistic, extent or property carries. *)
let resolve interner name =
  match Lpp_pgraph.Interner.find_opt interner name with
  | Some id -> id
  | None -> Lpp_pgraph.Interner.size interner

let of_spec graph node_specs rel_specs =
  let open Lpp_pgraph in
  let label_id = resolve (Graph.labels graph)
  and type_id = resolve (Graph.rel_types graph)
  and key_id = resolve (Graph.prop_keys graph) in
  let nodes =
    node_specs
    |> List.map (fun (s : node_spec) ->
           { n_labels = sorted_ids label_id s.labels;
             n_props = sorted_props key_id s.props })
    |> Array.of_list
  in
  let rels =
    rel_specs
    |> List.map (fun (s : rel_spec) ->
           {
             r_src = s.src;
             r_dst = s.dst;
             r_types = sorted_ids type_id s.types;
             r_directed = s.directed;
             r_props = sorted_props key_id s.rprops;
             r_hops = s.hops;
           })
    |> Array.of_list
  in
  make ~nodes ~rels

let label_total t =
  Array.fold_left (fun acc n -> acc + Array.length n.n_labels) 0 t.nodes

let prop_total t =
  Array.fold_left (fun acc n -> acc + Array.length n.n_props) 0 t.nodes
  + Array.fold_left (fun acc r -> acc + Array.length r.r_props) 0 t.rels

let size t = label_total t + rel_count t + prop_total t

let label_density t = float_of_int (label_total t) /. float_of_int (node_count t)

let has_properties t = prop_total t > 0

let has_var_length t =
  Array.exists (fun r -> r.r_hops <> None) t.rels

let pp_with ~redeclare ?(names = None) ppf t =
  let open Lpp_pgraph in
  (* an unknown name resolved to the vocabulary's size has no name *)
  let name vocab prefix id =
    match names with
    | Some g when id < Interner.size (vocab g) -> Interner.name (vocab g) id
    | Some _ | None -> prefix ^ string_of_int id
  in
  let label_name = name Graph.labels "L"
  and type_name = name Graph.rel_types "T"
  and key_name = name Graph.prop_keys "k" in
  let pp_props ppf props =
    if Array.length props > 0 then begin
      Format.fprintf ppf " {";
      Array.iteri
        (fun i (k, p) ->
          if i > 0 then Format.fprintf ppf ", ";
          match p with
          | Exists -> Format.fprintf ppf "%s" (key_name k)
          | Eq v -> Format.fprintf ppf "%s: %a" (key_name k) Value.pp v)
        props;
      Format.fprintf ppf "}"
    end
  in
  let seen = Array.make (Array.length t.nodes) false in
  let pp_node ppf i =
    let n = t.nodes.(i) in
    Format.fprintf ppf "(n%d" i;
    if redeclare || not seen.(i) then begin
      Array.iter (fun l -> Format.fprintf ppf ":%s" (label_name l)) n.n_labels;
      pp_props ppf n.n_props
    end;
    seen.(i) <- true;
    Format.fprintf ppf ")"
  in
  Array.iteri
    (fun i r ->
      if i > 0 then Format.fprintf ppf ", ";
      pp_node ppf r.r_src;
      let types =
        match Array.to_list r.r_types with
        | [] -> ""
        | ts -> ":" ^ String.concat "|" (List.map type_name ts)
      in
      Format.fprintf ppf "-[%s" types;
      (match r.r_hops with
      | None -> ()
      | Some (lo, hi) ->
          if lo = hi then Format.fprintf ppf "*%d" lo
          else Format.fprintf ppf "*%d..%d" lo hi);
      pp_props ppf r.r_props;
      Format.fprintf ppf "]-";
      if r.r_directed then Format.fprintf ppf ">";
      pp_node ppf r.r_dst)
    t.rels;
  if Array.length t.rels = 0 then pp_node ppf 0

let pp ?names ppf t = pp_with ~redeclare:true ?names ppf t
let pp_parseable ?names ppf t = pp_with ~redeclare:false ?names ppf t
