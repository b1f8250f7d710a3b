open Lpp_pgraph
open Lpp_pattern

type mapping = { node_bind : (int * int) list; rel_bind : (int * int list) list }

let bind assoc var value =
  let rec go = function
    | [] -> [ (var, value) ]
    | (v, _) :: _ as rest when var < v -> (var, value) :: rest
    | (v, x) :: rest when v = var ->
        (* rebinding an existing variable is a programming error upstream *)
        assert (x = value);
        (v, x) :: rest
    | pair :: rest -> pair :: go rest
  in
  go assoc

let lookup assoc var = List.assoc var assoc

let drop assoc var = List.remove_assoc var assoc

let prop_ok = Matcher.prop_ok

(* One operator applied to a full intermediate result. *)
let apply_op ~edge_iso g mappings (op : Algebra.op) =
  match op with
  | Get_nodes { var } ->
      (* GetNodes is always the first operator in our sequences; applying it
         to a non-empty input would be a cross product, which the algebra of
         the paper never produces. *)
      assert (mappings = [ { node_bind = []; rel_bind = [] } ]);
      Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
          { node_bind = [ (var, n) ]; rel_bind = [] } :: acc)
  | Label_selection { var; label } ->
      List.filter
        (fun m -> Graph.node_has_label g (lookup m.node_bind var) label)
        mappings
  | Prop_selection { kind; var; props } ->
      List.filter
        (fun m ->
          match kind with
          | Algebra.Node_var ->
              let entity_props = Graph.node_props g (lookup m.node_bind var) in
              Array.for_all (fun (k, pred) -> prop_ok entity_props k pred) props
          | Algebra.Rel_var ->
              (* a variable-length binding satisfies the predicates iff
                 every hop does, matching how the matcher filters hops *)
              List.for_all
                (fun r ->
                  Array.for_all
                    (fun (k, pred) -> prop_ok (Graph.rel_props g r) k pred)
                    props)
                (lookup m.rel_bind var))
        mappings
  | Expand { src_var; rel_var; dst_var; types; dir; hops } ->
      let type_ok t = Array.length types = 0 || Array.exists (( = ) t) types in
      let out = ref [] in
      List.iter
        (fun m ->
          let bound_elsewhere r =
            List.exists (fun (_, rs) -> List.mem r rs) m.rel_bind
          in
          (* iterate qualifying relationships around [u] not in [path] *)
          let iter_hops u path f =
            let consider r other =
              if
                type_ok (Graph.rel_type g r)
                && ((not edge_iso)
                   || ((not (bound_elsewhere r)) && not (List.mem r path)))
              then f r other
            in
            let scan_out () =
              Graph.iter_out_rels g u (fun r -> consider r (Graph.rel_dst g r))
            in
            let scan_in ~skip_loops =
              Graph.iter_in_rels g u (fun r ->
                  if not (skip_loops && Graph.rel_src g r = Graph.rel_dst g r)
                  then consider r (Graph.rel_src g r))
            in
            match (dir : Direction.t) with
            | Out -> scan_out ()
            | In -> scan_in ~skip_loops:false
            | Both ->
                scan_out ();
                scan_in ~skip_loops:true
          in
          let emit node path =
            out :=
              {
                node_bind = bind m.node_bind dst_var node;
                rel_bind = bind m.rel_bind rel_var (List.rev path);
              }
              :: !out
          in
          let u = lookup m.node_bind src_var in
          match hops with
          | None -> iter_hops u [] (fun r other -> emit other [ r ])
          | Some (lo, hi) ->
              let rec walk depth node path =
                if depth >= lo then emit node path;
                if depth < hi then
                  iter_hops node path (fun r other ->
                      walk (depth + 1) other (r :: path))
              in
              walk 0 u [])
        mappings;
      !out
  | Merge_on { keep; merge; cycle_len = _ } ->
      List.filter_map
        (fun m ->
          if lookup m.node_bind keep = lookup m.node_bind merge then
            Some { m with node_bind = drop m.node_bind merge }
          else None)
        mappings

let eval_steps ?(semantics = Semantics.Cypher) ?(max_intermediate = 200_000) g
    (alg : Algebra.t) ~on_step =
  let exception Too_big in
  let check_size l = if List.length l > max_intermediate then raise Too_big in
  let edge_iso = Semantics.equal semantics Cypher in
  match
    Array.fold_left
      (fun acc op ->
        let next = apply_op ~edge_iso g acc op in
        check_size next;
        on_step (List.length next);
        next)
      [ { node_bind = []; rel_bind = [] } ]
      alg.ops
  with
  | result -> Some result
  | exception Too_big -> None

let eval ?semantics ?max_intermediate g alg =
  eval_steps ?semantics ?max_intermediate g alg ~on_step:(fun _ -> ())

let count ?semantics ?max_intermediate g alg =
  Lpp_obs.Trace.with_span ~cat:"exec" "reference.count" @@ fun () ->
  Option.map List.length (eval ?semantics ?max_intermediate g alg)

let intermediate_sizes ?semantics ?max_intermediate g alg =
  let sizes = ref [] in
  eval_steps ?semantics ?max_intermediate g alg ~on_step:(fun n ->
      sizes := n :: !sizes)
  |> Option.map (fun _ -> List.rev !sizes)
