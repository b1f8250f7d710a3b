open Lpp_pgraph
open Lpp_stats

type t = { name : string; graph : Graph.t; catalog : Catalog.t; catalog_s : float }

let make ?hierarchy_pairs ~name graph =
  Lpp_obs.Trace.with_span ~cat:"dataset" "dataset.build"
    ~args:(fun () ->
      [|
        ("nodes", float_of_int (Graph.node_count graph));
        ("rels", float_of_int (Graph.rel_count graph));
      |])
  @@ fun () ->
  let hierarchy =
    Option.map
      (fun pairs ->
        let resolve n = Interner.find_opt (Graph.labels graph) n in
        let id_pairs =
          List.filter_map
            (fun (child, parent) ->
              match (resolve child, resolve parent) with
              | Some c, Some p -> Some (c, p)
              | _ -> None)
            pairs
        in
        Label_hierarchy.of_pairs ~labels:(Graph.label_count graph) id_pairs)
      hierarchy_pairs
  in
  let t0 = Lpp_util.Clock.now_ns () in
  let catalog = Catalog.build_with ?hierarchy graph in
  let catalog_s = Lpp_util.Clock.elapsed_s ~since:t0 in
  { name; graph; catalog; catalog_s }

let summary_headers =
  [ "data set"; "nodes"; "rels"; "props"; "labels"; "rel types"; "prop keys";
    "H_L height"; "D_L comps" ]

let summary_row t =
  let g = t.graph in
  [
    t.name;
    string_of_int (Graph.node_count g);
    string_of_int (Graph.rel_count g);
    string_of_int (Graph.property_count g);
    string_of_int (Graph.label_count g);
    string_of_int (Graph.rel_type_count g);
    string_of_int (Graph.prop_key_count g);
    string_of_int (Label_hierarchy.height (Catalog.hierarchy t.catalog));
    string_of_int (Label_partition.cluster_count (Catalog.partition t.catalog));
  ]
