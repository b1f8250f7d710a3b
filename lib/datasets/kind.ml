open Lpp_pgraph

type node = {
  b : Graph_builder.t;
  labels : string list;
  mutable label_ids : int array option;  (* [None] until the first use *)
}

type rel = {
  rb : Graph_builder.t;
  name : string;
  mutable id : int;  (* -1 until the first use *)
}

let node b labels = { b; labels; label_ids = None }

let rel b name = { rb = b; name; id = -1 }

let add_node k ~props =
  match props with
  | _ :: _ -> Graph_builder.add_node k.b ~labels:k.labels ~props
  | [] ->
      let ids =
        match k.label_ids with
        | Some ids -> ids
        | None ->
            let ids =
              Array.of_list (List.map (Graph_builder.intern_label k.b) k.labels)
            in
            k.label_ids <- Some ids;
            ids
      in
      Graph_builder.add_node_ids k.b ~labels:ids

let add_rel k ~src ~dst ~props =
  match props with
  | _ :: _ -> Graph_builder.add_rel k.rb ~src ~dst ~rel_type:k.name ~props
  | [] ->
      if k.id < 0 then k.id <- Graph_builder.intern_rel_type k.rb k.name;
      Graph_builder.add_rel_ids k.rb ~src ~dst ~typ:k.id
