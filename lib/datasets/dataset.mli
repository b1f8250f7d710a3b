(** A named data graph bundled with its statistics catalog.

    The paper evaluates on LDBC SNB (scale 0.1), Cineasts and DBpedia; this
    library generates synthetic stand-ins with the same statistical shape (see
    DESIGN.md §3). For SNB and Cineasts the label hierarchy is supplied
    "manually" by the generator, mirroring how the paper curates it; for the
    DBpedia-like data it comes from the generated ontology. *)

type t = {
  name : string;
  graph : Lpp_pgraph.Graph.t;
  catalog : Lpp_stats.Catalog.t;
  catalog_s : float;  (** wall seconds {!make} spent building [catalog] *)
}

val make :
  ?hierarchy_pairs:(string * string) list ->
  name:string ->
  Lpp_pgraph.Graph.t ->
  t
(** [hierarchy_pairs] lists (sublabel, superlabel) by name; names missing from
    the graph are ignored. Without it the hierarchy is inferred from the data.
    The label partition is always inferred (co-occurrence components are exact
    for disjointness). *)

val summary_row : t -> string list
(** Table 1 row: nodes, relationships, properties, node labels, relationship
    types, property keys, H_L height, D_L components. *)

val summary_headers : string list
