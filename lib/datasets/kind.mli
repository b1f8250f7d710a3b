(** A generator's label lists and relationship types, resolved to builder
    ids once, at their first use.

    Resolving a name is a string hash, and a large-tier generator adds
    10⁷ entities from a few dozen names. A kind interns its names on its
    first use and keeps the ids, so every entity without properties is
    added by id. That first use interns the same names at the same point
    the name path would, so vocabulary ids keep the order of first mention
    and the graph is bit-identical to one built by name. An entity with
    properties takes the name path, whose keys are interned by name in any
    case. Kinds belong to one builder: make them per [generate]. *)

open Lpp_pgraph

type node

type rel

val node : Graph_builder.t -> string list -> node
(** A label list, as {!Graph_builder.add_node} takes it. *)

val rel : Graph_builder.t -> string -> rel
(** A relationship type. *)

val add_node : node -> props:(string * Value.t) list -> Graph.node
(** {!Graph_builder.add_node} with the kind's labels. *)

val add_rel :
  rel ->
  src:Graph.node ->
  dst:Graph.node ->
  props:(string * Value.t) list ->
  Graph.rel
(** {!Graph_builder.add_rel} with the kind's type. *)
