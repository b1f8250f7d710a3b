(** Graph patterns (Definition 3.3).

    A pattern is a small directed multigraph whose nodes carry required label
    sets and property predicates, and whose relationships carry allowed type
    sets, property predicates and a directedness flag. Labels, types and keys
    are interned ids resolved against the vocabulary of the data graph the
    pattern targets (see {!of_spec}). *)

type prop_pred =
  | Exists  (** the key must be present *)
  | Eq of Lpp_pgraph.Value.t  (** the key must be present with this value *)

type node_pat = {
  n_labels : int array;  (** required labels, sorted ascending *)
  n_props : (int * prop_pred) array;  (** required properties, sorted by key *)
}

type rel_pat = {
  r_src : int;  (** index into [nodes] *)
  r_dst : int;
  r_types : int array;  (** allowed types, sorted; empty means "any type" *)
  r_directed : bool;
      (** if [false] the relationship matches in either orientation *)
  r_props : (int * prop_pred) array;
  r_hops : (int * int) option;
      (** variable-length path [-\[:T*lo..hi\]->] (the paper's future-work
          extension): match any path of [lo] to [hi] relationships, every hop
          satisfying the type/direction/property constraints, all hops
          pairwise distinct under Cypher semantics. [None] = exactly one
          relationship. Intermediate path nodes are unconstrained. *)
}

type t = private { nodes : node_pat array; rels : rel_pat array }

val make : nodes:node_pat array -> rels:rel_pat array -> t
(** @raise Invalid_argument if a relationship references a missing node or the
    pattern is empty or not connected (treating relationships as undirected). *)

(** {1 Convenient construction from names} *)

type node_spec = {
  labels : string list;
  props : (string * prop_pred) list;
}

type rel_spec = {
  src : int;
  dst : int;
  types : string list;
  directed : bool;
  rprops : (string * prop_pred) list;
  hops : (int * int) option;
}

val node_spec : ?labels:string list -> ?props:(string * prop_pred) list -> unit -> node_spec

val rel_spec :
  ?types:string list ->
  ?directed:bool ->
  ?rprops:(string * prop_pred) list ->
  ?hops:int * int ->
  src:int ->
  dst:int ->
  unit ->
  rel_spec
(** @raise Invalid_argument later in {!make} if [hops = (lo, hi)] violates
    [1 <= lo <= hi]. *)

val of_spec : Lpp_pgraph.Graph.t -> node_spec list -> rel_spec list -> t
(** Resolve names against the graph's vocabulary, read-only: the graph is
    never written, so any number of domains may resolve against it at once.
    A label, type or key the vocabulary lacks resolves to that vocabulary's
    size, an id that no node, relationship or statistic carries, so the
    pattern matches nothing and every estimator formula reads it as empty.
    Distinct unknown names of one kind therefore share that id. *)

(** {1 Accessors} *)

val node_count : t -> int

val rel_count : t -> int

val size : t -> int
(** Paper's pattern size: total labels + relationships + property predicates. *)

val label_total : t -> int

val prop_total : t -> int

val label_density : t -> float
(** labels / nodes, the x-axis of Figure 8b. *)

val degree : t -> int -> int
(** Number of incident pattern relationships (self-loops count twice). *)

val incident_rels : t -> int -> int list
(** Indices of relationships incident to the node. *)

val is_connected : t -> bool

val has_properties : t -> bool

val has_var_length : t -> bool
(** Does any relationship use a variable-length hop range? *)

val pp : ?names:(Lpp_pgraph.Graph.t option) -> Format.formatter -> t -> unit
(** Render as an openCypher-like string; with [names] the ids are resolved to
    strings, except an id past the vocabulary (an unknown name, see
    {!of_spec}), which prints as it does without [names]. *)

val pp_parseable : ?names:(Lpp_pgraph.Graph.t option) -> Format.formatter -> t -> unit
(** Like {!pp}, but a shared variable's labels and properties are declared only
    at its first occurrence, so (with [names]) the output round-trips through
    {!Lpp_pattern.Parse.parse} — what the serve self-test and the workload
    export rely on. *)
