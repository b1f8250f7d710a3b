(** Frozen property graph (Definition 3.1).

    A graph is built once through {!Graph_builder} and then immutable. Nodes
    and relationships are dense integer ids; labels, relationship types and
    property keys are interned integers resolvable through the embedded
    {!Interner}s. Adjacency is stored CSR-style per node and per direction.
    Each node carries a label-set id, and every label question is answered
    from the sets: a per-label node count fixed at freeze, and a label's
    extent scanned from the set column. Every per-entity column but the
    property arrays lives off the OCaml heap: a graph without properties
    holds a constant number of heap words whatever its size.

    A frozen graph holds what estimation reads: the relationship columns
    and each node's label-set id. The columns only a traversal reads (the
    out- and in-CSR) are built together on the first call to {!out_rels},
    {!in_rels}, {!iter_out_rels}, {!iter_in_rels}, {!out_degree},
    {!in_degree} or {!degree}. That build runs once per graph, under a
    lock, whichever domain calls first; every later call costs one atomic
    load. The catalog, the estimator and a serving process never call
    them, so they never hold these columns, with one exception: the
    [A-LHDT] triangle census ([Catalog.triangles]) walks the CSR on the
    first 3-cycle estimate that reads it. {!nodes_with_label} and
    {!label_node_count} never build them. *)

type t

type node = int
(** Node id in [0 .. node_count-1]. *)

type rel = int
(** Relationship id in [0 .. rel_count-1]. *)

(** {1 Sizes} *)

val node_count : t -> int

val rel_count : t -> int

val property_count : t -> int
(** Total number of (entity, key, value) property triples in the graph. *)

(** {1 Vocabulary} *)

val labels : t -> Interner.t

val rel_types : t -> Interner.t

val prop_keys : t -> Interner.t

val label_count : t -> int

val rel_type_count : t -> int

val prop_key_count : t -> int

(** {1 Nodes} *)

val node_labels : t -> node -> int array
(** Sorted, duplicate-free label ids of a node (possibly empty) when built by
    {!Graph_builder}; {!unsafe_make} keeps whatever list it was given. The
    array is the node's interned label set, shared with every node carrying
    the same set: callers must not mutate it. *)

val label_set_count : t -> int
(** Number of distinct label sets carried by nodes (the empty set included
    when some node is unlabeled). Set ids are [0 .. label_set_count-1], in
    order of first appearance by node id. *)

val label_set : t -> int -> int array
(** The label ids of a set id, as {!node_labels} returns them; shared — do not
    mutate. *)

val node_label_set : t -> node -> int
(** The node's label-set id: [node_labels g n == label_set g (node_label_set g
    n)]. *)

val node_has_label : t -> node -> int -> bool

val node_props : t -> node -> (int * Value.t) array
(** Sorted by key id. The graph stores these arrays only up to the last
    node that carries a property; every node past it answers [[||]]. *)

val node_prop_extent : t -> int
(** Number of nodes whose property arrays the graph stores: every node at or
    past it answers [[||]] from {!node_props}. {!Graph_builder} stores them
    up to the last carrier, so a graph it built without node properties
    answers 0. *)

val assoc_prop : (int * Value.t) array -> int -> Value.t option
(** Sorted-early-exit lookup over a property array in the representation
    returned by {!node_props}/{!rel_props} (ascending key ids): stops as soon
    as a larger key is seen. The single property-lookup primitive — reuse it
    instead of re-implementing linear scans. *)

val node_prop : t -> node -> int -> Value.t option

val nodes_with_label : t -> int -> node array
(** All nodes carrying the given label, ascending, freshly allocated like
    {!out_rels}: one pass over the node-to-set column, listing a node once
    per occurrence of the label in its set (an {!unsafe_make} list that
    repeats a label lists its node twice). Labels interned into the
    vocabulary after the graph was frozen (e.g. by a query mentioning an
    unused label), and negative ids, have an empty extent. Builds nothing:
    the adjacency stays as it was. *)

val label_node_count : t -> int -> int
(** [Array.length (nodes_with_label g l)] in O(1), from a per-label count
    fixed at freeze: the label's node count NC(l) for the catalog, the
    property statistics and the matcher's rarest-label pick. *)

val unlabeled_node_count : t -> int

(** {1 Relationships} *)

val rel_src : t -> rel -> node

val rel_dst : t -> rel -> node

val rel_type : t -> rel -> int

val rel_props : t -> rel -> (int * Value.t) array
(** As {!node_props}: relationships past the last one that carries a
    property answer [[||]]. *)

val rel_prop_extent : t -> int
(** As {!node_prop_extent}, for relationships. *)

val rel_prop : t -> rel -> int -> Value.t option

val out_rels : t -> node -> rel array
(** Relationship ids whose source is the node, ascending. A freshly allocated
    copy of the CSR slice — callers may keep it, but hot paths should use
    {!iter_out_rels} instead, which allocates nothing. This and every
    accessor down to {!degree} build the adjacency on the graph's first
    traversal. *)

val in_rels : t -> node -> rel array

val iter_out_rels : t -> node -> (rel -> unit) -> unit
(** Apply [f] to each out-relationship id in ascending order without
    materialising the slice — the traversal primitive for matcher-grade
    loops. *)

val iter_in_rels : t -> node -> (rel -> unit) -> unit

val out_degree : t -> node -> int

val in_degree : t -> node -> int

val degree : t -> Direction.t -> node -> int
(** Number of incident relationships in the given direction; [Both] counts
    every incident relationship once (self-loops twice, matching how Expand
    enumerates them). *)

val other_end : t -> rel -> node -> node
(** The endpoint of [rel] that is not [node]; for self-loops returns [node].
    @raise Invalid_argument if [node] is not an endpoint of [rel]. *)

(** {1 Iteration} *)

val iter_nodes : t -> (node -> unit) -> unit

val iter_rels : t -> (rel -> unit) -> unit

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val fold_rels : t -> init:'a -> f:('a -> rel -> 'a) -> 'a

val iter_rel_cells : t -> (int -> int -> int -> unit) -> unit
(** [iter_rel_cells g f] calls [f src_set typ dst_set] for each relationship in
    ascending id order: [node_label_set] of its source, its [rel_type] and
    [node_label_set] of its target. Every relationship statistic depends
    only on these three ids; this is the catalog's one relationship scan,
    reading the columns without a call per field. *)

(** {1 Construction (used by {!Graph_builder})} *)

(** Distinct label sets by content, ids in first-seen order: the one table
    both {!Graph_builder} (a set per [add_node]) and {!unsafe_make} intern
    through. *)
module Label_sets : sig
  type t

  val create : unit -> t

  val intern : t -> int array -> len:int -> int
  (** The id of the set held in the array's first [len] slots, taken as
      given (order and duplicates included). A known set allocates nothing;
      a new one is copied, so the caller may reuse the array. *)
end

val unsafe_make :
  labels:Interner.t ->
  rel_types:Interner.t ->
  prop_keys:Interner.t ->
  node_labels:int array array ->
  node_props:(int * Value.t) array array ->
  rel_src:int array ->
  rel_dst:int array ->
  rel_type:int array ->
  rel_props:(int * Value.t) array array ->
  t
(** Invariants (sortedness of label/prop arrays, id ranges) are the caller's
    responsibility; {!Graph_builder.freeze} establishes them. Label lists are
    interned as given: equal lists share one set, and {!node_labels} returns
    each node's list unchanged. [node_props] and [rel_props] may be shorter
    than the node and relationship counts: ids past their end have no
    properties. *)

val unsafe_make_packed :
  labels:Interner.t ->
  rel_types:Interner.t ->
  prop_keys:Interner.t ->
  label_sets:Label_sets.t ->
  node_set:Lpp_util.Iarr.t ->
  node_props:(int * Value.t) array array ->
  rel_src:Lpp_util.Iarr.t ->
  rel_dst:Lpp_util.Iarr.t ->
  rel_type:Lpp_util.Iarr.t ->
  rel_props:(int * Value.t) array array ->
  t
(** Like {!unsafe_make} but taking every column already packed, so a
    streaming builder never materialises boxed copies. The columns become
    the graph's own, uncopied:
    - [label_sets] holds every set a node carries, and [node_set] one set id
      per node (its length is the node count); each label in a set must be
      below [Interner.size labels].
    - [rel_src], [rel_dst] and [rel_type] hold one entry per relationship
      (their common length is the relationship count); endpoints must be
      node ids.
    - [node_props] and [rel_props] are as for {!unsafe_make}.

    Each label's node count is taken here, from the sets; the CSR sides are
    left to the first traversal, which builds them in their own offset
    columns with no temporary per node or per relationship. *)

(** {1 Memory accounting} *)

val memory_breakdown : t -> (string * int) list
(** Resident bytes of the Bigarray-backed components: the relationship
    columns (["graph.rels"]), the CSR adjacency (["graph.adjacency"]) and
    the node-to-set column (["graph.labels"]). Before the first traversal
    the adjacency row is 0, as it is not built yet ({!adjacency_built});
    reading it never builds it. The shared label sets, the per-label counts
    and the boxed property arrays are not included. *)

val csr_bytes : t -> int
(** Resident bytes of the relationship columns plus the CSR adjacency: the
    ["graph.rels"] and ["graph.adjacency"] rows of {!memory_breakdown}, not
    the label column. Before the first traversal, the relationship columns
    alone. *)

val adjacency_built : t -> bool
(** Whether a traversal has built the adjacency. Never builds it. *)
