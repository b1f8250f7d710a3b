(** The statistics catalog: everything Section 4 requires or optionally uses.

    A catalog is an immutable snapshot, built once per data graph; estimator
    configurations then decide which parts to consult. Label arguments use
    [None] for the wildcard [*] ("any node, labeled or not"); type lists use
    [[]] for "any type".

    Required statistics (Section 4.1):
    - [nc]: per-label node counts NC(ℓ) and the total NC(✱);
    - advanced relationship triples RC_α(ℓ₁, t, ℓ₂) including wildcard
      projections — the simple Neo4j-style (ℓ, t, α) pair counts used by the
      [S-*] configurations and the Neo4j baseline are the [other = None]
      projections of the same table.

    Optional statistics (Section 4.2): {!Label_hierarchy}, {!Label_partition},
    {!Prop_stats}.

    The nonzero counters are compiled into flat Bigarrays when the
    snapshot is taken, in one sparse layout for every vocabulary: a CSR
    store over the occupied (type, near label) rows only, each row's far
    labels sorted, with a dst-major mirror for [In]-direction sweeps. Its
    bytes follow the nonzero counters (16 B per occupied row and 32 B per
    counter), not the [(T+1)·(L+1)²] key space, and a lookup is two binary
    searches. Out-of-range ids, wildcard sides and labels interned after
    the build all read as documented below. Updates go through {!Builder},
    which never changes a snapshot already taken. *)

type t

val build : Lpp_pgraph.Graph.t -> t
(** Collect all statistics in a single pass over the graph and compile them;
    hierarchy and partition are inferred from the data (Section 4.2.1 notes
    schema inference as the standard way to obtain them). Equal to
    [Builder.snapshot (Builder.of_graph g)].

    The relationship scan runs on the caller's domain: one integer
    increment per relationship into its (source label set, type, target
    label set) cell, after which each occupied cell is expanded into its
    label-level counters once. *)

val build_with :
  ?hierarchy:Label_hierarchy.t ->
  ?partition:Label_partition.t ->
  Lpp_pgraph.Graph.t ->
  t
(** Like {!build} but with externally supplied schema information (e.g. the
    curated hierarchies the paper constructs manually for SNB and Cineasts). *)

val epoch : t -> int
(** The snapshot's identity: a process-unique id drawn when the snapshot is
    taken. Two catalogs never share an epoch, so a cache shared across
    catalogs ({!Lpp_core.Est_cache}) keys entries by it. *)

(** {1 Node statistics} *)

val nc_star : t -> int
(** NC(✱): all nodes. *)

val nc : t -> int -> int
(** NC(ℓ); 0 for ids outside the catalog's label range. *)

val label_count : t -> int

val rel_total : t -> int

val rel_type_total : t -> int -> int
(** Number of relationships of a given type. *)

(** {1 Relationship statistics} *)

val rc :
  t ->
  dir:Lpp_pgraph.Direction.t ->
  node:int option ->
  types:int array ->
  other:int option ->
  int
(** [rc t ~dir ~node ~types ~other] counts relationships incident to a node
    carrying [node] (or any node for [None]) in direction [dir], with type in
    [types] ([[||]] = any), whose far endpoint carries [other] (any for
    [None]). [dir = Both] counts each incident relationship once from the
    node's perspective (out + in). Unknown or negative label and type ids
    count 0. *)

val simple_rc :
  t -> dir:Lpp_pgraph.Direction.t -> node:int option -> types:int array -> int
(** Neo4j's pair counts: [rc] with [other = None]. *)

val type_count : t -> int
(** Number of relationship type ids the catalog has counters for. *)

val rc_row :
  t ->
  dir:Lpp_pgraph.Direction.t ->
  node:int option ->
  types:int array ->
  row:int array ->
  unit
(** Fill [row.(l') <- rc t ~dir ~node ~types ~other:(Some l')] for every
    [l' < Array.length row]. Finds each requested type's row once per
    orientation and walks its nonzero entries instead of looking up every
    [(node, l')] pair, so one call covers an Expand's whole
    target-probability row. *)

val iter_triples :
  t ->
  (src:int option ->
  typ:int option ->
  dst:int option ->
  count:int ->
  unit) ->
  unit
(** Iterate every nonzero RC entry, wildcard projections included:
    [src]/[dst] are [None] for the [*] side, [typ = None] for the any-type
    projection. Order is unspecified. *)

(** {1 Optional statistics} *)

val hierarchy : t -> Label_hierarchy.t

val partition : t -> Label_partition.t

val props : t -> Prop_stats.t

val triangles : t -> Triangle_stats.t
(** Wedge-closure statistics for the triangle-aware extension: the exact
    census of {!Triangle_stats.build}, run once, on the first call, under
    the catalog's lock. The census reads the graph's CSR, so that first
    call builds the graph's adjacency if no traversal has: the one place
    where the catalog traverses the graph. *)

(** {1 Memory accounting (Table 3)} *)

val memory_bytes_simple : t -> int
(** Neo4j's summary: NC(ℓ) counters + (ℓ, t, α) pair counts. *)

val memory_bytes_advanced : t -> int
(** Our required summary: NC(ℓ) + RC(ℓ₁, t, ℓ₂) triples (both wildcard
    projections included). *)

val memory_bytes_optional : t -> int
(** H_L + D_L. *)

val memory_bytes_props : t -> int

val memory_bytes_alhd : t -> int
(** Advanced + optional + properties: the A-LHD configuration's footprint. *)

val memory_breakdown : t -> (string * int) list
(** Per-component bytes, labelled ["catalog.nc"], ["catalog.rc"],
    ["catalog.props"], ["catalog.hierarchy"], ["catalog.partition"]. The
    NC/RC figures are the physical Bigarray payloads of the compiled
    tables. *)

(** {1 Compatibility}

    Kept only for callers written when a catalog had to be frozen before
    its flat read path was used; both go once those callers drop them. *)

val freeze : t -> unit
(** Does nothing: every catalog is compiled when it is built. *)

val frozen_bytes : t -> int option
(** [Some] physical bytes of the compiled flat arrays (NC + RC layout), also
    published as the [catalog.frozen_bytes] gauge when the snapshot is
    taken. Never [None]. *)

(** {1 Updates}

    The required statistics (NC, RC, type totals) are cheap to keep current
    under data updates — Section 4.1's design goal. A builder holds them as
    label-level tables that the notes update in place; {!Builder.snapshot}
    compiles the current state into a new catalog and leaves every earlier
    snapshot as it was. The optional schema-level statistics (H_L, D_L,
    property statistics, triangle census) are not maintained: the paper
    argues schema evolution is far rarer than data churn, so they are
    refreshed by rebuilding. Deletions mirror additions and are left to the
    caller as negative workloads are not used in the evaluation. *)

module Builder : sig
  type catalog := t

  type t

  val of_graph :
    ?hierarchy:Label_hierarchy.t ->
    ?partition:Label_partition.t ->
    Lpp_pgraph.Graph.t ->
    t
  (** The label-level tables of a graph, counted as {!build_with} does. *)

  val note_node_added : t -> labels:int array -> unit
  (** O(|labels|); unseen label ids grow the counter table. *)

  val note_rel_added :
    t -> src_labels:int array -> typ:int -> dst_labels:int array -> unit
  (** O(|src_labels| · |dst_labels|). *)

  val snapshot : t -> catalog
  (** Compile the current tables into a new immutable catalog with a fresh
      {!epoch}. O(statistics size); the builder stays usable. *)

  (** {2 Test-only corruption hooks}

      Raw writes into the label-level tables that bypass the incremental
      bookkeeping (totals, pair-entry counts). They exist solely so tests
      can manufacture inconsistent catalogs for
      [Lpp_analysis.Catalog_check]; production code must use the notes. *)

  val unsafe_set_rc :
    t -> src:int option -> typ:int option -> dst:int option -> int -> unit

  val unsafe_set_nc : t -> int -> int -> unit
  (** [unsafe_set_nc b l count] overwrites NC(ℓ); out-of-range ids
      ignored. *)
end
