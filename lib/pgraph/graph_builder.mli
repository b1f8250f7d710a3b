(** Mutable construction of a property graph, frozen into a {!Graph.t}.

    Construction is streaming: each node's label set is interned as the
    node arrives, and its set id and the relationship endpoints and types
    accumulate in flat growable Bigarray vectors (each in the fewest of 1,
    2, 3, 4 or 8 bytes that hold its largest id); properties go to sparse
    per-entity tables. {!freeze} hands these
    vectors to the graph as its columns and counts each label's nodes from
    the sets; the CSR sides are built on the graph's first traversal
    ({!Graph}). So peak memory while loading a
    10⁷–10⁸-edge graph is the final packed layout plus doubling slack —
    never a second copy, and no per-entity temporary on the OCaml heap.

    {[
      let b = Graph_builder.create () in
      let alice = Graph_builder.add_node b ~labels:[ "Person"; "Student" ]
          ~props:[ ("name", Value.Str "Alice") ] in
      let bob = Graph_builder.add_node b ~labels:[ "Person" ] ~props:[] in
      let _r = Graph_builder.add_rel b ~src:alice ~dst:bob ~rel_type:"knows"
          ~props:[] in
      let g = Graph_builder.freeze b
    ]} *)

type t

val create : unit -> t

val add_node :
  t -> labels:string list -> props:(string * Value.t) list -> Graph.node
(** Duplicate labels and duplicate property keys are deduplicated (last write
    wins for properties). *)

val add_rel :
  t ->
  src:Graph.node ->
  dst:Graph.node ->
  rel_type:string ->
  props:(string * Value.t) list ->
  Graph.rel
(** @raise Invalid_argument if either endpoint has not been added yet. *)

(** {1 Id-level streaming API}

    Used by loaders ({!Graph_io}) that already speak interned ids: intern the
    vocabulary up front, then push entities without per-line string lists. *)

val intern_label : t -> string -> int

val intern_rel_type : t -> string -> int

val intern_prop_key : t -> string -> int

val label_count : t -> int
(** Vocabulary sizes so far. *)

val rel_type_count : t -> int

val prop_key_count : t -> int

val add_node_ids : t -> labels:int array -> Graph.node
(** Labels are interned ids (sorted and deduplicated here).
    @raise Invalid_argument on an id not returned by {!intern_label}. *)

val add_rel_ids : t -> src:Graph.node -> dst:Graph.node -> typ:int -> Graph.rel
(** @raise Invalid_argument on unknown endpoints or type id. *)

val set_node_prop : t -> Graph.node -> key:int -> Value.t -> unit
(** Attach or overwrite one property (last write wins).
    @raise Invalid_argument on unknown node or key id. *)

val set_rel_prop : t -> Graph.rel -> key:int -> Value.t -> unit

(** {1 Freeze} *)

val node_count : t -> int

val rel_count : t -> int

val freeze : t -> Graph.t
(** The builder must not be used after [freeze]. Records the
    [build.edges_per_sec] ingest-rate and [build.graph_bytes] gauges when
    observability is enabled; the latter is {!Graph.csr_bytes} at freeze,
    the relationship columns alone, as no traversal has built the
    adjacency yet. *)
