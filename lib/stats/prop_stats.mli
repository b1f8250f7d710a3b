(** Property statistics (Section 4.2.2), PostgreSQL-style.

    For each (label-or-type-or-wildcard, property key) pair observed in the
    graph we keep: the number of owning entities, the number of entities that
    carry the key, the number of distinct values, and the ten most frequent
    values with their frequencies. Selectivity estimation follows the classic
    MCV + uniform-tail model. *)

type owner =
  | Node_label of int
  | Rel_type of int
  | Any_node
  | Any_rel

type entry = {
  owner_total : int;  (** entities with the owner label/type *)
  with_key : int;  (** of those, how many carry the key *)
  distinct : int;  (** distinct values of the key among them *)
  mcvs : (Lpp_pgraph.Value.t * int) array;  (** top values, count, desc *)
}

type t

val mcv_limit : int
(** 10, as in the paper and PostgreSQL's default-lite setup. *)

val build : Lpp_pgraph.Graph.t -> t
(** Interns each entity kind's values once, then counts owner by owner in
    flat arrays; work and memory follow the property carriers, so a graph
    without properties costs nothing per entity. Runs in the
    [catalog.prop_stats] trace span, whose args count the carriers, property
    slots, distinct (key, value) ids and entries. *)

val find : t -> owner -> key:int -> entry option

val selectivity : t -> owner -> key:int -> Lpp_pattern.Pattern.prop_pred -> float
(** [sel(lt, p)] of Section 4.2.2: probability that an entity with the given
    label/type satisfies the predicate. Unknown (owner, key) pairs yield 0.
    [Exists] is [with_key / owner_total]; [Eq v] additionally multiplies the
    MCV frequency (or the uniform share of the non-MCV tail). *)

val entry_count : t -> int

val memory_bytes : t -> int
