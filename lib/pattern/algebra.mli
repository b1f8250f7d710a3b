(** Operator sequences of the property-graph algebra (Section 3.2).

    A sequence linearises a {!Pattern.t} into the five operators whose
    cardinality behaviour the paper models: [GetNodes], [LabelSelection],
    [PropertySelection], [Expand] and [MergeOn]. Estimators process the
    sequence front to back (Algorithm 1); a reference evaluator in
    [Lpp_exec.Reference] executes the same sequence exactly. *)

type var_kind = Node_var | Rel_var

type op =
  | Get_nodes of { var : int }
      (** bind a fresh node variable to every node of the graph *)
  | Label_selection of { var : int; label : int }
      (** keep mappings where [var]'s node carries [label] *)
  | Prop_selection of {
      kind : var_kind;
      var : int;
      props : (int * Pattern.prop_pred) array;
    }
      (** keep mappings where the entity satisfies all property predicates *)
  | Expand of {
      src_var : int;
      rel_var : int;
      dst_var : int;
      types : int array;  (** allowed relationship types; empty = any *)
      dir : Lpp_pgraph.Direction.t;
      hops : (int * int) option;
          (** variable-length range; [None] = exactly one relationship *)
    }
      (** one output mapping per input mapping and qualifying relationship
          (or, with [hops], qualifying path) incident to [src_var]'s node;
          binds [rel_var] and [dst_var] *)
  | Merge_on of { keep : int; merge : int; cycle_len : int option }
      (** keep mappings where the two node variables are bound to the same
          node, dropping [merge]. [cycle_len] is planner-provided metadata:
          the length of the pattern cycle this merge closes (3 for a
          triangle), consumed by the triangle-aware estimator extension. *)

type t = {
  ops : op array;
  node_vars : int;  (** node variable ids are [0 .. node_vars-1] *)
  rel_vars : int;  (** relationship variable ids are [0 .. rel_vars-1] *)
}

(** Structural dataflow pass over an operator sequence.

    [scan] walks the sequence front to back tracking which node/relationship
    variables are bound and which labels each node variable has accumulated,
    and collects {e every} well-formedness violation rather than stopping at
    the first: after reporting, the pass recovers (an unbound use binds the
    variable, a rebinding keeps it bound) so later operators are still
    checked. {!Algebra.validate} and the semantic linter in [Lpp_analysis]
    are both built on this pass. *)
module Dataflow : sig
  type violation =
    | Node_var_out_of_range of int
    | Node_var_unbound of int  (** used before introduction *)
    | Node_var_rebound of int  (** introduced twice *)
    | Rel_var_out_of_range of int
    | Rel_var_unbound of int
    | Rel_var_rebound of int
    | Negative_label of int
    | Empty_prop_selection
    | Invalid_hop_range of int * int
    | Merge_self of int  (** [Merge_on] of a variable with itself *)

  val message : violation -> string
  (** Human-readable message, identical to the historical
      {!Algebra.validate} error strings. *)

  (** The per-prefix dataflow state, observable during a scan. Queries are
      total: out-of-range variables read as unbound with no labels. *)
  type state

  val labels_of : state -> int -> int list
  (** Labels accumulated by [Label_selection] on a node variable so far, in
      selection order; a [Merge_on] folds the merged variable's labels into
      the kept one. *)

  val scan :
    ?observe:(index:int -> op -> state -> unit) -> t -> (int * violation) list
  (** All violations as [(op index, violation)] pairs, in sequence order
      (and, within one operator, in check order). [observe] is called for
      every operator {e before} its checks and state effects are applied,
      with the state of the prefix preceding it. *)
end

val validate : t -> (unit, string) result
(** Well-formedness: each variable is introduced exactly once before use, the
    first operator introducing a node variable is [Get_nodes] or [Expand],
    [Merge_on] drops a live variable, and variable ids stay within bounds.
    A thin wrapper over {!Dataflow.scan} reporting the first violation;
    use the scan directly to get all of them. *)

val op_count : t -> int

val pp_op : Format.formatter -> op -> unit

val pp : Format.formatter -> t -> unit
