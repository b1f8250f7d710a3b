(** Summary statistics over float samples (quantiles, means).

    Used by the experiment harness to summarise q-error and runtime
    distributions the way the paper's box plots do. *)

type summary = {
  count : int;
  min : float;
  q25 : float;
  median : float;
  q75 : float;
  q95 : float;
  max : float;
  mean : float;
  geo_mean : float;
}

val quantile : float array -> float -> float
(** [quantile sorted p] with [p] in [\[0,1\]]; linear interpolation between
    order statistics. @raise Invalid_argument on an empty array.
    The input array must be sorted ascending. *)

val summarize : float list -> summary option
(** [None] on an empty sample. *)

val summarize_array : float array -> summary option
(** Like {!summarize}; the array is copied, not mutated. *)
