(** Triangle statistics — the "more sophisticated graph statistics" the paper
    names as future work (Section 7).

    We keep the wedge-closure rates of the graph: the probability that the two
    endpoints of a 2-path (wedge) are themselves connected, measured per
    *orientation*. The estimator's triangle-aware MergeOn (configuration
    [A-LHDT]) replaces the independence assumption for 3-cycles with these
    rates, attacking exactly the cyclic-pattern underestimation the paper
    reports. *)

type t = {
  wedges : float;  (** unordered 2-paths in the undirected skeleton *)
  rate_directed : float;
      (** per ordered endpoint pair (2 per wedge): probability of at least
          one relationship in that specific direction *)
  rate_undirected : float;
      (** per wedge: expected closing matches when direction is free
          (each orientation counts once, as the Expand does) *)
}

val build : Lpp_pgraph.Graph.t -> t
(** An exact census at every graph size. Let N(v) be v's distinct
    neighbours other than v, in either direction: [wedges] is the sum of
    d(d − 1)/2 over the nodes, d = |N(v)|. Each distinct relationship
    a → b with a ≠ b (parallel relationships count once, self-loops never)
    closes |N(a) ∩ N(b)| wedges, one per common neighbour; the closings
    over [wedges] are [rate_undirected], half of that [rate_directed]. Both
    counts are exact integers, so the rates do not depend on the order of
    nodes or relationships.

    Cost: N(v) for every node as one boxed array (about a word per
    relationship end) and two node-indexed stamp arrays, read from the
    graph's CSR, which this builds if no traversal has. Each connected
    pair is then counted once, at the endpoint with the longer list, by
    scanning the shorter list against that endpoint's stamps: time linear
    in the relationships plus, per pair, its shorter list. *)
