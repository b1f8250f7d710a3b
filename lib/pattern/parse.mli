(** A small openCypher-style pattern parser.

    Grammar (whitespace-insensitive):

    {v
    pattern  ::= path ("," path)*
    path     ::= node (rel node)*
    node     ::= "(" ident? (":" name)* props? ")"
    rel      ::= "-[" ident? types? hops? props? "]->"    (outgoing)
               | "<-[" … "]-"                             (incoming)
               | "-[" … "]-"                              (undirected)
    types    ::= ":" name ("|" name)…
    hops     ::= "*" int? (".." int)?
    props    ::= "{" entry ("," entry)* "}"
    entry    ::= key ":" value          (equality predicate)
               | key                     (existence predicate)
    value    ::= int | float | "string" | 'string' | true | false
    v}

    Node identifiers share variables across paths, so cyclic patterns read
    naturally: ["(a)-[:KNOWS]->(b)-[:KNOWS]->(a)"]. Bare [*] means hops 1..∞,
    capped at {!max_unbounded_hops}; [*n] means exactly n; [*n..m] a range.

    Names are resolved against, never written into, the graph's vocabulary
    (see {!Pattern.of_spec}): a name the data never uses resolves to the
    vocabulary's size and matches nothing. *)

val max_unbounded_hops : int
(** Upper bound substituted for an open range (3). *)

type parsed = { pattern : Pattern.t; var_names : string option array }
(** [var_names.(i)] is the identifier the query used for pattern node [i],
    if any. *)

val parse : Lpp_pgraph.Graph.t -> string -> (parsed, string) result
