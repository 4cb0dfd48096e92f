(** Graphviz export of circuit hypergraphs.

    Star expansion: every net becomes a small junction vertex connected
    to its pins, cells are boxes, pads are circles.  With an assignment,
    nodes are filled with one colour per block — handy for eyeballing a
    partition ([dot -Tsvg] or [neato] for larger circuits). *)

(** [to_dot ?assignment ?name h] renders the hypergraph as an undirected
    Graphviz graph.  [assignment] (one block id per node) colours the
    nodes; block ids may exceed the palette, which then cycles.
    @raise Invalid_argument if [assignment] has the wrong length. *)
val to_dot : ?assignment:int array -> ?name:string -> Hgraph.t -> string

(** [write_file path ?assignment ?name h] writes the rendering; [path]
    is left untouched when rendering raises. *)
val write_file : string -> ?assignment:int array -> ?name:string -> Hgraph.t -> unit
