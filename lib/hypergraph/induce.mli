(** Induced subhypergraphs.

    [induce h ~keep] extracts the subcircuit of the nodes with
    [keep v = true]: kept nodes are renumbered densely (preserving
    relative order), and each net is restricted to its kept pins — nets
    with fewer than two kept pins disappear (they can never be cut
    inside the subcircuit).

    Used by the CLI's per-block netlist export ([fpart -o PREFIX]). *)

type t = {
  sub : Hgraph.t;          (** The induced subhypergraph. *)
  to_sub : int array;      (** Original node → sub node, or -1. *)
  to_orig : int array;     (** Sub node → original node. *)
}

val induce : Hgraph.t -> keep:(Hgraph.node -> bool) -> t
