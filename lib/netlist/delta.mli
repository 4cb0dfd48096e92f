(** Netlist deltas for ECO (engineering change order) flows.

    A delta is a small edit script against a frozen hypergraph: remove
    nodes (cells or pads) and nets by name, add new cells/pads/nets.
    Applying a delta rebuilds a fresh hypergraph — the base is immutable
    — so a partition service can re-legalize a previous assignment on
    the edited circuit instead of re-partitioning from scratch.

    The text form is line-oriented, in the spirit of {!Partfile}:

    {v
    # fpart delta
    remove node u123
    remove net clk_gated
    add cell u900 4 1
    add pad new_io
    add net n_eco u900 new_io u17
    v}

    [add cell NAME SIZE [FLOPS]]; removing a node silently drops it from
    its surviving nets (a net left with no pins disappears). *)

type cell = {
  cell_name : string;
  size : int;
  flops : int;
}

type net = {
  net_name : string;
  pins : string list;  (** Node names; must exist after removals/adds. *)
}

type t = {
  remove_nodes : string list;
  remove_nets : string list;
  add_cells : cell list;
  add_pads : string list;
  add_nets : net list;
}

val empty : t

(** [summary d] is a short human-readable count string, e.g.
    ["-2 nodes -1 nets +3 cells +1 pads +2 nets"]. *)
val summary : t -> string

(** [apply d h] rebuilds [h] with the delta applied.  Surviving nodes
    keep their names, sizes and flops; surviving nets keep their names
    and lose removed pins.  [Error msg] (naming the offending item) on:
    removing an unknown node/net, adding a node whose name collides
    with a surviving one, or adding a net over an unknown pin name. *)
val apply : t -> Hypergraph.Hgraph.t -> (Hypergraph.Hgraph.t, string) result

(** [parse_string s] parses the text form; [Error msg] carries a
    1-based line number. *)
val parse_string : string -> (t, string) result

val to_string : t -> string
