(** Reader and writer for a Xilinx Netlist Format (XNF) subset.

    XNF was the native interchange format of the Xilinx tools the paper
    targets (XC2000/XC3000 flows).  Supported record types, one per
    line, comma-separated:

    - [LCANET, v] — format version (ignored);
    - [PROG, ...] / [PART, ...] — provenance and target part (the part
      is remembered and re-emitted);
    - [SYM, name, type, SIZE=n, FLOPS=n] — begins a symbol (interior
      node); the [SIZE]/[FLOPS] attributes are this library's extension
      carrying node weights (defaults 1/0);
    - [PIN, pinname, dir, netname] — connects the open symbol to a net;
    - [END] — closes the open symbol;
    - [EXT, netname, dir] — an external pad on [netname];
    - [EOF] — end of file (required by the writer, optional on read);
    - lines starting with [#] and blank lines are skipped.

    Net directionality in [PIN]/[EXT] records is accepted and ignored
    (the partitioning model is undirected). *)

type design = {
  design_name : string;
  part : string option;  (** [PART] record, e.g. ["3020PC68"]. *)
  graph : Hypergraph.Hgraph.t;
}

val parse_string : ?name:string -> string -> (design, string) result

val parse_file : string -> (design, string) result

(** [to_string d] renders the design; re-parseable, round-trips
    node/net/pad counts and node weights. *)
val to_string : design -> string

(** [write_file path d] writes [to_string d]; [path] is left untouched
    when rendering raises. *)
val write_file : string -> design -> unit

val of_hypergraph : ?part:string -> name:string -> Hypergraph.Hgraph.t -> design
