(** Reader and writer for a structural Verilog subset.

    The second interchange format next to {!Blif} (multi-FPGA flows of
    the paper's era moved netlists between tools as structural Verilog
    or XNF).  Supported constructs:

    - [module NAME (port, ...);] … [endmodule] (first module only);
    - [input] / [output] / [inout] declarations (comma lists; [inout]
      ports become pads like the others);
    - [wire] declarations;
    - gate/cell instances, positional or named connections:
      [TYPE inst (a, b, y);] or [TYPE inst (.A(a), .Y(y));] — one
      interior node per instance, connected to each distinct signal;
    - parameter overrides [TYPE #(.SIZE(3), .FLOPS(1)) inst (...);] —
      [SIZE]/[FLOPS] set the node's weights (defaults 1/0; this is how
      a {!to_string}+{!parse_string} round trip preserves weights
      exactly, which BLIF cannot express);
    - [assign a = b;] — modelled as a buffer cell on the two signals;
    - [//] and [/* *\/] comments.

    Not supported (rejected or ignored): vectors/buses, escaped
    identifiers, expressions beyond a lone signal in [assign],
    behavioural blocks. *)

type modul = {
  mod_name : string;
  graph : Hypergraph.Hgraph.t;
}

(** [parse_string s] parses Verilog text; [Error msg] carries a line
    number. *)
val parse_string : string -> (modul, string) result

(** [parse_file path] reads and parses a file. *)
val parse_file : string -> (modul, string) result

(** [to_string m] renders the circuit as structural Verilog: pads become
    ports, cells become [FPART_CELL] instances with [SIZE]/[FLOPS]
    parameters.  Re-parseable by {!parse_string}; round-trips node/net
    counts, sizes and flip-flop weights. *)
val to_string : modul -> string

(** [write_file path m] writes [to_string m]; [path] is left untouched
    when rendering raises. *)
val write_file : string -> modul -> unit

(** [of_hypergraph ~name h] wraps a hypergraph as a module. *)
val of_hypergraph : name:string -> Hypergraph.Hgraph.t -> modul
