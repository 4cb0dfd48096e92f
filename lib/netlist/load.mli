(** The netlist sources shared by the binaries: a file read by its
    extension, or a synthetic circuit named by a generator spec.  Both
    return the circuit name with its hypergraph; callers add their own
    error prefix. *)

(** [file path] parses [path] by extension: [.v] is structural Verilog,
    [.xnf] is Xilinx XNF, anything else is BLIF.  The name is the
    module, design or model name; [Error] carries the parser's
    message. *)
val file : string -> (string * Hypergraph.Hgraph.t, string) result

(** [generate spec ~seed] builds the circuit [spec] names, called
    ["generated"]: [CELLSxPADS] ({!Generator.default_spec}, CELLS ≥ 2,
    PADS ≥ 1) or [rent:CELLS] ({!Generator.rent_spec}, CELLS ≥ 64).
    [Error] names the form that was expected, e.g.
    ["expected rent:CELLS with CELLS >= 64"]. *)
val generate : string -> seed:int -> (string * Hypergraph.Hgraph.t, string) result
