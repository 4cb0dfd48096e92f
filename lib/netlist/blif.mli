(** Reader and writer for a practical subset of Berkeley BLIF.

    Supported constructs:
    - [.model NAME], [.end]
    - [.inputs s1 s2 ...] / [.outputs s1 s2 ...] (continuation with [\\])
    - [.names in1 ... inN out] followed by cover lines (cover lines are
      kept only to delimit the block; logic content is irrelevant to
      partitioning) — becomes one interior node of size 1 on the nets of
      its signals;
    - [.latch input output [type ctrl] [init]] — becomes one interior
      node (carrying one flip-flop) on the input, output and (when
      present) control nets;
    - [#] comments and blank lines.

    Each distinct signal name becomes one net; each [.inputs]/[.outputs]
    signal additionally gets a terminal (pad) node on its net.  This is
    exactly the hypergraph model of the paper's section 2. *)

type model = {
  model_name : string;
  graph : Hypergraph.Hgraph.t;
}

(** [parse_string s] parses BLIF text.  Returns [Error msg] with a
    1-based line number on malformed input. *)
val parse_string : string -> (model, string) result

(** [parse_file path] reads and parses a file. *)
val parse_file : string -> (model, string) result

(** [to_string m] renders the model back to BLIF.  Interior nodes whose
    incident nets allow it are emitted as [.names] blocks with a dummy
    cover; two-net cells carrying a flip-flop are emitted as [.latch]
    (preserving the FF annotation).  The output is re-parseable by
    {!parse_string} and round-trips node/net/pad counts. *)
val to_string : model -> string

(** [write_file path m] writes [to_string m] to [path]; [path] is left
    untouched when rendering raises. *)
val write_file : string -> model -> unit

(** [of_hypergraph ~name h] wraps an existing hypergraph as a model
    (e.g. to export a generated surrogate circuit as BLIF). *)
val of_hypergraph : name:string -> Hypergraph.Hgraph.t -> model
