(** Reader/writer for partition result files.

    A simple line-oriented text format so partitions can be saved,
    diffed and reloaded (e.g. to hand a placement to downstream tools or
    to archive experiment outputs):

    {v
    # fpart partition
    circuit demo
    device XC3020
    delta 0.90
    blocks 3
    block 0 device XC3020
    node a 0
    node b 0
    node io1 2
    ...
    v}

    Node lines map node {e names} (not ids) to block indices, so a
    partition file survives any re-numbering of the hypergraph as long
    as names are stable.  Every block line names its own device; a
    single-device partition repeats the same name on each. *)

type t = {
  circuit : string;
  delta : float;
  block_devices : string array;  (** Device name per block. *)
  assignment : (string * int) list;  (** node name → block. *)
  node_lines : int list;
      (** Source line of each assignment entry when the value came from
          the parser ([[]] for programmatic construction); lets {!apply}
          report line-numbered errors. *)
}

(** [of_assignment_checked h ~circuit ~delta ~block_devices ~assignment]
    builds the file content from a result, validating the assignment
    against the current hypergraph: [Error msg] names the offending cell
    (and its index) on a length mismatch or out-of-range block — the
    shape a serving loop reports per-request instead of crashing. *)
val of_assignment_checked :
  Hypergraph.Hgraph.t ->
  circuit:string ->
  delta:float ->
  block_devices:string array ->
  assignment:int array ->
  (t, string) result

(** Raising variant of {!of_assignment_checked} for contexts where the
    assignment is known-consistent (just produced by the driver).
    @raise Invalid_argument with the same cell-named message. *)
val of_assignment :
  Hypergraph.Hgraph.t ->
  circuit:string ->
  delta:float ->
  block_devices:string array ->
  assignment:int array ->
  t

(** [to_string t] renders the file. *)
val to_string : t -> string

(** [parse_string s] parses; [Error msg] carries a line number. *)
val parse_string : string -> (t, string) result

(** [write_file path t] / [parse_file path]. *)
val write_file : string -> t -> unit

val parse_file : string -> (t, string) result

(** [apply t h] resolves the node names against hypergraph [h] and
    returns [(assignment, k)].  Nodes of [h] missing from the file, or
    file entries naming unknown nodes or out-of-range blocks, yield
    [Error]; messages carry the source line (via [node_lines]) and the
    cell name. *)
val apply : t -> Hypergraph.Hgraph.t -> (int array * int, string) result
