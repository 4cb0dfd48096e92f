(** Descriptive statistics of circuit hypergraphs.

    Used to validate that the synthetic MCNC-surrogate circuits have
    realistic structure (fanout distribution, locality), and by the
    documentation/examples to describe workloads. *)

type summary = {
  nodes : int;
  cells : int;
  pads : int;
  nets : int;
  total_size : int;
  avg_net_degree : float;
  max_net_degree : int;
  avg_node_degree : float;
  max_node_degree : int;
  components : int;
}

(** [summary h] computes the full summary in one pass. *)
val summary : Hgraph.t -> summary

(** [net_degree_histogram h] maps net degree [d] (array index) to the
    number of nets with exactly [d] pins.  Index 0 is unused. *)
val net_degree_histogram : Hgraph.t -> int array

(** [external_nets h nodes] counts nets that have at least one pin
    inside the node set and at least one pin outside (or a pad inside).
    This is the pin cost the partitioners charge to a block holding
    exactly [nodes]. *)
val external_nets : Hgraph.t -> Hgraph.node list -> int

(** [rent_exponent h ~rng_seed ~samples] estimates the Rent exponent by
    sampling BFS-grown clusters of geometrically increasing size and
    fitting [log pins = p * log size + c] by least squares.  Returns
    [None] when the circuit is too small to sample (fewer than two
    usable cluster sizes). *)
val rent_exponent : Hgraph.t -> rng_seed:int -> samples:int -> float option
