(** Heavy-edge / cone-aware matching on circuit hypergraphs.

    The single source of coarsening decisions: both the multilevel
    engine's per-level pairing and the flat driver's clustering
    pre-pass ([Fpart.Config.cluster_size]) delegate here, so the
    connectivity heuristic lives in one place.

    Scoring follows the classical edge-coarsening weight: each net
    shared between two nodes contributes [1/(degree-1)], except that
    2-pin nets (driver–load cones in a netlist — the "cone-aware" part)
    count double, so absorbing a fanout-free buffer chain beats joining
    through a fat bus.  Nets fatter than an internal cap contribute
    nothing: they carry almost no locality signal and would make
    matching quadratic on star netlists.

    Pads are never matched — every pad stays a singleton group, which
    {!Hypergraph.Hgraph.contract} requires.  All tie-breaks are by
    lowest node id and the visit order comes from a seeded
    {!Prng.Splitmix} shuffle, so a matching is a pure function of
    [(graph, policy, max_weight, seed)]. *)

type policy =
  | Pairs
      (** Maximal matching: each group is a single node or a pair.
          Halves the graph per level; the multilevel engine's choice. *)
  | Agglomerate
      (** Greedy cluster growth: a visit seeds a group that repeatedly
          absorbs its best unmatched neighbour while the summed size
          stays within [max_weight].  The clustering pre-pass's
          policy, reaching higher per-pass reduction. *)

(** [compute ~policy ~max_weight ~seed hg] returns
    [(map, coarse_nodes)] where [map.(v)] is [v]'s group and group ids
    are dense, numbered by each group's lowest fine node id (so the
    result is independent of visit order up to the grouping itself).

    No group's summed node size exceeds [max_weight] (a node already
    heavier than the cap stays a singleton).

    @raise Invalid_argument if [max_weight < 1]. *)
val compute :
  policy:policy ->
  max_weight:int ->
  seed:int ->
  Hypergraph.Hgraph.t ->
  int array * int
