(** Connectivity-based clustering pre-pass.

    Clustering is one of the classical FM parameters the paper's
    introduction lists (Hagen/Huang/Kahng 1997 study it at length): the
    circuit is coarsened by merging strongly connected cells, the k-way
    partitioning runs on the much smaller coarse hypergraph, and the
    result is projected back to the flat netlist for refinement.

    The clusterer grows clusters greedily: cells are visited in a
    seed-determined random order; an unclustered cell starts a cluster,
    which repeatedly absorbs the unclustered neighbour with the highest
    connectivity score (shared nets weighted by 1/(net degree - 1), the
    standard edge-coarsening weight) while the cluster's logic size
    stays within [max_cluster_size].

    Pads are never clustered: each terminal node stays its own coarse
    node, so the coarse hypergraph has exactly the same pad set and —
    because clusters are assigned wholesale — coarse pin counts equal
    flat pin counts for any projected assignment. *)

(** The matching machinery this module delegates to; the multilevel
    engine ([Mlevel.Engine]) uses it directly, per level. *)
module Matching = Matching

type t

(** The coarse hypergraph, {!Hypergraph.Hgraph.contract} of the fine
    one.  Coarse cell sizes (and flip-flop counts) are the sums over
    their members, and a coarse node carries its lowest-numbered
    member's name; coarse nets are the original nets with at least two
    distinct coarse endpoints or a pad. *)
val coarse : t -> Hypergraph.Hgraph.t

(** [fine t] is the original hypergraph. *)
val fine : t -> Hypergraph.Hgraph.t

(** [coarse_of t v] maps a fine node to its coarse node. *)
val coarse_of : t -> Hypergraph.Hgraph.node -> Hypergraph.Hgraph.node

(** [members t c] lists the fine nodes merged into coarse node [c]. *)
val members : t -> Hypergraph.Hgraph.node -> Hypergraph.Hgraph.node list

(** [build h ~max_cluster_size ~seed] clusters hypergraph [h].
    @raise Invalid_argument if [max_cluster_size < 1]. *)
val build : Hypergraph.Hgraph.t -> max_cluster_size:int -> seed:int -> t

(** [project t coarse_assignment] expands an assignment of the coarse
    nodes into an assignment of the fine nodes.
    @raise Invalid_argument on a wrong-length array. *)
val project : t -> int array -> int array

(** [reduction t] is [fine nodes / coarse nodes] (≥ 1.0). *)
val reduction : t -> float
