(** Dinic's maximum-flow algorithm on explicit directed graphs.

    Written for the FBB bipartitioner, which needs two things beyond a
    textbook max-flow:

    - {b incremental growth}: edges may be added {e between} calls to
      {!max_flow} (capacities never shrink), and the next call continues
      augmenting from the accumulated flow — this is how FBB merges
      nodes into the source/sink sets without recomputing from scratch;
    - {b residual reachability}: {!source_side} exposes the min-cut
      partition induced by the current flow. *)

type t

(** [create ~nodes] makes an empty graph over node ids [0 .. nodes-1]. *)
val create : nodes:int -> t

(** Capacity value treated as unbounded (large enough never to saturate
    in networks built from circuit hypergraphs). *)
val infinite : int

(** [add_edge t ~src ~dst ~cap] adds a directed edge (plus its residual
    reverse of capacity 0) and returns its edge id.
    @raise Invalid_argument on out-of-range nodes or negative cap. *)
val add_edge : t -> src:int -> dst:int -> cap:int -> int

(** [max_flow t ~source ~sink] augments until no path remains and
    returns the {e additional} flow pushed by this call.  Cumulative
    flow is [total_flow t].  @raise Invalid_argument if
    [source = sink]. *)
val max_flow : t -> source:int -> sink:int -> int

(** [total_flow t] is the flow accumulated over all {!max_flow} calls. *)
val total_flow : t -> int

(** [source_side t ~source] marks every node reachable from [source] in
    the residual graph; after a completed [max_flow] this is the
    source side of a minimum cut. *)
val source_side : t -> source:int -> bool array
