(** Circuit hypergraphs.

    A digital circuit is a hypergraph [H = ({X, Y}, E)] following the
    problem definition of Krupnova & Saucier (DATE'99, section 2):

    - {b interior nodes} [X] ("cells") carry a positive size in target
      technology cells (CLBs);
    - {b terminal nodes} [Y] ("pads") model the primary I/Os of the
      circuit; they have size 0 and must also be assigned to devices,
      where each consumes one IOB pin;
    - {b nets} [E] are hyperedges over nodes.

    The structure is immutable once frozen from a {!Builder} (or
    contracted from a finer graph, {!contract}); node and
    net identifiers are dense integers, which lets partitioning engines
    use plain arrays for all per-node and per-net state. *)

(** Node identifier: [0 .. num_nodes - 1]. *)
type node = int

(** Net identifier: [0 .. num_nets - 1]. *)
type net = int

(** Kind of a node: an interior logic cell or a terminal I/O pad. *)
type kind =
  | Cell  (** Interior node, occupies [size] CLBs. *)
  | Pad   (** Terminal node (primary I/O), size 0, occupies one IOB. *)

type t

(** {1 Construction} *)

module Builder : sig
  (** Accumulates nodes and nets, then {!freeze}s to an immutable
      {!Hgraph.t}.  Typical clients: the BLIF reader and the synthetic
      circuit generator. *)

  type hgraph := t
  type t

  (** [create ()] is an empty builder. *)
  val create : unit -> t

  (** [add_cell b ~name ~size] registers an interior node and returns
      its identifier.  [flops] (default 0) is the number of flip-flops
      the node occupies — the secondary resource of the paper's
      section 2 ("additional constraints ... number of flip-flops").
      @raise Invalid_argument if [size <= 0] or [flops < 0]. *)
  val add_cell : ?flops:int -> t -> name:string -> size:int -> node

  (** [add_pad b ~name] registers a terminal node (size 0). *)
  val add_pad : t -> name:string -> node

  (** [add_net b ~name pins] registers a net over the given nodes.
      Duplicate pins are collapsed.  Nets with fewer than one pin are
      rejected.  @raise Invalid_argument on an unknown node id. *)
  val add_net : t -> name:string -> node list -> net

  (** [num_nodes b] is the number of nodes registered so far. *)
  val num_nodes : t -> int

  (** [freeze b] produces the immutable hypergraph.  The builder can be
      reused afterwards (freezing copies all data). *)
  val freeze : t -> hgraph
end

(** {1 Accessors} *)

(** Total number of nodes (cells + pads). *)
val num_nodes : t -> int

(** Number of interior nodes. *)
val num_cells : t -> int

(** Number of terminal nodes. *)
val num_pads : t -> int

(** Number of nets. *)
val num_nets : t -> int

(** [kind h v] is the kind of node [v]. *)
val kind : t -> node -> kind

(** [is_pad h v] is [true] iff [v] is a terminal node. *)
val is_pad : t -> node -> bool

(** [size h v] is the size of node [v] in CLBs (0 for pads). *)
val size : t -> node -> int

(** [flops h v] is the number of flip-flops of node [v] (0 for pads). *)
val flops : t -> node -> int

(** [name h v] is the node's name (unique per builder input). *)
val name : t -> node -> string

(** [net_name h e] is the net's name. *)
val net_name : t -> net -> string

(** [pins h e] is the array of nodes on net [e].  Do not mutate. *)
val pins : t -> net -> node array

(** [net_degree h e] is [Array.length (pins h e)]. *)
val net_degree : t -> net -> int

(** [nets_of h v] is the array of nets incident to node [v].  Do not
    mutate. *)
val nets_of : t -> node -> net array

(** [node_degree h v] is the number of nets incident to [v]. *)
val node_degree : t -> node -> int

(** [total_size h] is the sum of all cell sizes ([S_0] in the paper). *)
val total_size : t -> int

(** [total_flops h] is the sum of all cell flip-flop counts. *)
val total_flops : t -> int

(** [max_node_degree h] is the largest number of nets on any node; 0 for
    a netless hypergraph.  Gain buckets size themselves from this. *)
val max_node_degree : t -> int

(** [max_net_degree h] is the largest pin count of any net. *)
val max_net_degree : t -> int

(** [net_has_pad h e] is [true] iff net [e] touches a terminal node. *)
val net_has_pad : t -> net -> bool

(** {1 Iteration} *)

(** [iter_nodes f h] applies [f] to every node id in increasing order. *)
val iter_nodes : (node -> unit) -> t -> unit

(** [iter_cells f h] applies [f] to every interior node id. *)
val iter_cells : (node -> unit) -> t -> unit

(** [iter_pads f h] applies [f] to every terminal node id. *)
val iter_pads : (node -> unit) -> t -> unit

(** [iter_nets f h] applies [f] to every net id in increasing order. *)
val iter_nets : (net -> unit) -> t -> unit

(** [fold_nodes f acc h] folds over node ids in increasing order. *)
val fold_nodes : ('acc -> node -> 'acc) -> 'acc -> t -> 'acc

(** [fold_nets f acc h] folds over net ids in increasing order. *)
val fold_nets : ('acc -> net -> 'acc) -> 'acc -> t -> 'acc

(** {1 Contraction} *)

(** [contract h ~map ~coarse_nodes] collapses each node [v] into coarse
    node [map.(v)], the coarsening step of the multilevel engine and of
    the clustering pre-pass.  Coarse sizes and flip-flop counts are
    member sums; a coarse node takes the name of its lowest-numbered
    member.  A net is kept iff its pins span [>= 2] distinct coarse
    nodes or it touches a pad; kept nets stay in net order, keep their
    names, and their pins are the sorted distinct coarse endpoints.

    Pads must stay singletons, which makes the contraction exact: for
    any partition of the coarse graph, block sizes [S_i], pin counts
    [T_i] and the cut equal those of its projection
    [fun v -> assign.(map.(v))] onto [h].

    @raise Invalid_argument if [map] has the wrong length, a coarse id
    is out of [0 .. coarse_nodes-1], some coarse id has no members, or
    a pad is grouped with any other node. *)
val contract : t -> map:int array -> coarse_nodes:int -> t

(** {1 Integrity} *)

(** [validate h] checks internal invariants (pin/net cross references,
    sizes, degree caches) and returns [Error msg] on the first violation.
    Used by tests and by the BLIF reader after construction. *)
val validate : t -> (unit, string) result

(** [pp] prints a short summary: node/net counts and total size. *)
val pp : Format.formatter -> t -> unit

(** {1 Canonical digest} *)

(** [digest h] is a hex digest of the hypergraph's canonical form:
    nodes ordered by name, nets ordered by their sorted pin-name lists.
    Invariant under any node relabeling that preserves names (e.g. a
    pad permutation) and under net reordering; sensitive to every
    structural change (sizes, flops, pin membership, added or removed
    nodes/nets).  This is the producer behind the [netlist_digest]
    field of run-ledger entries and the partition-service cache key. *)
val digest : t -> string
