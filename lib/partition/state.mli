(** Mutable k-way partition state with O(1)-amortized incremental moves.

    A [State.t] assigns every node of a hypergraph to one of [k] blocks
    and maintains, incrementally under {!move}:

    - per-block logic size [S_i] (sum of cell sizes) and flip-flop
      count [F_i],
    - per-block terminal count [T_i] (the pin model of DESIGN.md §7: a
      net consumes one pin on block [i] iff it has a pin in [i] and is
      either connected to a pad somewhere or spans at least two blocks),
    - per-block external-pad count [T_i^E] (pads assigned to the block),
    - per-net per-block pin counts (one flat [net * k + block] array)
      and block span,
    - the global cut size (number of nets spanning ≥ 2 blocks) and the
      total pin count [T_SUM].

    All partitioning engines (FM, Sanchis, FBB refinement) operate on
    this structure.  Blocks are dense integers [0 .. k-1]; the mapping
    from engine-level block handles (e.g. "the remainder") to indices is
    the caller's business. *)

type t

(** {1 Construction} *)

(** [create h ~k ~assign] builds the state for hypergraph [h] where node
    [v] starts in block [assign v].  @raise Invalid_argument if [k < 1]
    or an assignment is out of range. *)
val create : Hypergraph.Hgraph.t -> k:int -> assign:(Hypergraph.Hgraph.node -> int) -> t

(** [copy t] is an independent deep copy. *)
val copy : t -> t

(** {1 Accessors} *)

val hypergraph : t -> Hypergraph.Hgraph.t

(** Number of blocks. *)
val k : t -> int

(** [block_of t v] is the block currently holding node [v]. *)
val block_of : t -> Hypergraph.Hgraph.node -> int

(** [size_of t i] is [S_i], the summed cell size of block [i]. *)
val size_of : t -> int -> int

(** [flops_of t i] is [F_i], the summed flip-flop count of block [i]
    (the secondary resource of the paper's section 2). *)
val flops_of : t -> int -> int

(** [pins_of t i] is [T_i], the terminal count of block [i]. *)
val pins_of : t -> int -> int

(** [pads_of t i] is [T_i^E], the number of pads assigned to block [i]. *)
val pads_of : t -> int -> int

(** [cells_of t i] is the number of nodes (cells and pads) in block [i]. *)
val cells_of : t -> int -> int

(** [cut_size t] is the number of nets spanning at least two blocks. *)
val cut_size : t -> int

(** [total_pins t] is [T_SUM = sum_i T_i]. *)
val total_pins : t -> int

(** [net_count t e i] is the number of pins of net [e] inside block [i]
    ([0 <= i < k t]).  The counts of all nets live in one flat array,
    net-major, so a state costs one allocation however many nets the
    graph has. *)
val net_count : t -> Hypergraph.Hgraph.net -> int -> int

(** [net_span t e] is the number of blocks net [e] touches. *)
val net_span : t -> Hypergraph.Hgraph.net -> int

(** [nodes_of_block t i] lists the nodes of block [i] (O(n)). *)
val nodes_of_block : t -> int -> Hypergraph.Hgraph.node list

(** [assignment t] is a fresh copy of the node→block array. *)
val assignment : t -> int array

(** {1 Mutation} *)

(** [move ?on_net t v b] reassigns node [v] to block [b], updating all
    cached quantities.  A move to the node's current block is a no-op.

    When [on_net] is given it is invoked once per net of [v] (in
    [nets_of] order) with the net's {e pre-move} pin counts in the
    source block ([ca]), the destination block ([cb]) and its pre-move
    span — the transitions the move applied are then
    [ca → ca-1], [cb → cb+1],
    [span → span - (ca=1) + (cb=0)].  Counts of other blocks are
    untouched by the move.  This is the changed-nets summary consumed by
    the incremental delta-gain engine; the callback must not mutate the
    state.  No-op moves report nothing.
    @raise Invalid_argument if [b] is out of range. *)
val move :
  ?on_net:(Hypergraph.Hgraph.net -> ca:int -> cb:int -> span:int -> unit) ->
  t ->
  Hypergraph.Hgraph.node ->
  int ->
  unit

(** [load_assignment t a] bulk-restores a previously captured
    assignment (applies moves node by node; [a] must have one entry per
    node). *)
val load_assignment : t -> int array -> unit

(** {1 Gains} *)

(** [cut_gain t v b] is the decrease in {!cut_size} if [v] moved from
    its block to [b] (negative when the move adds cut nets).  This is
    the classical FM level-1 gain, O(degree of [v]). *)
val cut_gain : t -> Hypergraph.Hgraph.node -> int -> int

(** [pin_gain t v b] is the decrease in {!total_pins} if [v] moved to
    [b]; used by the "real I/O gain" extension (paper's future work). *)
val pin_gain : t -> Hypergraph.Hgraph.node -> int -> int

(** [pin_change t v b] is the change in [pins_of t b] if [v] moved to
    [b]: the destination's side of {!pin_gain}, O(degree of [v]).
    Constructive growth scores a candidate's merge with it without a
    tentative move. *)
val pin_change : t -> Hypergraph.Hgraph.node -> int -> int

(** [cut_gain_net ~from_cnt ~to_cnt ~span] is one net's contribution to
    {!cut_gain} for a mover whose net has [from_cnt] pins in the source
    block, [to_cnt] in the destination and spans [span] blocks.
    {!cut_gain} is the fold of this over the mover's nets; the
    incremental delta-gain engine evaluates it on a net's before/after
    counts so both paths share the exact same arithmetic. *)
val cut_gain_net : from_cnt:int -> to_cnt:int -> span:int -> int

(** Same as {!cut_gain_net} for {!pin_gain}; [pad] is
    [Hgraph.net_has_pad] of the net. *)
val pin_gain_net : pad:bool -> from_cnt:int -> to_cnt:int -> span:int -> int

(** {1 Integrity} *)

(** [check t] recomputes every cached quantity from scratch and reports
    the first discrepancy.  Test-only (O(pins)). *)
val check : t -> (unit, string) result
