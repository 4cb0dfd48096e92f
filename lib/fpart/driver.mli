(** FPART — Algorithm 1 of the paper.

    Recursive multi-way partitioning: each iteration bipartitions the
    remainder with the best of two constructive methods, then runs the
    improvement schedule of section 3.1 (pair pass on the lately created
    blocks; all-blocks pass when [M ≤ N_small]; pair passes against the
    min-size, min-I/O and max-free-space committed blocks; pairwise
    passes against every committed block once the partition reaches the
    theoretical minimum [M]).  Iterations stop when every block meets
    the device constraints.

    A robustness addition over the paper's pseudocode: when an
    improvement pass trades feasibility between blocks (the remainder
    becomes feasible while a committed block goes infeasible), the two
    blocks swap labels so the violating block keeps the remainder role
    — the invariant "only the last block may violate constraints" is
    restored instead of looping. *)

type result = {
  k : int;                 (** Number of devices produced. *)
  assignment : int array;  (** node → block, blocks [0 .. k-1]. *)
  feasible : bool;         (** Every block meets the constraints. *)
  iterations : int;        (** Bipartition iterations executed. *)
  cut : int;               (** Cut nets in the final partition. *)
  total_pins : int;        (** [T_SUM] of the final partition. *)
  m_lower : int;           (** Lower bound [M] for this problem. *)
  delta : float;           (** Filling ratio used. *)
  cpu_seconds : float;     (** Processor time consumed. *)
  trace : Trace.event list;  (** Full improvement schedule (Figure 1). *)
}

(** [run ?config ?pool h device] partitions circuit [h] onto copies of
    [device].  Deterministic for a given [config.seed]; [?pool] only
    adds parallelism inside the run (the initial-bipartition portfolio)
    and never changes the result. *)
val run :
  ?config:Config.t ->
  ?pool:Fpart_exec.Pool.t ->
  Hypergraph.Hgraph.t ->
  Device.t ->
  result

(** [run_best ?config ~runs h device] runs FPART [runs] times with
    seeds [config.seed, config.seed+1, ...] and returns the best result
    (feasible first, then fewest devices, then cut, then total pins;
    the first of equals wins).  "Number of runs" is one of the classical
    FM parameters the paper's introduction lists.  A run that raises
    fails the whole call: the answer is the best of all [runs] or
    nothing, never the best of the runs that happened to finish.  The
    partition service isolates each request as a whole
    ([Serve.Engine]).

    [config.jobs] fans the runs out over a domain pool; the reduction
    applies the lexicographic comparison in run order, so the returned
    solution is bit-identical for every [jobs] (only [cpu_seconds]
    varies).  With [runs = 1] the domains are spent inside the single
    run instead (initial-bipartition portfolio).
    @raise Invalid_argument if [runs < 1] or [config.jobs < 1]. *)
val run_best :
  ?config:Config.t ->
  runs:int ->
  Hypergraph.Hgraph.t ->
  Device.t ->
  result

(** [final_state r h] rebuilds the partition state of a result (for
    reporting: per-block sizes and pins). *)
val final_state : result -> Hypergraph.Hgraph.t -> Partition.State.t

(** [refine config ctx st] is the flat refinement pass applied after
    projecting a coarse partition onto a finer graph: one multi-block
    Sanchis pass when [k ≤ 18], otherwise a ring of pairwise passes.
    Move windows are strict ([0 .. S_MAX], no remainder), so sizes stay
    within the device and — because the engine rewinds each pass to its
    best prefix — the lexicographic solution value never worsens.  With
    [Hybrid_refiner], a corridor flow sweep over every block follows
    when no Sanchis pass retained a move.  Pass intensity follows
    [config.max_passes]; the multilevel engine calls this at every
    uncoarsening level with its own bound. *)
val refine : Config.t -> Partition.Cost.context -> Partition.State.t -> unit
