(** Multi-way iterative improvement à la Sanchis, tuned as in the paper.

    This is the engine behind every [Improve()] call of Algorithm 1.  It
    moves nodes between the {e active} blocks of a partition state,
    selecting moves by classical cut gain with the paper's refinements
    (sections 3.5–3.7):

    - one gain bucket per move direction ([k·(k-1)] buckets over the
      active blocks), retired while a block sits on the boundary of its
      feasible move region;
    - Krishnamurthy-style lookahead gains (level 2 by default, deeper
      configurable) as first tie-break, computed lock-aware and
      restricted to nets fully contained in the direction's two blocks
      (exact for two-block passes, a documented heuristic for
      multi-block passes);
    - size balance [MAX (S_FROM - S_TO)] as second tie-break, which
      systematically prefers moves {e out of} the remainder;
    - per-move solution evaluation by the caller-supplied cost (the
      lexicographic tuple of section 3.4), with rewind to the best
      prefix at the end of each pass;
    - dual semi-feasible / infeasible solution stacks (section 3.6):
      the first execution collects restart candidates, then a series of
      passes restarts from every stacked solution, and the best solution
      over all executions wins. *)

(** What the primary (bucket) gain measures. *)
type gain_mode =
  | Cut_gain  (** Classical FM: nets removed from the cut (the paper's
                  published configuration). *)
  | Pin_gain  (** The paper's future-work variant: the real decrease in
                  total pin count, which couples move selection directly
                  to the I/O constraint. *)

type config = {
  gain_levels : int;
      (** Depth of the Krishnamurthy lookahead used as tie-break:
          1 = classical FM (no lookahead), 2 = the paper's published
          configuration, 3+ = deeper lookahead (which reference [7] of
          the paper found not to pay for itself — see the ablations). *)
  max_passes : int;    (** Pass budget per execution (≥ 1). *)
  stack_depth : int;   (** [D_stack]; 0 disables stack restarts. *)
  gain_mode : gain_mode;
  drift_limit : int option;
      (** The paper's second future-work idea: abort a pass after this
          many consecutive moves without improving on the pass best
          (time otherwise wasted deep in the infeasible region).
          [None] (published behaviour) never aborts early. *)
  tie_salt : int;
      (** XOR salt applied to cell ids in the final deterministic
          tie-break: different salts explore different (equally good)
          move orders, which is what makes multi-start runs diverge.
          0 = plain id order. *)
  bucket_discipline : Gainbucket.Bucket_array.discipline;
      (** LIFO (published default) or FIFO gain buckets — one of the
          classical FM parameters of the paper's section 1. *)
  on_move : (Partition.State.t -> unit) option;
      (** Hook invoked after every applied move (state already updated,
          before evaluation).  [None] (default) costs nothing; the
          paranoid self-check level installs a per-move validator here.
          The hook must not mutate the state. *)
  on_gain_update : (Partition.State.t -> cell:int -> target:int -> gain:int -> unit) option;
      (** Hook invoked after every applied move, once per bucketed gain
          of every unlocked active neighbour of the moved cell — every
          gain the move could have changed, not only the ones it did:
          [cell]'s bucket gain towards global block [target] is [gain].
          Neighbour gains are maintained incrementally (per-net
          critical-net deltas), so this is where the paranoid
          self-check level compares them with the reference oracle.
          [None] (default) costs one match per neighbour.  Must not
          mutate the state. *)
}

(** Paper values: gain levels 2, 8 passes per execution, stack depth 4,
    cut gain, no drift limit, salt 0, no hooks.  Tie-breaks scan at most
    16 cells per bucket, a constant of the engine. *)
val default_config : config

(** Which blocks take part, and the per-block size windows of the
    feasible move region.  [lower]/[upper] are indexed by {e global}
    block index; only entries of active blocks are read.  Use [0] /
    [max_int] to leave a side unconstrained (the remainder block). *)
type spec = {
  active : int array;      (** Global indices of participating blocks. *)
  remainder : int option;  (** Which active block is the remainder, if any. *)
  lower : int array;       (** Minimum block size for moves {e out}. *)
  upper : int array;       (** Maximum block size for moves {e in}. *)
}

type report = {
  best : Partition.Cost.value;  (** Value of the retained solution. *)
  passes_run : int;             (** Total passes over all executions. *)
  moves_applied : int;
      (** Every applied move, including later-rewound ones — the same
          events the [sanchis.moves] counter ticks. *)
  moves_retained : int;
      (** Moves surviving the rewind to each pass's best prefix
          (≤ [moves_applied]). *)
  restarts : int;               (** Stack restarts performed. *)
}

(** [improve st ~spec ~config ~eval] mutates [st] to the best solution
    found.  [eval st] must return the solution value used for ranking —
    callers build it from {!Partition.Cost.evaluate} so that the tuple
    [(f, d_k, T_SUM, d_k^E)] drives the search.  Nodes outside active
    blocks never move.

    @raise Invalid_argument if [spec.active] has fewer than two blocks,
    repeats a block, or indexes out of range. *)
val improve :
  Partition.State.t ->
  spec:spec ->
  config:config ->
  eval:(Partition.State.t -> Partition.Cost.value) ->
  report
