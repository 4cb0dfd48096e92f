(** The [Improve()] calls of Algorithm 1: Sanchis passes configured with
    the paper's feasible move regions (section 3.5).

    Size windows use the direct-multiplier reading of the ε coefficients
    (see {!Config}):
    - two-block passes bound non-remainder blocks to
      [[ε²_min·S_MAX, ε²_max·S_MAX]];
    - multi-block passes use [[ε*_min·S_MAX, ε*_max·S_MAX]];
    - the remainder is never bounded ([ε^R_max = ∞], lower bound 0);
    - once the theoretical minimum [M] has been reached
      ([allow_violation = false]), the upper bound tightens to [S_MAX]
      (no size-violating moves for non-remainder blocks);
    - I/O violations are never blocked (no pin constraint on moves).

    Each call appends one [Trace.Improve] event and is one
    [improve.pass] recorder span.  The span carries [iteration], [kind],
    [refiner], [blocks], [passes], [moves], [moves_retained] and
    [restarts] (plus [flow_*] counts after a hybrid escalation), and,
    when telemetry is on, [cut_before]/[cut_after] and
    [value_before]/[value_after]. *)

type t = {
  cfg : Config.t;
  params : Partition.Cost.params;
  ctx : Partition.Cost.context;
  trace : Trace.t;
}

(** [windows t st ~remainder ~allow_violation ~two_block] is the
    per-block [(lower, upper)] size windows of the feasible move region,
    indexed by global block.  The remainder gets [(0, max_int)];
    exposed for the table-driven edge-case tests. *)
val windows :
  t ->
  Partition.State.t ->
  remainder:int ->
  allow_violation:bool ->
  two_block:bool ->
  int array * int array

(** [pair t st ~iteration ~remainder ~other ~allow_violation ~kind] runs
    a two-block improvement between [remainder] and [other] and records
    a trace event.  A no-op when [other = remainder]. *)
val pair :
  t ->
  Partition.State.t ->
  iteration:int ->
  remainder:int ->
  other:int ->
  allow_violation:bool ->
  kind:Trace.pass_kind ->
  unit

(** [all_blocks t st ~iteration ~remainder ~allow_violation] runs the
    improvement pass over every block of the partition. *)
val all_blocks :
  t ->
  Partition.State.t ->
  iteration:int ->
  remainder:int ->
  allow_violation:bool ->
  unit
