(** Multilevel V-cycle engine: coarsen → initial partition → FPART
    refinement.

    The flat FPART driver explores a few thousand cells comfortably,
    but the 10^5–10^6-cell regime needs the multilevel shape that
    superseded flat FM (hMETIS; Heuer/Sanders/Schlag survey it as the
    standard frame): contract the circuit through a hierarchy of
    matchings until it is small, solve the small problem well, then
    project back level by level, refining at each.

    {2 Phases}

    1. {b Coarsening.}  Heavy-edge / cone-aware matching
       ({!Cluster.Matching}, [Pairs] policy), each level contracted
       with {!Hypergraph.Hgraph.contract}.  Contracted-vertex
       weights are capped at [max_weight_frac · S_MAX] so a coarse node
       always fits a device and coarse solutions stay projectable.
       Stops at [coarsen_thresh] nodes (scaled up to [12·M] when the
       device lower bound [M] is large), after [max_levels], or when a
       level shrinks by less than [min_reduction].

    2. {b Initial partition.}  The existing multi-start
       {!Fpart.Driver.run_best} on the coarsest graph —
       [coarse_runs] seeds sharded across [Fpart_exec.Pool] domains
       ([base.jobs]), bit-identical at any job count.

    3. {b Uncoarsening + refinement.}  Each level's matching map
       projects the partition one level down; the projection re-seeds
       the gain buckets and a bounded FPART improvement
       ({!Fpart.Driver.refine} with [refine_passes]) runs at every
       level.  Because contraction
       is exact (pads stay singletons; a net survives iff it spans ≥ 2
       coarse nodes or touches a pad), block sizes [S_i], pin counts
       [T_i] and the cut are {e equal} between a coarse partition and
       its flat projection — coarse feasibility {e is} flat
       feasibility, and under [--selfcheck cheap] the engine
       cross-checks that equality against [Fpart_check.Oracle] at
       every level.

    Additional V-cycles ([cycles > 1]) re-coarsen with the matching
    restricted to the current blocks ([~within]) and refine back down.

    Every phase is wrapped in [Fpart_obs.Recorder] spans
    ([mlevel.run/coarsen/initial/uncoarsen/refine]) with coarsening
    ratios and per-level cut/value convergence events. *)

type config = {
  coarsen_thresh : int;
      (** Stop coarsening at this many nodes (before the [12·M]
          floor).  Default 160. *)
  max_weight_frac : float;
      (** Contracted-vertex weight cap as a fraction of the derated
          device capacity [S_MAX].  Default 0.125. *)
  min_reduction : float;
      (** Stop when a level shrinks by less than this factor (matching
          has collapsed, e.g. on a star netlist).  Default 1.1. *)
  max_levels : int;  (** Hierarchy depth bound.  Default 24. *)
  coarse_runs : int;
      (** Multi-start seeds for the initial partition.  Default 3. *)
  refine_passes : int;
      (** [Sanchis.max_passes] bound per refinement level.  Default 2. *)
  cycles : int;
      (** V-cycles: 1 = plain coarsen/solve/refine; each extra cycle
          re-coarsens within the current blocks and refines back down.
          Default 1. *)
}

val default_config : config

(** Refinement telemetry for one uncoarsening level (also emitted as
    [{"type":"mlevel_level",...}] recorder events). *)
type level_stat = {
  level : int;  (** 0 = the original flat graph. *)
  nodes : int;
  nets : int;
  cut_before : int;   (** After projection, before refinement. *)
  cut_after : int;
  value_before : Partition.Cost.value;
  value_after : Partition.Cost.value;
}

type result = {
  res : Fpart.Driver.result;
      (** Final flat partition; [trace] is the coarse-level FPART
          trace, [iterations] its iteration count. *)
  levels : int;  (** Coarsening levels built (0 = never coarsened). *)
  coarsen_ratio : float;
      (** Original nodes / coarsest nodes (≥ 1). *)
  level_stats : level_stat list;
      (** One per refinement, coarsest first, across all cycles. *)
}

(** [run ?config ?base hg device] partitions [hg] onto copies of
    [device].  [base] carries the FPART knobs (seed, jobs, selfcheck,
    cost, engine discipline); [base.cluster_size] is ignored — the
    hierarchy replaces the single clustering pre-pass.  Deterministic
    for a given [(config, base.seed)] and bit-identical across
    [base.jobs]. *)
val run :
  ?config:config ->
  ?base:Fpart.Config.t ->
  Hypergraph.Hgraph.t ->
  Device.t ->
  result
