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
       weights are capped at [S_MAX / 8] so a coarse node always fits a
       device and coarse solutions stay projectable.  Stops at 160
       nodes plus the pads (scaled up to [12·M] when the device lower
       bound [M] is large), after 24 levels, or when a level shrinks by
       less than a factor of 1.1.

    2. {b Initial partition.}  The existing multi-start
       {!Fpart.Driver.run_best} on the coarsest graph —
       [max 3 base.runs] seeds sharded across [Fpart_exec.Pool] domains
       ([base.jobs]), bit-identical at any job count.

    3. {b Uncoarsening + refinement.}  Each level's matching map
       projects the partition one level down; the projection re-seeds
       the gain buckets and a bounded FPART improvement
       ({!Fpart.Driver.refine}, one Sanchis pass) runs at every
       level.  Because contraction
       is exact (pads stay singletons; a net survives iff it spans ≥ 2
       coarse nodes or touches a pad), block sizes [S_i], pin counts
       [T_i] and the cut are {e equal} between a coarse partition and
       its flat projection — coarse feasibility {e is} flat
       feasibility, and under [--selfcheck cheap] the engine
       cross-checks that equality against [Fpart_check.Oracle] at
       every level.

    Every phase is wrapped in [Fpart_obs.Recorder] spans
    ([mlevel.run/coarsen/initial/uncoarsen/refine]), and each level's
    coarsening ratio is an [mlevel_coarsen] record.  An
    [mlevel.refine] span carries its level's convergence point:
    [level], [nodes], [nets], [cut_before]/[cut_after] and, when
    telemetry is on, [value_before]/[value_after]. *)

type result = {
  res : Fpart.Driver.result;
      (** Final flat partition; [trace] is the coarse-level FPART
          trace, [iterations] its iteration count. *)
  levels : int;  (** Coarsening levels built (0 = never coarsened). *)
  coarsen_ratio : float;
      (** Original nodes / coarsest nodes (≥ 1). *)
}

(** [run ?base hg device] partitions [hg] onto copies of [device].
    [base] carries the FPART knobs (seed, runs, jobs, selfcheck, cost,
    refiner); [base.cluster_size] is ignored — the hierarchy replaces
    the single clustering pre-pass — and so is [base.engine].
    Deterministic for a given [base.seed] and bit-identical across
    [base.jobs].  [Solve.run] calls this for [engine = Mlevel]. *)
val run : ?base:Fpart.Config.t -> Hypergraph.Hgraph.t -> Device.t -> result
