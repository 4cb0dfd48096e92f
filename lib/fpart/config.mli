(** FPART algorithm parameters.

    The paper runs FPART with fixed values (section 4: "All the results
    of the FPART algorithm were obtained with the following fixed
    values...").  The values no experiment varies are the constants
    below; the knobs the ablations, the CLI or the service vary are
    fields of {!t}, with the published values as {!default}.

    A note on the move-region coefficients: the paper's text writes the
    feasible move region as [S_MAX·(1-ε_min) ≤ S_i ≤ S_MAX·(1+ε_max)]
    but then reports [ε²_min = 0.95] as {e more strict} than
    [ε*_min = 0.3], which only reads consistently when the coefficients
    multiply [S_MAX] directly (lower bound [ε_min·S_MAX], upper bound
    [ε_max·S_MAX]).  We implement the direct-multiplier reading: a
    two-block pass forbids shrinking a non-remainder block below
    [0.95·S_MAX] (so clusters cannot drain back into the remainder),
    a multi-block pass allows shrinking to [0.3·S_MAX], and both allow
    growing to [1.05·S_MAX] while the device lower bound has not been
    reached. *)

(** Which improvement backend the driver's [Improve()] calls and the
    post-projection refinement use:

    - [Sanchis_refiner] — the paper's gain-bucket passes (default);
    - [Hybrid_refiner] — Sanchis passes first, then corridor max-flow
      min-cut sweeps ({!Flow.Refine}) when the Sanchis passes retained
      zero moves (the stall signal).

    Both respect the same feasible move windows; flow proposals
    additionally apply only when they improve the lexicographic value
    without growing the cut.  See docs/FLOW_REFINEMENT.md. *)
type refiner = Sanchis_refiner | Hybrid_refiner

(** Which engine [Solve.run] drives:

    - [Flat] — the paper's recursive driver ({!Driver}) on the full
      netlist (default);
    - [Mlevel] — the post-paper multilevel V-cycle ([Mlevel.Engine]):
      coarsen, run FPART on the coarsest graph, uncoarsen with bounded
      refinement per level.  See docs/MULTILEVEL.md. *)
type engine = Flat | Mlevel

(** The one table of CLI- and protocol-facing names of each enum:
    ["sanchis"]/["hybrid"] and ["flat"]/["mlevel"].  The binaries build
    their option parsers from these. *)
val refiners : (string * refiner) list

val engines : (string * engine) list

val refiner_name : refiner -> string

val engine_name : engine -> string

(** [refiner_of_string s] looks [s] up in {!refiners}. *)
val refiner_of_string : string -> refiner option

(** {1 Fixed parameters}

    Published values no experiment varies.  The free-space weights
    [σ1 = σ2 = 0.5] are read only by {!free_space}, and the tie-break
    scan bound lives in [Sanchis]. *)

val n_small : int  (** Threshold [N_small] between strategies (15). *)

val eps_max_multi : float  (** [ε*_max] = 1.05. *)

val eps_max_two : float  (** [ε²_max] = 1.05. *)

val eps_min_multi : float  (** [ε*_min] = 0.3. *)

(** {1 Knobs} *)

type t = {
  delta : float option;
      (** Filling ratio; [None] uses {!Device.paper_delta}. *)
  cost : Partition.Cost.params;  (** λ^S, λ^T, λ^R. *)
  eps_min_two : float;
      (** [ε²_min] = 0.95; the [loose-2blk-window] ablation sets it to
          {!eps_min_multi}. *)
  stack_depth : int;      (** [D_stack] = 4. *)
  max_passes : int;       (** Pass budget per improvement execution. *)
  gain_levels : int;      (** Lookahead gain depth (section 3.7); 2 = published. *)
  bucket_discipline : Gainbucket.Bucket_array.discipline;
      (** LIFO (published default) or FIFO gain buckets (section 1). *)
  gain_mode : Sanchis.gain_mode;
      (** Primary gain: published [Cut_gain], or the future-work
          [Pin_gain] (section 5). *)
  drift_limit : int option;
      (** Future-work early pass abort (section 5); [None] = published
          behaviour. *)
  random_initial : bool;
      (** Replace the constructive initial bipartition of section 3.2
          with a uniformly random one — the baseline the paper dismisses;
          kept for the ablation reproducing that observation.  Default
          [false]. *)
  cluster_size : int option;
      (** Clustering pre-pass (one of the classical FM parameters of the
          paper's section 1): [Some n] coarsens the circuit into
          connectivity clusters of logic size ≤ n, partitions the coarse
          hypergraph, projects back and refines flat.  [None]
          (published behaviour) partitions the flat netlist. *)
  refiner : refiner;
      (** Improvement backend: Sanchis gain buckets (published) or the
          hybrid's flow escalation.  Default [Sanchis_refiner]. *)
  engine : engine;
      (** Engine [Solve.run] dispatches to.  Default [Flat].  {!Driver}
          is the flat engine itself and ignores this field. *)
  runs : int;
      (** Multi-start breadth ("number of runs", one of the classical
          FM parameters of the paper's section 1), at least 1.
          [Solve.run] gives it to {!Driver.run_best} on [Flat], and
          runs [max 3 runs] starts on the coarsest graph on [Mlevel].
          {!Driver.run} ignores it.  Default 1. *)
  seed : int;             (** PRNG seed for deterministic tie-breaks. *)
  jobs : int;
      (** Domain budget for the execution layer ([Fpart_exec]): the
          multi-start runs of {!Driver.run_best} and the
          initial-bipartition portfolio fan out over this many
          domains.  [1] (default) is the exact sequential path.  Results
          are bit-identical for every value — see docs/PARALLELISM.md. *)
  selfcheck : Fpart_check.Selfcheck.level;
      (** Runtime validation of the incremental state against the
          reference oracle ({!Fpart_check.Selfcheck}): [Off] (default),
          [Cheap] (pass boundaries), [Paranoid] (every applied move,
          and every gain the move could change).
          Violations are counted and reported through [Fpart_obs], never
          abort the run.  See docs/TESTING.md. *)
}

(** The paper's published parameter set. *)
val default : t

(** [delta_for t device] resolves the filling ratio. *)
val delta_for : t -> Device.t -> float

(** [sanchis t] derives the Sanchis engine configuration.  At
    [selfcheck = Paranoid] it installs both hooks: [on_move] validates
    the state after every applied move, and [on_gain_update] compares
    every reported bucket gain with the oracle
    ({!Fpart_check.Selfcheck.validate_gain}). *)
val sanchis : t -> Sanchis.config

(** [flow t] is the corridor-sweep budget of the hybrid's flow
    escalation: {!Flow.Refine.default_config} with the pass budget
    clamped to [min 4 t.max_passes] — each sweep re-runs Dinic on every
    wired pair, so a handful already reaches the fixed point. *)
val flow : t -> Flow.Refine.config

(** [free_space ~s_max ~t_max ~size ~pins] is the free-space estimate
    [F = σ1·(S_MAX-S_i)/S_MAX + σ2·(T_MAX-|Y_i|)/T_MAX] used to pick
    [P_MIN_F] (section 3.1), with the published [σ1 = σ2 = 0.5]. *)
val free_space : s_max:int -> t_max:int -> size:int -> pins:int -> float

(** [digest ?extra t] is a hex digest of the canonical rendering of
    every result-relevant field, [engine] and [runs] included ([jobs]
    and [selfcheck] are excluded — both are documented never to change
    the produced partition — and the fixed parameters are constants of
    the build, not of [t]).  [?extra] folds caller-side knobs (the
    CLI's baseline algorithm) into the same digest.  This is the
    producer behind the [config_digest] field of run-ledger entries
    and serve responses, so one workload gets one digest from both. *)
val digest : ?extra:string -> t -> string
