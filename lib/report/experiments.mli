(** Regeneration of every table and figure of the paper's evaluation.

    Each [tableN]/[figureN] function runs the required experiments on
    the MCNC surrogates (memoised across tables — Table 6 reuses the
    FPART runs of Tables 2–5) and renders a plain-text report that
    prints our measured columns next to the published ones.  See
    EXPERIMENTS.md for the paper-vs-measured discussion.

    All runs are deterministic; [progress] (default: no output) is
    called with a short status line before each fresh (non-memoised)
    algorithm run. *)

type algo =
  | Fpart_algo   (** This paper's method ({!Fpart.Driver}). *)
  | Kwayx_algo   (** Baseline k-way.x ({!Fpart.Kwayx}). *)
  | Fbb_mw_algo  (** Baseline FBB-MW ({!Flow.Fbb_mw}). *)

type run = {
  k : int;             (** Devices produced. *)
  feasible : bool;
  cut : int;
  cpu_seconds : float;
}

(** [run_one t algo circuit device] runs (or recalls) one experiment. *)
type t

(** [create ?progress ?jobs ?config ()] makes a fresh memo table.
    [jobs] (default 1) is the domain budget: with [jobs > 1] the device
    tables, Table 6 and the variance study fan their independent
    algorithm runs out on an {!Fpart_exec.Pool} (created lazily,
    released by {!shutdown}).  [config] (default
    {!Fpart.Config.default}) is what every FPART run hands to
    {!Solve.run}, and the base the ablations, the seed variance and the
    filling-ratio sweep vary: its [engine] and [refiner] select the
    engine and the improvement backend.  Every run is deterministic, so
    the rendered tables are identical for every [jobs]; only the
    progress-line order and wall-clock time change.
    @raise Invalid_argument if [jobs < 1]. *)
val create :
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?config:Fpart.Config.t ->
  unit ->
  t

(** [shutdown t] joins the worker domains of the lazily created pool, if
    any.  [t] remains usable (a later table re-creates the pool). *)
val shutdown : t -> unit

val run_one : t -> algo -> Netlist.Mcnc.circuit -> Device.t -> run

(** {1 Tables} *)

(** Table 1: benchmark characteristics of the surrogates (IOBs and CLB
    counts match the paper by construction; net statistics are shown to
    document the synthetic structure). *)
val table1 : t -> string

(** Table 2: number of XC3020 devices, measured vs published. *)
val table2 : t -> string

(** Table 3: number of XC3042 devices. *)
val table3 : t -> string

(** Table 4: number of XC3090 devices. *)
val table4 : t -> string

(** Table 5: number of XC2064 devices (δ = 1.0, c-circuits). *)
val table5 : t -> string

(** Table 6: FPART CPU seconds per circuit and device, ours vs the
    paper's SUN Sparc Ultra 5 numbers. *)
val table6 : t -> string

(** {1 Figures} *)

(** Figure 1: the improvement-pass schedule of one FPART run, rendered
    from the driver trace.  It is the flat driver's Algorithm 1 whatever
    engine the harness config names; its refiner and seed apply. *)
val figure1 : t -> string

(** Figure 2: feasible / semi-feasible / infeasible solution examples
    with their classifications and infeasibility distances. *)
val figure2 : t -> string

(** Figure 3: the feasible move regions (ε windows) for two-block and
    multi-block passes. *)
val figure3 : t -> string

(** {1 Ablations}

    Not in the paper, but regenerating its design arguments: FPART runs
    with each tuning of sections 3.3-3.7 disabled in turn (2-level
    gains, solution stacks, pass budget, two-block move window,
    deviation penalty) plus the two future-work variants of section 5
    (pin-gain move selection, drift-limited passes), on a subset of
    circuits against XC3020. *)
val ablations : t -> string

(** {1 Machine-readable exports}

    CSV forms of Tables 2-5 (one line per circuit, measured and
    published columns). *)

val csv2 : t -> string

val csv3 : t -> string

val csv4 : t -> string

val csv5 : t -> string

(** {1 Seed variance}

    FPART run over several tie-break seeds per circuit (XC3020):
    min/median/max device counts, showing how representative the
    single-seed tables are. *)
val variance : t -> string

(** {1 Modern baseline}

    Flat FPART vs the multilevel V-cycle engine ({!Mlevel.Engine}) on
    the paper's circuits — at MCNC scale the flat driver usually wins
    or ties (the regime the V-cycle targets starts around 10^5
    cells).  Both columns run under the harness config's refiner and
    seed, whichever engine that config names. *)
val modern : t -> string

(** {1 Filling-ratio sweep}

    Devices needed as the filling ratio δ varies on one circuit — the
    cost of the routing-insurance derating the paper applies
    (δ = 0.9). *)
val delta_sweep : t -> string

(** Every table and figure, concatenated in paper order, then the
    ablations, modern-baseline and variance studies. *)
val all : t -> string
