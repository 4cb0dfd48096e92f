(** Execution traces of the FPART driver.

    Records which improvement passes were called on which blocks at each
    iteration of Algorithm 1 — the information Figure 1 of the paper
    visualises.  The experiment harness replays a trace to regenerate
    that figure as text, and [fpart --trace-log] prints it.

    This is a typed in-memory log ([Driver.result.trace]); it writes no
    recorder records.  A [--trace] file carries the same facts on the
    driver's spans: [improve.pass] (one per [Improve] event, with the
    value after), [driver.iteration] (method, committed block size and
    pins) and [driver.run] (k, feasibility, iterations). *)

type pass_kind =
  | Pair_latest      (** Improve(R_k, P_k): the two lately created blocks. *)
  | All_blocks       (** Improve(P_0 … P_k, R_k) — only when [M ≤ N_small]. *)
  | Min_size         (** Improve(P_MIN_size, R_k). *)
  | Min_io           (** Improve(P_MIN_IO, R_k). *)
  | Max_free         (** Improve(P_MIN_F, R_k). *)
  | Final_pairs      (** Improve(P_i, R_k) for every i, once k = M. *)

type event =
  | Bipartition of { iteration : int; p_block : int; r_block : int; method_used : string }
  | Improve of {
      iteration : int;
      kind : pass_kind;
      blocks : int list;       (** Global block indices involved. *)
      value : Partition.Cost.value;  (** Solution value after the pass. *)
      passes : int;            (** FM passes executed by the engine. *)
      moves : int;             (** Moves applied, rewound ones included. *)
      restarts : int;          (** Solution-stack restarts. *)
    }
  | Committed of { iteration : int; block : int; size : int; pins : int }
  | Done of { iterations : int; k : int; feasible : bool }

(** A mutable recorder; [record] appends, [events] lists in order. *)
type t

val create : unit -> t
val record : t -> event -> unit
val events : t -> event list

val pp_kind : Format.formatter -> pass_kind -> unit
val pp_event : Format.formatter -> event -> unit

(** Stable machine-readable name of a pass kind ([pair_latest],
    [all_blocks], …) — the [kind] attr of the [improve.pass] span. *)
val kind_name : pass_kind -> string
