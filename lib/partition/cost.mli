(** Infeasibility-distance cost functions (paper sections 3.3–3.4).

    A partition block is a point [(T_i, S_i)] in pin×size space; the
    device constraints [(T_MAX, S_MAX)] delimit the feasible rectangle.
    The {e infeasibility distance} of a block measures how far outside
    the rectangle it lies:

    [d_i = λ^S · max(0, (S_i - S_MAX)/S_MAX) + λ^T · max(0, (T_i - T_MAX)/T_MAX)]

    The distance of a whole solution adds a {e size-deviation penalty}
    that punishes remainders too big to fit in the theoretically minimal
    number of leftover devices, and solutions are ranked by the
    lexicographic tuple [(f, d_k, T_SUM, d_k^E)]. *)

type params = {
  lambda_s : float;  (** Weight of the size distance ([λ^S], paper: 0.4). *)
  lambda_t : float;  (** Weight of the I/O distance ([λ^T], paper: 0.6). *)
  lambda_r : float;  (** Weight of the deviation penalty ([λ^R], paper: 0.1). *)
  lambda_f : float;
      (** Weight of the flip-flop distance.  The paper handles the FF
          constraint "in a similar way as the size constraint", so the
          default equals [λ^S]. *)
}

(** The published values: [λ^S = 0.4], [λ^T = 0.6], [λ^R = 0.1];
    [λ^F = λ^S]. *)
val default_params : params

(** Problem-wide constants needed by the cost functions. *)
type context = {
  s_max : int;       (** Derated device capacity [S_ds · δ]. *)
  t_max : int;       (** Device pin count. *)
  f_max : int option;
      (** Flip-flop capacity, when the device model provides one
          ([None] disables the FF constraint entirely). *)
  m_lower : int;     (** Lower bound [M] on the number of devices. *)
  total_pads : int;  (** [|Y_0|], for the external-I/O balancing factor. *)
}

(** [context_of device ~delta h] derives the context for partitioning
    hypergraph [h] onto [device] with filling ratio [delta]. *)
val context_of : Device.t -> delta:float -> Hypergraph.Hgraph.t -> context

(** {1 Per-block quantities} *)

(** [block_feasible ctx ~size ~pins ~flops] is [P_i |= D] (the FF term
    is checked only when the context carries an [f_max]). *)
val block_feasible : context -> size:int -> pins:int -> flops:int -> bool

(** [block_distance params ctx ~size ~pins ~flops] is [d_i] (0 when
    feasible). *)
val block_distance : params -> context -> size:int -> pins:int -> flops:int -> float

(** {1 Solution classification (Figure 2)} *)

type classification =
  | Feasible                    (** Every block meets the constraints. *)
  | Semi_feasible of int        (** Exactly one violating block (its index). *)
  | Infeasible of int list      (** ≥ 2 violating blocks (their indices). *)

(** [classify ctx st] inspects every block of the state. *)
val classify : context -> State.t -> classification

(** {1 Solution cost} *)

(** [deviation_penalty ctx ~remainder_size ~step_k] is [d_k^R]: with
    [S_AVG = S(R_k) / (M - k + 1)], the penalty is [S_AVG / S_MAX] when
    [S_AVG > S_MAX] and 0 otherwise (section 3.3).  [step_k] is the
    current iteration number of Algorithm 1; the denominator is clamped
    to ≥ 1 once [k] exceeds [M]. *)
val deviation_penalty : context -> remainder_size:int -> step_k:int -> float

(** [infeasibility params ctx st ~remainder ~step_k] is
    [d_k = Σ d_i + λ^R · d_k^R].  When [remainder] is [None] the
    deviation penalty is omitted. *)
val infeasibility :
  params -> context -> State.t -> remainder:int option -> step_k:int -> float

(** [io_balance ctx st] is [d_k^E = Σ_i max(0, (T^E_AVG - T_i^E) / T^E_AVG)]
    with [T^E_AVG = |Y_0| / M]: the external-I/O balancing factor of
    section 3.4 (0 when every block already absorbs its share of pads). *)
val io_balance : context -> State.t -> float

(** The lexicographic solution value of section 3.4. *)
type value = {
  feasible_blocks : int;  (** [f] — maximise. *)
  distance : float;       (** [d_k] — minimise. *)
  t_sum : int;            (** [T^SUM] — minimise. *)
  io_bal : float;         (** [d_k^E] — minimise. *)
}

(** [evaluate params ctx st ~remainder ~step_k] computes the full tuple. *)
val evaluate :
  params -> context -> State.t -> remainder:int option -> step_k:int -> value

(** {1 Incremental evaluation}

    [evaluate] is called once per applied move inside the improvement
    engines and rescans every block each time.  A {!tracker} caches the
    per-block inputs and derived terms and refreshes only blocks whose
    [(size, pins, flops, pads)] tuple changed since the previous call —
    a move touches exactly two.  The dirty test is self-contained (it
    compares cached integers against the state), so rewinds, restores
    and bulk [load_assignment]s are handled transparently. *)

type tracker

(** [tracker params ctx st ~remainder ~step_k] allocates a tracker
    primed from [st].  The tracker is tied to [st]'s block count and to
    the given [remainder]/[step_k] (both fixed for the duration of one
    improvement run). *)
val tracker :
  params -> context -> State.t -> remainder:int option -> step_k:int -> tracker

(** [tracked_evaluate tr st] is bit-identical to
    [evaluate params ctx st ~remainder ~step_k] with the tracker's
    parameters: per-block terms come from the same
    {!block_feasible}/{!block_distance} computations and are summed in
    the same ascending block order.
    @raise Invalid_argument if [st] has a different block count. *)
val tracked_evaluate : tracker -> State.t -> value

(** [compare_value a b] is negative when [a] is the better solution
    under the lexicographic order [(f desc, d asc, T^SUM asc, d^E asc)].
    Float components compare with a 1e-9 tolerance so that noise from
    incremental accumulation cannot flip an order. *)
val compare_value : value -> value -> int

val pp_value : Format.formatter -> value -> unit

(** JSON rendering of a value, shared by the [pass] telemetry records
    and the [value_before]/[value_after] attrs of the [improve.pass],
    [mlevel.refine] and [flow.apply] spans. *)
val value_to_json : value -> Fpart_obs.Json.t
