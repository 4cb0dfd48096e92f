(** Offline analysis of recorded traces (JSONL or chrome export).

    Pure functions over a loaded record list; [bin/fpart_inspect], the
    CI trace check and the unit tests all go through this module. *)

type span = {
  id : int;
  parent : int;
  track : int;
  name : string;
  t_ms : float option;  (** begin time; [None] when the record has none *)
  dur_ms : float;
}

type t

val of_records : Json.t list -> t

(** Records in file order (spans and telemetry alike). *)
val records : t -> Json.t list

val spans : t -> span list

(** Parse [text] as a trace: a chrome export (one JSON object with
    [traceEvents], events folded back into record shape, the ["C"]
    memory events that repeat span fields dropped) or JSONL.  Both
    exports of one run load to the same records.  [Error] carries the
    first parse failure. *)
val load_string : string -> (t, string) result

val load_file : string -> (t, string) result

(** Structural errors: duplicate span ids, non-root spans whose parent
    never appears, negative durations, telemetry records referencing a
    missing span.  Empty list = well-formed. *)
val validate : t -> string list

type hotspot = {
  h_name : string;
  h_count : int;
  h_total_ms : float;
  h_self_ms : float;
      (** duration minus the union of the direct children's intervals,
          clipped to the span, so never negative, even when children ran
          at once on pool domains.  Children without a begin time (or
          of a span without one) cannot be placed and count as
          sequential: their durations are subtracted. *)
}

(** Per-phase rows sorted by self time (descending, then name). *)
val hotspots : t -> hotspot list

(** [coverage t] is the share of root-span time that leaf spans cover:
    [1 - (sum of non-leaf self time) / (sum of root durations)].
    [None] when the roots have no duration. *)
val coverage : t -> float option

(** Rows by self time, then a [coverage:] line.  [~times:false] prints
    only the deterministic columns, rows ordered by count (descending,
    then name), and no coverage line (for tests). *)
val pp_hotspots : ?times:bool -> Format.formatter -> t -> unit

(** {2 Memory}

    The allocation mirror of the hotspot analysis, computed from the
    resource fields {!Recorder} appends to span records when
    {!Resource.enabled}. *)

type memspot = {
  m_name : string;
  m_count : int;
  m_total_w : float;  (** inclusive allocated words *)
  m_self_w : float;  (** allocation minus direct children's *)
}

(** Per-phase rows sorted by self allocation (descending, then name);
    spans without resource fields count as zero. *)
val memspots : t -> memspot list

type mem_totals = {
  t_alloc_w : float;  (** summed over root spans (nesting-safe) *)
  t_minor_gcs : int;
  t_major_gcs : int;
  t_heap_w : int;  (** peak major-heap words over all spans *)
  t_rss_kb : int;  (** peak resident set over all spans *)
}

val mem_totals : t -> mem_totals

(** True when at least one span record carries resource fields. *)
val has_resource_data : t -> bool

(** Memory report: self-allocation hotspots, per-Improve() allocation
    rows (the resource fields of each [improve.pass] span) and
    totals. *)
val pp_mem : Format.formatter -> t -> unit

type conv_row = {
  c_iteration : int;
  c_step : string;
  c_blocks : int;
  c_passes : int;
  c_moves : int;
  c_retained : int;
  c_restarts : int;
  c_cut_before : int;
  c_cut_after : int;
  c_value_after : Json.t option;
}

(** One row per [improve.pass] span (one per [Improve()] call), in
    file order, read from the span's attrs: [iteration], [kind],
    [blocks], [passes], [moves], [moves_retained], [restarts],
    [cut_before]/[cut_after] and [value_after]. *)
val convergence : t -> conv_row list

val pp_convergence : Format.formatter -> t -> unit

(** Per-pass detail from [pass] records (gain-prefix maxima, rewind
    points, cut trajectory). *)
val pp_passes : Format.formatter -> t -> unit

(** A/B comparison: per-phase self-time (or count, with
    [~times:false]) deltas plus convergence totals. *)
val pp_diff : ?times:bool -> Format.formatter -> t -> t -> unit

(** {2 Ledger trends}

    Noise-aware statistics over {!Ledger} entries: per-benchmark
    median and MAD (scaled by 1.4826 to estimate sigma), so one
    outlier entry cannot move a baseline. *)

(** Trajectory table: one line per benchmark row name and workload
    (entries carrying netlist/config digests are grouped per
    workload; digest-less entries form one legacy series), with
    direction, entry count, median, MAD, latest value and its signed
    relative delta vs the median.  When a row name spans several
    workloads each line carries a [name [netdigest/cfgdigest]]
    suffix. *)
val pp_trend : Format.formatter -> Ledger.entry list -> unit

type verdict = {
  v_name : string;
  v_unit : string;
  v_n : int;  (** baseline entries backing the median *)
  v_baseline : float;  (** median of all entries but the last *)
  v_mad : float;
  v_latest : float;
  v_worse : float;  (** worse-positive relative delta vs baseline *)
  v_allowed : float;  (** max of [min_delta] and [mad_k] scaled MADs *)
  v_regressed : bool;
}

(** Judge the last entry's rows against the median of all earlier
    entries measured on the same workload (matching netlist/config
    digests, falling back to the digest-less legacy series when the
    workload has no history of its own).  A row regresses when its
    worse-direction relative delta exceeds
    [max min_delta (mad_k * 1.4826 * mad / |median|)] — so the gate
    widens for historically noisy benchmarks.  Rows with no history,
    or a zero/non-finite baseline, are skipped.  Defaults:
    [min_delta = 0.20], [mad_k = 4.0]. *)
val regress :
  ?min_delta:float -> ?mad_k:float -> Ledger.entry list -> verdict list

val pp_regress : Format.formatter -> verdict list -> unit

(** {2 Exposition consumer}

    Rendering for [fpart_inspect scrape] over parsed {!Expose} pages,
    so an HTTP scrape and a [--metrics-out] file are consumed
    identically. *)

(** Compact sorted table of one page: one line per family — counters
    and gauges as [name value], histograms as
    [name count=… sum=… p50<=… p95<=…] (bucket-resolution quantiles). *)
val pp_scrape : Format.formatter -> Expose.family list -> unit
