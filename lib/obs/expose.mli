(** Prometheus text-format exposition over the live {!Metrics} and
    {!Resource} state, plus the strict parser the tests, the CI smoke
    job and [fpart_inspect scrape] use to validate and consume it.

    {!render} walks the calling domain's instrument cells — in a
    daemon that is the domain where the engine merges worker activity,
    so a scrape between requests sees the process totals — and emits
    one text-format page:

    - every active {!Metrics} counter as a [counter] family named
      [fpart_<name>_total];
    - every active {!Metrics} histogram as a [histogram] family named
      [fpart_<name>] with the fixed {!Metrics.bucket_bounds} ladder:
      cumulative [_bucket{le="..."}] series ending in [le="+Inf"],
      [_sum] and [_count] (all lifetime aggregates, monotone across
      scrapes);
    - every registered gauge callback ({!set_gauge}) as a [gauge]
      family named [fpart_<name>];
    - process gauges sampled from {!Resource}: peak RSS, major-heap
      high-water, GC collection totals and CPU seconds.

    Metric names are the instrument names with [.], [-] and [/]
    mapped to [_] (the documented registry lives in
    docs/OBSERVABILITY.md); families are emitted in sorted name order
    with a [# TYPE] line each, so output is deterministic given the
    same instrument state.

    The exposition layer is engine-agnostic: it never names an
    instrument explicitly, so the flat, multilevel and flow paths all
    surface under the same families they already feed. *)

(** {1 Gauge registry}

    Gauges are callbacks, not cells: the owner of a mutable structure
    (e.g. the serve result cache) registers a closure and every
    {!render} reads the live value.  Registration replaces any
    previous callback under the same name. *)

val set_gauge : string -> help:string -> (unit -> float) -> unit

val remove_gauge : string -> unit

(** Drop every registered gauge; for test isolation. *)
val clear_gauges : unit -> unit

(** {1 Rendering} *)

(** [metric_name name] is the exposition name for instrument [name]:
    [fpart_] + [name] with [.], [-] and [/] replaced by [_]. *)
val metric_name : string -> string

(** One full text-format page (version 0.0.4), trailing newline
    included. *)
val render : unit -> string

(** {1 Strict parser}

    Accepts exactly the dialect {!render} emits (plus arbitrary
    [# HELP] comments and blank lines) and checks the structural
    invariants a registry consumer relies on:

    - every sample belongs to a family declared by a preceding
      [# TYPE] line, and family names are unique;
    - labels are unique and sorted, label values are quoted with valid
      escapes, sample values parse as floats;
    - histogram families carry a full cumulative bucket series ending
      in [le="+Inf"], bucket counts are non-decreasing in [le] order,
      and [_count] equals the [+Inf] bucket (equivalently: the sum of
      the per-bucket deltas) while [_sum] is present. *)

type sample = {
  s_suffix : string;  (** "", ["_bucket"], ["_sum"] or ["_count"] *)
  s_labels : (string * string) list;
  s_value : float;
}

type family = {
  f_name : string;
  f_type : string;  (** ["counter"], ["gauge"] or ["histogram"] *)
  f_samples : sample list;  (** in emission order *)
}

val parse : string -> (family list, string) result

(** {1 Consumer helpers} *)

(** [find fams name] is the single unlabelled sample value of family
    [name] (counter or gauge). *)
val find : family list -> string -> float option

(** [buckets fams name] is the cumulative [(le, count)] series of
    histogram family [name], in ascending [le] order (last is
    [infinity]); [[]] when absent. *)
val buckets : family list -> string -> (float * float) list

(** [hist_count fams name] / [hist_sum fams name]: the [_count] and
    [_sum] samples of histogram family [name]. *)
val hist_count : family list -> string -> float option

val hist_sum : family list -> string -> float option

(** [quantile_of_buckets ~p series] estimates quantile [p] from a
    cumulative [(le, count)] series: the lowest bucket bound at which
    the cumulative count reaches ⌈p·total⌉.  [nan] on an empty or
    zero-count series; an answer in the +Inf bucket reports the last
    finite bound ([fpart_inspect scrape]'s p50/p95 columns). *)
val quantile_of_buckets : p:float -> (float * float) list -> float
