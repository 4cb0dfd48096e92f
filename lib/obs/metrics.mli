(** Process-wide metrics registry: counters and histograms.  Timed
    spans live in {!Recorder}, which feeds the histograms here.

    Designed so that instrumentation can stay in the hot paths
    permanently:

    - counters are plain [int] field increments, always on, never
      allocating — cheap enough for per-move / per-bucket-operation
      call sites;
    - histogram observations are gated on {!enabled} and cost one
      branch when the layer is off;
    - sinks only see records when {!enabled} is set.

    Counters and histograms are interned by name: creating the same
    name twice returns the same instrument, so modules can create their
    instruments at initialisation time without coordination.

    {b Domain-safety.}  A handle is process-wide but its storage is one
    cell per domain ([Domain.DLS]), so increments and observations from
    concurrent domains never race and never synchronize.  All read
    operations ({!counter_value}, {!quantile}, {!report}, {!reset}, ...)
    act on the {e calling} domain's cells.  A fork/join layer makes
    worker activity visible to its caller by taking a
    {!snapshot_and_reset} on the worker after each task and {!merge}-ing
    the snapshots, in task order, on the caller after the join — this is
    what [Fpart_exec.Pool] does, and it makes the merged totals equal to
    a sequential run's. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

(** {1 Counters} *)

type counter

(** [counter name] interns a monotonically increasing counter. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Histograms} *)

type histogram

(** [histogram name] interns a histogram of float samples (span
    durations are recorded in milliseconds; other instruments document
    their own unit).

    A histogram keeps {e lifetime} aggregates — observation count, sum
    and fixed-ladder bucket counts, all monotone and O(1) memory, what
    a Prometheus scrape ({!Expose}) needs — plus a sliding window of
    the most recent {!window_capacity} raw samples that backs
    {!quantile}/{!hist_max}, so a long-lived daemon's p95 tracks
    current behaviour instead of aggregating forever. *)
val histogram : string -> histogram

(** No-op unless {!enabled}. *)
val observe : histogram -> float -> unit

(** Lifetime observation count (monotone, survives window eviction). *)
val count : histogram -> int

(** Lifetime sum of every observed value. *)
val hist_sum : histogram -> float

(** Upper bounds of the fixed exposition bucket ladder, shared by all
    histograms (milliseconds); the implicit last bucket is +Inf. *)
val bucket_bounds : float array

(** Lifetime per-bucket observation counts: length
    [Array.length bucket_bounds + 1], the final slot counting samples
    above the ladder (+Inf).  Non-cumulative; {!Expose} renders the
    cumulative Prometheus form. *)
val bucket_totals : histogram -> int array

(** Samples currently held in the sliding window
    ([min (count h) window_capacity]). *)
val window_count : histogram -> int

val window_capacity : int

(** [quantile h p] by nearest rank over the {e sliding window}: the
    ⌈p·N⌉-th smallest of the most recent [window_capacity] samples,
    with [p <= 0] pinned to the minimum and [p >= 1] to the maximum;
    [nan] when empty.  A single-sample histogram returns that sample
    for every [p].  Until the window first fills this is exactly the
    all-samples quantile. *)
val quantile : histogram -> float -> float

(** Maximum over the sliding window. *)
val hist_max : histogram -> float

(** Lifetime mean ({!hist_sum} / {!count}). *)
val hist_mean : histogram -> float

(** {1 Cross-domain snapshots} *)

(** Activity of one domain between two resets: counter totals and raw
    histogram samples, by instrument name. *)
type snapshot

(** [snapshot_and_reset ()] captures and zeroes every instrument cell of
    the calling domain.  Cheap when idle (instruments with no activity
    are skipped). *)
val snapshot_and_reset : unit -> snapshot

(** [merge snap] adds a snapshot's counters and histogram samples into
    the calling domain's cells.  Merging the per-task snapshots of a
    fork in task order reproduces the sequential totals exactly. *)
val merge : snapshot -> unit

(** {1 Reporting} *)

(** Every counter with a non-zero value on the calling domain, as
    [(name, value)] sorted by name. *)
val active_counters : unit -> (string * int) list

(** Every histogram with at least one lifetime observation on the
    calling domain, sorted by name. *)
val active_histograms : unit -> histogram list

val hist_name : histogram -> string

(** Snapshot of every non-idle instrument as a JSON object
    [{"type":"metrics","counters":{...},"histograms":{name:{count,mean,p50,p95,max}}}],
    names sorted. *)
val report : unit -> Json.t

(** Human-readable rendering of {!report}. *)
val pp_report : Format.formatter -> unit -> unit

(** Zero every counter and empty every histogram (instruments stay
    registered). *)
val reset : unit -> unit
