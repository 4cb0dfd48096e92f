(** Resource telemetry: cheap GC/RSS/CPU accounting for spans and
    end-of-run summaries.

    A {!sample} is a [Gc.quick_stat] snapshot (no heap walk, a handful
    of field reads) plus an {!os} reading from an injected source —
    binaries install a [getrusage(2)] stub, the library default reads
    [/proc/self/status] so `dune runtest` works without C stubs, and
    tests can script the whole sampler with {!set_source}.

    {!Recorder.span_begin} takes a sample when {!enabled}, and
    {!Recorder.span_end} appends the {!delta} fields to the span record
    ({!Sink.chrome} also draws its [heap_w]/[rss_kb] as a Chrome Trace
    ["C"] event).  Flow fields (words allocated, collections, CPU time)
    are differences of the sampling domain's counters plus the flows
    it has {!adopt}ed; peak fields ([heap_w], [rss_kb]) are monotone
    end-values.

    {b Domain-safety.}  Sampling runs on the calling domain and each
    domain keeps its own peak {!watermark} cell, which
    {!Fpart_exec.Pool} snapshots on workers and max-merges into the
    caller at the join — mirroring
    {!Metrics.snapshot_and_reset}/{!Metrics.merge}, and order-independent
    because [max] is commutative.  Worker task flows come back by
    {!adopt}. *)

(** Process-level readings the GC cannot see.  [os_maxrss_kb] is the
    peak resident set in KiB (monotone); [os_utime_s]/[os_stime_s] are
    cumulative user/system CPU seconds. *)
type os = { os_maxrss_kb : int; os_utime_s : float; os_stime_s : float }

type sample = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_gcs : int;
  major_gcs : int;
  compactions : int;
  top_heap_words : int;  (** high-water of the major heap, monotone *)
  os : os;
}

(** Gate for per-span sampling in {!Recorder}; defaults to [false] so
    untouched callers pay nothing.  Direct calls to {!sample} and
    {!summary} work regardless. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Replace the OS reading used by the default sampler.  The initial
    source reads [VmHWM] from [/proc/self/status] (0 when absent) and
    reports [Sys.time ()] as user time. *)
val set_os_source : (unit -> os) -> unit

(** [set_source (Some f)] replaces the {e whole} sampler — including
    the GC part — with [f]; [None] restores the default.  For
    deterministic tests. *)
val set_source : (unit -> sample) option -> unit

(** Take a sample on the calling domain (and raise its {!watermark}).
    Its flows include those the domain has {!adopt}ed. *)
val sample : unit -> sample

(** [proc_status_maxrss_kb ()] parses [VmHWM] out of
    [/proc/self/status]; [0] when unreadable.  Exposed for processes
    (e.g. the bench runner) that install their own {!set_os_source}
    but still want the stdlib-only RSS reading. *)
val proc_status_maxrss_kb : unit -> int

(** Cached wrapper over {!proc_status_maxrss_kb}: the ~10us [/proc]
    parse runs only every 32nd call, the (monotone, process-wide)
    cached reading is served in between.  This is what the default OS
    source uses; custom sources that keep the [/proc] path should use
    it too. *)
val throttled_maxrss_kb : unit -> int

(** What happened between two samples: flows are differences, peaks
    ([d_top_heap_words], [d_maxrss_kb]) are the end-values of monotone
    gauges. *)
type delta = {
  d_minor_words : float;
  d_promoted_words : float;
  d_major_words : float;
  d_minor_gcs : int;
  d_major_gcs : int;
  d_top_heap_words : int;
  d_maxrss_kb : int;
  d_utime_s : float;
  d_stime_s : float;
}

val delta : before:sample -> after:sample -> delta
val zero_delta : delta

(** Sum the flows, max the peaks. *)
val add : delta -> delta -> delta

(** [adopt d] adds flows [d], measured on another domain on this
    one's behalf (a {!Fpart_exec.Pool} worker task), to every later
    {!sample} here, so a span open across the join counts the task.
    Only flows the sampler reads per domain are adopted: all of an
    injected source's, the default sampler's [minor_words] alone. *)
val adopt : delta -> unit

(** Total words allocated: minor + major − promoted (promoted words
    are counted in both source pools). *)
val alloc_words : delta -> float

(** Span-record attributes for a delta: [alloc_w], [minor_w],
    [promoted_w], [major_w], [minor_gcs], [major_gcs], [heap_w],
    [rss_kb], [utime_ms], [stime_ms]. *)
val delta_fields : delta -> (string * Json.t) list

(** {1 Per-domain peak watermarks}

    Highest peak readings observed by {!sample} calls on the calling
    domain since the last reset.  {!Fpart_exec.Pool} carries worker
    watermarks back to the caller so a post-join {!summary} reflects
    peaks that only a worker domain observed. *)

type watermark = { w_top_heap_words : int; w_maxrss_kb : int }

val watermark : unit -> watermark

(** Capture and zero the calling domain's watermark. *)
val snapshot_watermark : unit -> watermark

(** Max-merge a watermark into the calling domain's cell. *)
val merge_watermark : watermark -> unit

(** {1 End-of-run summary} *)

(** Cumulative process totals as a
    [{"type":"gc",...}] record: allocation words, collection counts,
    [top_heap_words]/[maxrss_kb] peaks (including merged watermarks)
    and CPU seconds. *)
val summary : unit -> Json.t

(** Human-readable rendering of {!summary}, one indented
    [name value] line per field under a [== fpart_obs gc/resource ==]
    header. *)
val pp_summary : Format.formatter -> unit -> unit

(** Drop the calling domain's watermark and adopted flows; for test
    isolation. *)
val reset : unit -> unit
