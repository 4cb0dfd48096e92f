(** Destinations for observability records.

    Every record is one {!Json.t} object: a span from {!Recorder}
    (carrying its own outcome attrs) or a telemetry record no span
    repeats ([pass], [mlevel_coarsen], [selfcheck]).
    Instrumented code emits to a single process-wide current sink.  The
    default sink is {!null}, so emission is a no-op until a CLI, bench
    or test installs one. *)

type t = {
  emit : Json.t -> unit;
  close : unit -> unit;  (** Flush and release resources. *)
}

(** Drops everything. *)
val null : t

(** One compact JSON object per line. [close] flushes; the channel is
    closed unless it is stdout/stderr.  Write failures ([Sys_error]:
    full disk, closed descriptor, read-only target) are reported once
    on stderr, after which the sink drops records instead of raising
    into instrumented code. *)
val jsonl : out_channel -> t

(** Chrome Trace Event / Perfetto export: one strict-JSON
    [{"traceEvents":[...]}] object.  {!Recorder} span records become
    complete ["X"]-phase events (ts/dur in µs, [pid] 1, [tid] = the
    record's domain track), each followed, when the span carries
    [heap_w]/[rss_kb], by a ["C"] counter event named ["memory"] at the
    span's end (Perfetto's heap and RSS tracks); all other records
    become ["i"] instant events named after their [type]; [close]
    appends per-track [thread_name] metadata and terminates the object.
    Original record fields — including span [id]/[parent] — are
    preserved under ["args"].  Same error reporting as {!jsonl}. *)
val chrome : out_channel -> t

(** In-memory capture for tests: the second component lists the records
    emitted so far, in order. *)
val memory : unit -> t * (unit -> Json.t list)

(** {1 Process-wide current sink}

    {!emit} serializes concurrent callers behind one mutex, so records
    from worker domains never interleave mid-record; individual sink
    implementations need no locking of their own. *)

val set : t -> unit
val emit : Json.t -> unit

(** Close the current sink and reset to {!null}. *)
val close_current : unit -> unit
