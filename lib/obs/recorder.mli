(** Flight recorder: hierarchical spans over the {!Metrics} layer.

    A span record is [{"type":"span","name":...,"dur_ms":...}] plus
    tree structure: a process-unique [id], the [parent] id of the span
    open on the same domain when it began ([0] for a root), the domain
    [track] it ran on, and an epoch-relative begin time [t_ms], then
    the caller's attrs (a span carries the outcome it measured) and,
    when {!Resource.enabled}, the resource delta fields.  Every
    [span_end] also feeds the {!Metrics} duration histogram of the
    span's name.

    Recording is gated on {!Metrics.enabled}: when disabled,
    {!span_begin} returns a shared sentinel and {!span_end} is a single
    comparison.

    {2 Determinism across domains}

    {!Fpart_exec.Pool} wraps each task in {!capture} and {!merge}s the
    snapshots in task index order at the join.  Captured entries use
    task-local ids which [merge] rebases onto the caller's counter
    preserving begin order, and capture roots are re-parented to the
    span open at the merge point — so a [--jobs n] run emits the same
    id/parent/order stream as a sequential one, with only [track]
    values and timestamps differing. *)

type span

(** [span_begin name] opens a span as a child of the innermost open
    span on this domain.  Cheap no-op returning a sentinel when
    {!Metrics.enabled} is false. *)
val span_begin : string -> span

(** [span_end s ~attrs] closes [s]: pops it from the domain stack,
    observes its duration in the histogram named at [span_begin], and
    emits the span record with [attrs] appended.  Tolerates unbalanced
    ends (an exception that unwound past children). *)
val span_end : span -> attrs:(string * Json.t) list -> unit

(** Id of the innermost open span on this domain; [0] when none. *)
val current_id : unit -> int

(** {2 Request attribution}

    While a request id is set on a domain, every span record closed and
    every {!event} emitted on that domain carries a ["req"] field — the
    hook a service uses to attribute recorder output (including
    convergence telemetry from deep inside the engine) to the request
    being served.  Ids are per-domain: a pool worker sets the id inside
    its task closure ({!with_request}), so captured entries carry the
    stamp through {!merge} unchanged. *)

val set_request : string option -> unit

val current_request : unit -> string option

(** [with_request r f] runs [f] with the domain's request id set to
    [r], restoring the previous id afterwards (also on exceptions). *)
val with_request : string option -> (unit -> 'a) -> 'a

(** [event fields] emits [fields] as a record annotated with the
    current span id ([span]), domain ([track]) and emission time
    ([t_ms]).  Inside a {!capture} the record is buffered with the
    spans, so its [span] reference survives the id rebase in
    {!merge}.  Not gated: callers check {!Metrics.enabled} before
    building the fields.  For facts no span measures ([pass],
    [mlevel_coarsen], [selfcheck]); an outcome of a span's own work
    goes on the span as an attr instead. *)
val event : (string * Json.t) list -> unit

(** Entries recorded during a {!capture}, in emission order. *)
type snapshot

val empty_snapshot : snapshot

(** [capture f] runs [f] with a fresh span stack and id space,
    buffering everything it records on this domain; returns [f]'s
    value and the buffered entries.  Nestable, and restores the
    previous recording state even if [f] raises (the partial capture
    is then discarded).  When {!Metrics.enabled} is false this is just
    [f ()]. *)
val capture : (unit -> 'a) -> 'a * snapshot

(** [merge snap] replays a captured snapshot on the calling domain:
    span ids are rebased onto this domain's counter (preserving begin
    order) and capture roots become children of the innermost span
    open here.  Call in task index order for a deterministic
    stream. *)
val merge : snapshot -> unit

(** Pin [t_ms = 0] to now.  Binaries call this once at startup after
    installing the real clock source; otherwise the epoch is the first
    recorded instant. *)
val set_epoch : unit -> unit

(** Discard the calling domain's recorder state (open spans, id
    counter, capture buffer, request id) and the epoch, {e and} reset
    the {!Metrics} instruments ({!Metrics.reset}): a recorder reset is
    a measurement-epoch boundary, and the span-duration histograms the
    spans fed must restart with it so a long-lived process's quantiles
    and exposition counters do not aggregate across epochs. *)
val reset : unit -> unit
