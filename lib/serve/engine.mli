(** Request execution engine of the partition service.

    Owns the domain pool, the digest-keyed {!Cache} and the
    latency/throughput instruments.  A batch of requests is prepared
    sequentially (netlist load, delta application, digests, cache
    probe), then every uncached request becomes one slot of one
    {!Fpart_exec.Batch} fan-out on the pool, whatever its [runs]: a
    crashing request loses only its own slot.  A cold slot is
    [Solve.run] on the request's config (a multi-start request runs its
    seeds in sequence inside its slot), so it answers exactly what
    [fpart] answers on the same workload; an ECO slot runs the {!Eco}
    warm path with a cold fallback.  ECO and [inject] requests skip the
    cache and deduplication; a cacheable workload repeated inside a
    batch under the same limit runs once.

    Observability: every request runs inside a [serve.request] recorder
    span, batches inside [serve.batch], warm starts inside [serve.eco],
    and cache hits emit a [serve.cache_hit] span; cold and warm
    latencies feed the [serve.latency.cold_ms] / [serve.latency.warm_ms]
    histograms (readable via {!Fpart_obs.Metrics.quantile} when metrics
    are enabled).

    {b Request tracing.}  The engine mints a process-unique request id
    ([r000001], ...) per answered request and sets it as the recorder's
    request attribution for everything done on the request's behalf —
    including the work of its slot on a pool worker domain — so every span
    and convergence event serving the request carries a ["req"] field,
    and the optional access log ties the same id to the response
    (id, mode, wall ms, cut, k, digests).  See docs/SERVICE.md. *)

type t

(** [create ~jobs ()] spawns the pool.  Each request has one time
    limit: its own [timeout_s], else this default.  The limit is checked
    when the request's slot finishes (domains cannot be cancelled): a
    late answer is replaced by [partitioning failed: timed out: ...],
    an error stands as it is, and a timeout is never cached.

    [access] receives one structured record per answered request (the
    JSONL access log).  [cache_warn_mb] arms a one-shot warning through
    [warn] when the result cache's estimated size first crosses the
    threshold.  Creation also registers the [serve.cache.entries] /
    [serve.cache.bytes_est] / [serve.cache.hit_ratio] exposition gauges
    ({!Fpart_obs.Expose.set_gauge}) over this engine's cache. *)
val create :
  ?timeout_s:float ->
  ?cache_warn_mb:float ->
  ?warn:(string -> unit) ->
  ?access:(Fpart_obs.Json.t -> unit) ->
  jobs:int ->
  unit ->
  t

val jobs : t -> int

(** [handle_requests t reqs] answers a batch, responses in request
    order.  Never raises on a bad request — every failure is an error
    response carrying the request id. *)
val handle_requests : t -> Protocol.request list -> Protocol.response list

(** Requests answered so far (including errors). *)
val served : t -> int

val cache_hits : t -> int

val cache_entries : t -> int

val cache_bytes_est : t -> int

(** One-line engine statistics snapshot (the [{"op":"stats"}] protocol
    response): uptime, served/error counts, cache entries/bytes/ratio,
    cold and warm latency quantiles. *)
val stats_json : t -> Fpart_obs.Json.t

(** Cheap liveness probe (the [{"op":"health"}] protocol response and
    the [/healthz] HTTP body). *)
val health_json : t -> Fpart_obs.Json.t

(** Ledger rows summarizing this engine's activity so far, named
    [serve/latency-table/...]: request count, cache hit count, and the
    cold/warm p50 latencies when metrics were enabled. *)
val ledger_rows : t -> Fpart_obs.Ledger.row list

val shutdown : t -> unit
