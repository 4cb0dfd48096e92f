(** Digest-keyed result cache of the partition service.

    The key is the canonical workload identity: the relabel-invariant
    {!Hypergraph.Hgraph.digest} of the (possibly delta-applied)
    hypergraph, the device name and the {!Fpart.Config.digest} of the
    effective configuration (which covers the multi-start breadth
    [runs]).  Two requests
    with the same key produce bit-identical partitions (the driver is
    deterministic in its seed, which the config digest covers), so the
    cached response can be replayed verbatim.  ECO and fault-injected
    requests bypass the cache entirely. *)

type t

val create : unit -> t

val key : netlist_digest:string -> device:string -> config_digest:string -> string

(** [find t key] returns the cached success and counts a hit/miss. *)
val find : t -> string -> Protocol.success option

val add : t -> string -> Protocol.success -> unit

val hits : t -> int

val misses : t -> int

val size : t -> int

(** Estimated retained bytes of all entries (key + string payloads +
    a flat per-entry allowance).  Feeds the [serve.cache.bytes_est]
    gauge and the [--cache-warn-mb] check: the cache is unbounded by
    design (results are bit-replayable), so its growth must at least
    be visible. *)
val bytes_est : t -> int
