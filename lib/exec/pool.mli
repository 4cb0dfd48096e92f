(** Fixed-size domain pool with a deterministic fork/join API.

    A pool owns [jobs - 1] worker domains; the caller participates in
    every fork, so [create ~jobs:1] spawns nothing and runs every task
    inline in submission order — the exact sequential path.  Results are
    always collected in task-index order, and randomness is only handed
    to tasks as streams derived from [(master_seed, task_index)]
    ({!map_seeded}), so the value computed by a fork is bit-identical
    for every [jobs] and every scheduling.

    {b Metrics.}  Worker domains record [Fpart_obs] activity into their
    own cells; the pool snapshots each task's activity and merges the
    snapshots into the caller's registry at the join, in task-index
    order, so counter totals match a sequential run ({!Fpart_obs.Metrics}).

    {b Recorder.}  Every task additionally runs inside an
    {!Fpart_obs.Recorder.capture}; the captured span trees are replayed
    at the join in task-index order, so a trace recorded under any
    [jobs] has the same span ids, parents and record order as a
    sequential run (only [track] values and timestamps differ).

    {b Nesting.}  A fork submitted from inside a task (on any domain),
    or while another fork of the same pool is in flight, degrades to
    inline sequential execution — same values, no deadlock.

    {b Exceptions.}  If tasks raise, the fork still runs to completion
    and the exception of the lowest-indexed failing task is re-raised at
    the join ([Batch] builds isolation on top of this). *)

type t

(** [create ~jobs] spawns [jobs - 1] worker domains.
    @raise Invalid_argument if [jobs < 1]. *)
val create : jobs:int -> t

(** Domain budget of the pool (the [jobs] it was created with). *)
val jobs : t -> int

(** [map t f arr] computes [f i arr.(i)] for every index, in parallel,
    and returns the results in index order.  The caller adopts the
    resource flows of tasks that ran on workers ({!Fpart_obs.Resource.adopt}). *)
val map : t -> (int -> 'a -> 'b) -> 'a array -> 'b array

(** [map_seeded t ~master_seed f arr] is {!map} where task [i] also
    receives the PRNG stream [Splitmix.derive ~master:master_seed
    ~index:i] — the deterministic way to run randomized tasks in
    parallel. *)
val map_seeded :
  t ->
  master_seed:int ->
  (rng:Prng.Splitmix.t -> int -> 'a -> 'b) ->
  'a array ->
  'b array

(** [run_all t thunks] runs the thunks in parallel and returns their
    results in order. *)
val run_all : t -> (unit -> 'a) list -> 'a list

(** [both t f g] runs the two thunks in parallel (the two-candidate
    portfolio shape). *)
val both : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

(** Stop and join the worker domains.  Further forks run inline; idempotent. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] is [f (create ~jobs)] with a guaranteed
    {!shutdown}. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
