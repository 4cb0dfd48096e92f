(** Batch runner: fan a list of independent jobs over a {!Pool} with
    per-job exception isolation.  One crashing job yields an [Error] in
    its slot; it never kills the batch or disturbs the other jobs'
    results.  Time limits belong to the caller, which knows what a job
    is: the partition service applies its per-request limit inside each
    slot (see docs/SERVICE.md). *)

type error =
  | Crashed of { exn : string; backtrace : string }
      (** The job raised; the exception is rendered to strings so batch
          results can cross domains and be serialized freely. *)

val error_to_string : error -> string

(** [run ~pool ~f jobs] maps [f] over [jobs] on the pool and returns one
    [result] per job, in order. *)
val run : pool:Pool.t -> f:('a -> 'b) -> 'a list -> ('b, error) result list
