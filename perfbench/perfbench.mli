(** Helpers of the FPART benchmark ([perfbench/main.ml]): order
    statistics, the percentile reporting rule, per-layer aggregation of
    recorder traces and the result-line format.  Pure functions, tested
    in [perfbench/test]. *)

(** [percentile xs p] is the nearest-rank [p]-quantile of [xs]: the
    [⌈p·N⌉]-th smallest sample, with [p <= 0] pinned to the minimum and
    [p >= 1] to the maximum.  @raise Invalid_argument on an empty list. *)
val percentile : float list -> float -> float

(** [median xs] is the middle sample of an odd count and the mean of the
    two middle samples of an even one.  @raise Invalid_argument on an
    empty list. *)
val median : float list -> float

(** [sum_of_medians per_item] adds up the median of each item's samples:
    the time of one round over a workload's items, robust to a slow
    sample of any one item. *)
val sum_of_medians : float list list -> float

(** [reportable n p]: a tail percentile is reported only when at least
    ten of the [n] samples lie beyond it, so p95 needs [n >= 200]. *)
val reportable : int -> float -> bool

(** Metric and workload names: 1 to 64 characters from
    [[A-Za-z0-9_.-]], starting with a letter or a digit. *)
val valid_name : string -> bool

(** What the spans of one name cost over a trace. *)
type layer = {
  calls : int;
  total_s : float;  (** inclusive duration *)
  self_s : float;  (** duration minus the direct children's *)
  self_alloc_mw : float;  (** allocated megawords minus the direct children's *)
  total_alloc_mw : float;  (** inclusive allocated megawords *)
}

(** [layers records] aggregates recorder span records by name with
    {!Fpart_obs.Inspect.hotspots} and {!Fpart_obs.Inspect.memspots}. *)
val layers : Fpart_obs.Json.t list -> (string * layer) list

(** [layer tbl name] looks [name] up; all zeros when no such span ran. *)
val layer : (string * layer) list -> string -> layer

type metric = { name : string; value : float; unit_ : string }

(** The benchmark's last output line:
    [{"correct":…,"attempted":…,"failed":…,"metrics":{NAME:{"value":…,"unit":…}}}].
    @raise Invalid_argument on an invalid or repeated metric name or a
    non-finite value. *)
val result_line :
  correct:bool -> attempted:int -> failed:int -> metric list -> string
