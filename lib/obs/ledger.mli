(** Persistent run-history ledger: one schema-versioned JSONL record
    per benchmark or partitioning run, appended by [bench/main.exe]
    (env [FPART_BENCH_LEDGER]) and [fpart_cli --ledger], analyzed by
    [fpart_inspect trend]/[regress].

    Unlike the overwritable [BENCH_fpart.json] snapshot, the ledger
    accumulates: each entry carries the git revision, config/netlist
    digests and repeat count, so trajectories can be computed per
    benchmark row with noise-aware (median/MAD) statistics instead of a
    single fixed-threshold comparison. *)

(** Current schema tag, ["fpart-ledger/1"].  {!load} rejects files
    containing any other tag — mixing schemas would silently skew the
    statistics. *)
val schema : string

(** One measured quantity.  [name] is the trend key (e.g.
    ["fpart/figure3/sanchis-pair-pass/time_ns"]); [higher_better]
    orients the regression test. *)
type row = {
  name : string;
  value : float;
  unit_ : string;
  higher_better : bool;
}

type entry = {
  time : float;  (** unix seconds; callers supply it (this library has no clock) *)
  git_rev : string option;
  kind : string;  (** ["bench"] or ["run"] *)
  label : string;
  jobs : int;
  repeats : int;
  config_digest : string option;
  netlist_digest : string option;
  rows : row list;
  resource : Json.t option;  (** a {!Resource.summary} record *)
}

val entry_to_json : entry -> Json.t

(** Strict: missing/foreign [schema], malformed rows etc. are
    [Error]. *)
val entry_of_json : Json.t -> (entry, string) result

(** Append one entry to [path] (created if absent). *)
val append : string -> entry -> (unit, string) result

(** Load every entry of a ledger file, in file order.  Any
    unparseable line or schema mismatch fails the whole load with a
    [line N: ...] message — a corrupt ledger must not silently drop
    history. *)
val load : string -> (entry list, string) result

(** Current git revision: [FPART_GIT_REV] env override, else a
    stdlib-only walk to [.git/HEAD] (following one level of
    [ref:]/packed-refs indirection); [None] outside a repository. *)
val git_rev : unit -> string option
