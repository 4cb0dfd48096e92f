(** Runtime self-check levels for the FPART pipeline.

    Production-scale runs cannot afford a differential harness, but they
    can afford spot checks: [Config.selfcheck] (exposed as
    [--selfcheck] on the CLI) selects how aggressively the incremental
    state is validated against the {!Oracle} while the algorithm runs.

    - {!Off} (default): no validation, zero overhead.
    - {!Cheap}: validate at pass boundaries — after every [Improve()]
      call and on the final partition.  O(pins) per boundary, a handful
      of boundaries per iteration; overhead is a few percent.
    - {!Paranoid}: additionally validate after {e every applied move}
      inside the Sanchis engine, both the state and every bucket gain
      the move could have changed ({!validate_gain}).  O(pins) per
      check — debugging only.

    Violations never abort the run: they are counted
    ([selfcheck.violations]) and reported through the [Fpart_obs] sink
    as [{"type":"selfcheck",...}] records, so a production deployment
    can alert on the counter while the run completes. *)

type level = Off | Cheap | Paranoid

(** [at_least l threshold] — is [l] at least as strict as [threshold]? *)
val at_least : level -> level -> bool

val level_name : level -> string

(** Case-insensitive; accepts ["off"], ["cheap"], ["paranoid"]. *)
val level_of_string : string -> (level, string) result

(** [validate ?where st] diffs the incremental state against the oracle.
    Increments the [selfcheck.checks] counter; every discrepancy
    increments [selfcheck.violations] and emits a sink record tagged
    with [where].  Returns the number of discrepancies (0 = clean). *)
val validate : ?where:string -> Partition.State.t -> int

(** [validate_gain ?where st ~pin ~cell ~target ~gain] cross-checks one
    bucket gain maintained by the engine's incremental delta updates
    against the oracle: the decrease in cut size (or, with [pin], in
    total pin count) if [cell] moved to block [target] must equal
    [gain].  Counting and reporting as in {!validate}; returns the
    number of discrepancies (0 or 1).  O(pins) per call — this backs
    the paranoid level's per-update hook. *)
val validate_gain :
  ?where:string ->
  Partition.State.t ->
  pin:bool ->
  cell:int ->
  target:int ->
  gain:int ->
  int

(** [tick ()] counts one check performed {e outside} this module into
    [selfcheck.checks] — for cross-checks with their own comparison
    logic, like the multilevel engine's contraction oracle. *)
val tick : unit -> unit

(** [record ~where reason] counts one violation found by an external
    cross-check into [selfcheck.violations] and emits the standard
    [{"type":"selfcheck",...}] sink record.  Pair with {!tick}. *)
val record : where:string -> string -> unit

(** Calling-domain totals of the [selfcheck.checks] /
    [selfcheck.violations] counters (convenience for tests and the
    fuzzer). *)
val checks_run : unit -> int

val violations_seen : unit -> int
