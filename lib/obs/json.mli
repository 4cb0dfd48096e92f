(** Minimal hand-rolled JSON: an emitter for the observability sinks and
    a small strict parser used by the tests and tooling to validate what
    the sinks wrote.  No dependencies; not a general-purpose JSON
    library (no streaming, no number-precision options). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) rendering.  Strings are escaped per RFC 8259;
    non-finite floats render as [null] so the output is always valid
    JSON; integral floats keep a [.0] suffix so they parse back as
    [Float]. *)
val to_string : t -> string

(** Strict recursive-descent parser for the subset {!to_string} emits
    (standard JSON).  Numbers containing [.], [e] or [E] parse as
    [Float], others as [Int].  Rejects trailing garbage. *)
val of_string : string -> (t, string) result

(** [member key j] is the value bound to [key] when [j] is an object. *)
val member : string -> t -> t option

(** [str j], [int j]: projections, [None] on shape mismatch. *)
val str : t -> string option

val int : t -> int option

val pp : Format.formatter -> t -> unit
