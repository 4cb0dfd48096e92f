(** Wire protocol of the partition service.

    Framing is JSONL: one JSON object per line in both directions.  A
    line is either a control operation ([{"op":"ping"}],
    [{"op":"shutdown"}], [{"op":"batch","requests":[...]}]) or a
    partition request (an object carrying an ["id"]).  Every request
    produces exactly one response line tagged with the same id; a batch
    produces one line per contained request, in order.  See
    docs/SERVICE.md for the full field reference. *)

type netlist_src =
  | Path of string  (** Server-side file; format by extension (.v, .xnf, BLIF). *)
  | Inline_blif of string
  | Inline_xnf of string
  | Generate of {
      spec : string;  (** ["CELLSxPADS"] or ["rent:CELLS"], as fpart_cli. *)
      gen_seed : int;
    }

type source = Src_path of string | Src_text of string

(** ECO payload: a netlist delta ({!Netlist.Delta} text form) plus the
    previous partition ({!Netlist.Partfile} text form) to re-legalize. *)
type eco = {
  eco_delta : source;
  eco_partfile : source;
}

type request = {
  id : string;
  netlist : netlist_src;
  device : string;
  delta : float option;  (** Filling ratio; rejected outside (0, 1]. *)
  runs : int;  (** Multi-start breadth; default 1. *)
  seed : int option;
  max_passes : int option;
  refiner : string option;
      (** "sanchis" | "hybrid"; the engine answers any other name with
          an error. *)
  timeout_s : float option;
      (** Time limit in seconds, rejected unless > 0; overrides the
          engine's default. *)
  eco : eco option;
  inject : string option;
      (** Test hook: ["crash"] makes the partitioning job raise inside
          its isolation boundary.  Injected requests bypass the cache. *)
}

type op =
  | Partition of request
  | Batch of request list
  | Ping
  | Stats  (** One-line engine statistics snapshot ({!Engine.stats_json}). *)
  | Health  (** Cheap liveness probe ({!Engine.health_json}). *)
  | Shutdown

(** [op_of_line line] parses one request line. *)
val op_of_line : string -> (op, string) result

type success = {
  k : int;
  feasible : bool;
  cut : int;
  total_pins : int;
  m_lower : int;
  wall_ms : float;
  cache : string;  (** "hit" | "miss" | "bypass". *)
  mode : string;  (** "cold" | "warm" | "cold-fallback". *)
  netlist_digest : string;
  config_digest : string;
  partition : string;  (** Partfile text of the result. *)
}

type response = {
  resp_id : string;
  outcome : (success, string) result;
}

(** One response line (no trailing newline). *)
val response_to_line : response -> string

(** Control-channel lines. *)
val pong_line : string

val bye_line : served:int -> string

(** Parse a response line back (client side, tests). *)
val response_of_line : string -> (response, string) result
