(** The one whole-file reader of the netlist formats (BLIF, Verilog,
    XNF, partition files) and of the partition service's server-side
    sources. *)

(** [read path] is the whole content of [path].  The channel is closed
    on every path, and a system error (missing file, a directory,
    permission) is an [Error] carrying the system's reason without the
    path, e.g. ["Is a directory"]; callers name the file themselves. *)
val read : string -> (string, string) result

(** [reason ~path msg] is the reason of a [Sys_error msg] raised on
    [path]: open calls prefix it with ["PATH: "], which this drops. *)
val reason : path:string -> string -> string
