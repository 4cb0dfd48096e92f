(** Minimal HTTP/1.0 plumbing for the telemetry plane.

    One listener thread, one connection at a time, GET only: exactly
    enough to serve [/metrics] and [/healthz] to a Prometheus scraper
    or [fpart_inspect], with no framework dependency.  The handler runs
    on the listener thread, which lives on the {e creating} domain — so
    a handler reading {!Fpart_obs.Metrics} sees the engine domain's
    merged instrument cells, which is what makes the exposition
    coherent without any cross-domain snapshot plumbing.

    The client half ({!get}) is the same minimalism for the other
    direction: it is what [fpart_inspect scrape] and the CI smoke jobs
    use, so the repo needs no curl.

    An [addr] is ["PORT"], [":PORT"] or ["HOST:PORT"] (HOST a dotted
    quad or [localhost]); a bare port binds/connects on 127.0.0.1. *)

type t

(** [start ~addr ~handler] binds [addr] (port [0] picks a free port —
    read it back with {!port}) and serves GET requests on a background
    thread: [handler path] returns [(content_type, body)] for a [200]
    or [None] for a [404].  Handler exceptions become a [500] and the
    listener survives them. *)
val start :
  addr:string -> handler:(string -> (string * string) option) ->
  (t, string) result

(** Actual bound port (useful after binding port 0). *)
val port : t -> int

(** Stop accepting, join the listener thread, close the socket.
    Idempotent. *)
val stop : t -> unit

(** [get ~addr path] — blocking one-shot GET returning the body of a
    [200] response, or [Error] with the status line / transport
    failure. *)
val get : addr:string -> string -> (string, string) result
