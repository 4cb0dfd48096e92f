(** The one solve entry point: partition a circuit with the engine
    that [config.engine] names.

    It lives above both engines because {!Mlevel.Engine} is built on
    {!Fpart.Driver}, so the driver cannot dispatch to it. *)

(** [run config h device] is {!Fpart.Driver.run_best} with
    [~runs:config.runs] on [Flat] (at [runs = 1] and [jobs = 1] exactly
    {!Fpart.Driver.run}), and the result of {!Mlevel.Engine.run} with
    [~base:config] on [Mlevel]. *)
val run : Fpart.Config.t -> Hypergraph.Hgraph.t -> Device.t -> Fpart.Driver.result
