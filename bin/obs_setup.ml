(* Shared by the binaries: the monotonic clock source, the
   --trace/--trace-format plumbing and the range-checked option
   converters. *)

module Sink = Fpart_obs.Sink

external monotonic_ns : unit -> (int64[@unboxed])
  = "fpart_clock_monotonic_ns_bytecode" "fpart_clock_monotonic_ns_native"
[@@noalloc]

let monotonic_seconds () = Int64.to_float (monotonic_ns ()) *. 1e-9

(* Install before any recording (and before spawning domains): spans
   then measure real elapsed time on a clock that cannot step
   backwards, and trace timestamps count from process start. *)
let install_clock () =
  Fpart_obs.Clock.set_source monotonic_seconds;
  Fpart_obs.Recorder.set_epoch ()

external rusage_self : unit -> float * float * float = "fpart_rusage_self"

(* Replace the library's /proc fallback with the getrusage(2) stub;
   cheap enough to install unconditionally at startup, whether or not
   per-span resource sampling ends up enabled. *)
let install_resource () =
  Fpart_obs.Resource.set_os_source (fun () ->
      let maxrss_kb, utime_s, stime_s = rusage_self () in
      {
        Fpart_obs.Resource.os_maxrss_kb = int_of_float maxrss_kb;
        os_utime_s = utime_s;
        os_stime_s = stime_s;
      })

type trace_format = Jsonl | Chrome

(* The --trace wiring of every binary: the option, and the setup that
   turns the recorder and resource sampling on and streams into FILE.
   [prog] names the binary in the error line. *)
let trace_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record observability records (recorder spans carrying their \
           outcomes, plus per-pass telemetry) to FILE (see --trace-format).")

let setup_trace ~prog trace format =
  match trace with
  | None -> ()
  | Some path -> (
    install_clock ();
    install_resource ();
    Fpart_obs.Metrics.set_enabled true;
    Fpart_obs.Resource.set_enabled true;
    try
      let oc = open_out path in
      Sink.set (match format with Jsonl -> Sink.jsonl oc | Chrome -> Sink.chrome oc)
    with Sys_error msg ->
      prerr_endline (prog ^ ": cannot open trace file: " ^ msg);
      exit 1)

let finish_trace () = Fpart_obs.Sink.close_current ()

let trace_format_arg =
  Cmdliner.Arg.(
    value
    & opt (enum [ ("jsonl", Jsonl); ("chrome", Chrome) ]) Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Format of the --trace file: $(b,jsonl) (one record per line, the \
           fpart_inspect native input) or $(b,chrome) (Chrome Trace Event \
           JSON, loadable in chrome://tracing and Perfetto).")

(* Option values out of range are usage errors (exit 124), reported
   with the option's [docv]. *)
let int_at_least ~min docv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be at least %d" docv min))
    | None -> Error (`Msg (docv ^ " must be an integer"))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

(* NaN fails the comparison, so it is rejected too. *)
let positive_float docv =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 -> Ok x
    | Some _ -> Error (`Msg (docv ^ " must be greater than 0"))
    | None -> Error (`Msg (docv ^ " must be a number"))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_float)
