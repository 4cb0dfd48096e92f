(* fpart_serve: long-running partition service.

   Three modes sharing one engine and wire protocol (docs/SERVICE.md):

     fpart_serve --batch requests.jsonl        # script -> responses on stdout
     fpart_serve --socket /tmp/fpart.sock      # daemon on a Unix socket
     fpart_serve --client /tmp/fpart.sock      # pump stdin to a daemon

   Requests are framed JSONL; every partition request yields one
   response line carrying the same id.  A {"op":"shutdown"} line stops
   the daemon cleanly (acknowledged with {"op":"bye",...}). *)

open Cmdliner

let read_lines ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let append_ledger path engine ~label ~jobs =
  let entry =
    {
      Fpart_obs.Ledger.time = Unix.gettimeofday ();
      git_rev = Fpart_obs.Ledger.git_rev ();
      kind = "serve";
      label;
      jobs;
      repeats = 1;
      (* a serve ledger entry aggregates many workloads, so the
         per-workload digests live in the responses, not here *)
      config_digest = None;
      netlist_digest = None;
      rows = Serve.Engine.ledger_rows engine;
      resource = Some (Fpart_obs.Resource.summary ());
    }
  in
  match Fpart_obs.Ledger.append path entry with
  | Ok () -> 0
  | Error e ->
    Printf.eprintf "fpart_serve: cannot append to ledger %s: %s\n" path
      (Netlist.Textfile.reason ~path e);
    1

(* The session's exit code once its requests are answered: a ledger
   record that could not be written fails the run. *)
let finish_session engine ledger ~label ~jobs =
  match ledger with
  | Some l -> append_ledger l engine ~label ~jobs
  | None -> 0

let batch_mode engine path ledger jobs =
  let lines =
    if path = "-" then Ok (read_lines stdin)
    else Result.map (String.split_on_char '\n') (Netlist.Textfile.read path)
  in
  match lines with
  | Error reason ->
    Printf.eprintf "fpart_serve: cannot read batch script %s: %s\n" path reason;
    1
  | Ok lines ->
    let _written = Serve.Server.run_batch engine lines stdout in
    finish_session engine ledger ~label:("batch " ^ path) ~jobs

(* Accept loop: connections are served one at a time (the engine owns
   the domain pool; concurrency lives inside a batch, not across
   clients), each connection streams request lines until EOF or
   shutdown. *)
let socket_mode engine path ledger jobs =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Printf.eprintf "fpart_serve: listening on %s (jobs=%d)\n%!" path
    (Serve.Engine.jobs engine);
  let shutdown = ref false in
  while not !shutdown do
    let fd, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (try
       let rec serve_lines () =
         match input_line ic with
         | line -> (
           match Serve.Server.react engine line with
           | Serve.Server.Lines ls ->
             List.iter
               (fun l ->
                 output_string oc l;
                 output_char oc '\n')
               ls;
             flush oc;
             serve_lines ()
           | Serve.Server.Quit ->
             output_string oc
               (Serve.Protocol.bye_line ~served:(Serve.Engine.served engine));
             output_char oc '\n';
             flush oc;
             shutdown := true)
         | exception End_of_file -> ()
       in
       serve_lines ()
     with Sys_error _ | Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  done;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  if Sys.file_exists path then Sys.remove path;
  let code = finish_session engine ledger ~label:("socket " ^ path) ~jobs in
  Printf.eprintf "fpart_serve: shut down cleanly (%d request(s) served)\n%!"
    (Serve.Engine.served engine);
  code

(* Client pump for scripts and CI: send every stdin line, then read
   responses until the server closes the connection.  Always appends a
   shutdown-free EOF, so the daemon keeps running unless the script
   itself carries {"op":"shutdown"}. *)
let client_mode path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect sock (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     Printf.eprintf "fpart_serve: cannot connect to %s: %s\n" path
       (Unix.error_message e);
     exit 1);
  let ic = Unix.in_channel_of_descr sock in
  let oc = Unix.out_channel_of_descr sock in
  let lines = read_lines stdin in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  flush oc;
  Unix.shutdown sock Unix.SHUTDOWN_SEND;
  (try
     while true do
       print_endline (input_line ic)
     done
   with End_of_file -> ());
  (try Unix.close sock with Unix.Unix_error _ -> ());
  0

(* The telemetry endpoints served by --metrics: the Prometheus page
   and a JSON liveness probe.  The handler runs on a posix thread of
   the engine's domain, so the scrape reads the same instrument cells
   the engine merges worker activity into. *)
let telemetry_handler engine path =
  match path with
  | "/metrics" ->
    Some ("text/plain; version=0.0.4", Fpart_obs.Expose.render ())
  | "/healthz" ->
    Some
      ( "application/json",
        Fpart_obs.Json.to_string (Serve.Engine.health_json engine) ^ "\n" )
  | _ -> None

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let run_engine ~batch ~socket ~jobs ~timeout_s ~ledger ~metrics ~metrics_out
    ~access_log ~cache_warn_mb =
  let access_oc =
    Option.map (fun p -> if p = "-" then stderr else open_out p) access_log
  in
  let access =
    Option.map
      (fun oc j ->
        output_string oc (Fpart_obs.Json.to_string j);
        output_char oc '\n';
        flush oc)
      access_oc
  in
  let engine =
    Serve.Engine.create ?timeout_s ?cache_warn_mb
      ~warn:(fun m -> Printf.eprintf "fpart_serve: warning: %s\n%!" m)
      ?access ~jobs ()
  in
  let http =
    match metrics with
    | None -> Ok None
    | Some addr -> (
      match Serve.Http.start ~addr ~handler:(telemetry_handler engine) with
      | Ok t ->
        Printf.eprintf "fpart_serve: metrics on http://127.0.0.1:%d/metrics\n%!"
          (Serve.Http.port t);
        Ok (Some t)
      | Error e ->
        Printf.eprintf "fpart_serve: %s\n" e;
        Error 1)
  in
  let code =
    match http with
    | Error rc -> rc
    | Ok http ->
      let code =
        match (batch, socket) with
        | Some bpath, _ -> batch_mode engine bpath ledger jobs
        | None, Some spath -> socket_mode engine spath ledger jobs
        | None, None -> assert false
      in
      (* one-shot exposition dump: the same page /metrics would have
         served, written after the last request for deterministic
         offline consumption (cram tests, fpart_inspect scrape FILE) *)
      Option.iter (fun p -> write_file p (Fpart_obs.Expose.render ())) metrics_out;
      Option.iter Serve.Http.stop http;
      code
  in
  Serve.Engine.shutdown engine;
  Option.iter (fun oc -> if oc != stderr then close_out oc) access_oc;
  code

let main batch socket client jobs timeout_s ledger trace trace_format stats
    metrics metrics_out access_log cache_warn_mb =
  Obs_setup.install_resource ();
  Obs_setup.install_clock ();
  Fpart_obs.Metrics.set_enabled true;
  Fpart_obs.Resource.set_enabled true;
  Obs_setup.setup_trace ~prog:"fpart_serve" trace trace_format;
  let result =
    match (batch, socket, client) with
    | _, _, Some path ->
      (* pure pump: no engine on this side *)
      client_mode path
    | None, None, None ->
      prerr_endline
        "fpart_serve: give one of --batch FILE, --socket PATH or --client PATH";
      2
    | Some _, _, None | None, Some _, None ->
      (* --batch wins when both are given, as before *)
      let batch, socket =
        match batch with Some _ -> (batch, None) | None -> (None, socket)
      in
      run_engine ~batch ~socket ~jobs ~timeout_s ~ledger ~metrics ~metrics_out
        ~access_log ~cache_warn_mb
  in
  if stats then begin
    Format.eprintf "%a" Fpart_obs.Metrics.pp_report ();
    Format.eprintf "%a" Fpart_obs.Resource.pp_summary ()
  end;
  Obs_setup.finish_trace ();
  result

let batch =
  Arg.(
    value
    & opt (some string) None
    & info [ "batch" ] ~docv:"FILE"
        ~doc:
          "Process a request script (one JSONL request per line; $(b,-) for \
           stdin), write response lines to stdout and exit.  Consecutive \
           partition requests are answered as one batched fan-out.")

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen for request lines on a Unix domain socket at PATH.  A \
           $(b,{\"op\":\"shutdown\"}) line stops the daemon cleanly.")

let client =
  Arg.(
    value
    & opt (some string) None
    & info [ "client" ] ~docv:"PATH"
        ~doc:
          "Connect to a daemon's socket, send every stdin line, print the \
           response lines.  For scripts and CI (no netcat dependency).")

let jobs =
  Arg.(
    value
    & opt (Obs_setup.int_at_least ~min:1 "JOBS") 1
    & info [ "jobs"; "j" ] ~docv:"JOBS"
        ~doc:
          "Execution domains of the engine's pool: the uncached requests \
           of a batch run in parallel, one request per domain at a time.  \
           A multi-start request runs its seeds in sequence on its domain.")

let timeout_s =
  Arg.(
    value
    & opt (some (Obs_setup.positive_float "SECONDS")) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Time limit of every partition request that sets no \
           $(b,timeout_s) of its own (cooperative: an overrunning request \
           is answered with a timed-out error when it completes).")

let ledger =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Append one serve-session record (request count, cache hits, \
           cold/warm latency quantiles; schema fpart-ledger/1) to FILE at \
           shutdown.")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print the metrics report (counters, span histograms) to stderr at exit.")

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"ADDR"
        ~doc:
          "Serve Prometheus exposition on $(b,http://ADDR/metrics) and a JSON \
           liveness probe on $(b,/healthz) while the service runs.  ADDR is \
           $(b,PORT) or $(b,HOST:PORT); port $(b,0) picks a free port \
           (announced on stderr).")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write one exposition page (the same text $(b,/metrics) serves) to \
           FILE after the last request; for offline diffing and \
           $(b,fpart_inspect scrape FILE).")

let access_log =
  Arg.(
    value
    & opt (some string) None
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:
          "Append one structured JSONL record per answered request to FILE \
           ($(b,-) for stderr): request id, client id, mode \
           (cold/warm/hit), wall ms, cut, k and workload digests.  The \
           request id also stamps every recorder span and convergence event \
           recorded while serving that request.")

let cache_warn_mb =
  Arg.(
    value
    & opt (some float) None
    & info [ "cache-warn-mb" ] ~docv:"MB"
        ~doc:
          "Warn once on stderr (and count $(b,serve.cache.warnings)) when the \
           result cache's estimated size first exceeds MB mebibytes.  The \
           cache is unbounded; this makes its growth visible.")

let cmd =
  let doc = "long-running multi-way FPGA partition service" in
  Cmd.v
    (Cmd.info "fpart_serve" ~doc)
    Term.(
      const main $ batch $ socket $ client $ jobs $ timeout_s $ ledger
      $ Obs_setup.trace_arg $ Obs_setup.trace_format_arg $ stats $ metrics
      $ metrics_out $ access_log $ cache_warn_mb)

let () = exit (Cmd.eval' cmd)
