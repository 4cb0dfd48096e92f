(* Offline trace analyzer: hotspot and convergence tables from a
   recorded trace (JSONL or chrome export), structural validation for
   CI, a two-run diff for A/B-ing flags like --jobs or --refiner,
   plus subcommands over the other artifact kinds: [mem] (allocation
   view of a trace), [trend]/[regress] (run-history ledger statistics)
   and [scrape] (one /metrics exposition page).  All analysis lives in
   Fpart_obs.Inspect; this file is argument plumbing. *)

module Inspect = Fpart_obs.Inspect
module Ledger = Fpart_obs.Ledger
open Cmdliner

let load path =
  match Inspect.load_file path with
  | Ok t -> Ok t
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

(* Exit codes: 0 ok, 1 structural errors (orphaned spans, duplicate
   ids, dangling telemetry references), 2 unreadable/unparseable
   input. *)
let validate_exit path t =
  match Inspect.validate t with
  | [] -> 0
  | errors ->
    List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) errors;
    1

let main file_a file_b diff check passes times =
  let times = not times in
  let ppf = Format.std_formatter in
  let run () =
    match (diff, file_b) with
    | true, None ->
      prerr_endline "fpart_inspect: --diff needs two trace files";
      2
    | true, Some b_path -> (
      match (load file_a, load b_path) with
      | Error e, _ | _, Error e ->
        prerr_endline ("fpart_inspect: " ^ e);
        2
      | Ok a, Ok b ->
        Format.fprintf ppf "diff %s -> %s@." file_a b_path;
        Inspect.pp_diff ~times ppf a b;
        max (validate_exit file_a a) (validate_exit b_path b))
    | false, Some _ ->
      prerr_endline "fpart_inspect: second trace file needs --diff";
      2
    | false, None -> (
      match load file_a with
      | Error e ->
        prerr_endline ("fpart_inspect: " ^ e);
        2
      | Ok t ->
        let rc = validate_exit file_a t in
        if check then begin
          if rc = 0 then
            Format.fprintf ppf "ok: %d records, %d spans@."
              (List.length (Inspect.records t))
              (List.length (Inspect.spans t))
        end
        else begin
          Format.fprintf ppf "== hotspots (self time) ==@.";
          Inspect.pp_hotspots ~times ppf t;
          Format.fprintf ppf "@.== convergence (one row per Improve() call) ==@.";
          Inspect.pp_convergence ppf t;
          if passes then begin
            Format.fprintf ppf "@.== passes ==@.";
            Inspect.pp_passes ppf t
          end
        end;
        rc)
  in
  let rc = run () in
  Format.pp_print_flush ppf ();
  rc

let file_a =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE" ~doc:"Trace file (JSONL or chrome export).")

let file_b =
  Arg.(
    value
    & pos 1 (some file) None
    & info [] ~docv:"TRACE_B" ~doc:"Second trace file (with $(b,--diff)).")

let diff =
  Arg.(
    value & flag
    & info [ "diff" ]
        ~doc:"Compare two traces: per-phase self-time deltas and convergence totals.")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Only validate: parse the file and check the span tree is well-formed \
           (exit 2 on parse errors, 1 on orphaned spans or duplicate ids).")

let passes =
  Arg.(
    value & flag
    & info [ "passes" ] ~doc:"Also print the per-pass detail table.")

let no_times =
  Arg.(
    value & flag
    & info [ "no-times" ]
        ~doc:
          "Omit wall-clock columns (deterministic output, used by the cram tests).")

let analyze_term =
  Term.(const main $ file_a $ file_b $ diff $ check $ passes $ no_times)

(* {2 mem: allocation view of a trace} *)

let mem_main file =
  match load file with
  | Error e ->
    prerr_endline ("fpart_inspect: " ^ e);
    2
  | Ok t ->
    Inspect.pp_mem Format.std_formatter t;
    Format.pp_print_flush Format.std_formatter ();
    validate_exit file t

let mem_cmd =
  let doc =
    "allocation report: self-allocation hotspots, per-pass allocation and \
     GC/RSS peaks from a trace recorded with resource telemetry"
  in
  Cmd.v
    (Cmd.info "mem" ~doc)
    Term.(
      const mem_main
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"TRACE" ~doc:"Trace file (JSONL or chrome export)."))

(* {2 trend / regress: ledger statistics}

   Exit codes: 0 ok, 1 regression found or corrupt/mixed-schema ledger
   (the history cannot be trusted, so a gate must fail), 2 missing or
   unreadable file (a directory, say). *)

let load_ledger path =
  let unreadable reason =
    Printf.eprintf "fpart_inspect: %s: %s\n" path reason;
    Error 2
  in
  if not (Sys.file_exists path) then unreadable "no such file"
  else if Sys.is_directory path then unreadable "is a directory"
  else
    match Ledger.load path with
    | Ok entries -> Ok entries
    | Error e ->
      Printf.eprintf "fpart_inspect: %s: %s\n" path e;
      Error 1

let ledger_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"LEDGER"
        ~doc:
          "Run-history ledger (JSONL, schema fpart-ledger/1) written by \
           $(b,fpart --ledger) or $(b,bench/main.exe) with \
           $(b,FPART_BENCH_LEDGER).")

let trend_main path =
  match load_ledger path with
  | Error rc -> rc
  | Ok entries ->
    Inspect.pp_trend Format.std_formatter entries;
    Format.pp_print_flush Format.std_formatter ();
    0

let trend_cmd =
  let doc = "per-benchmark median/MAD trajectories across ledger entries" in
  Cmd.v (Cmd.info "trend" ~doc) Term.(const trend_main $ ledger_arg)

let min_delta_arg =
  Arg.(
    value
    & opt float 0.20
    & info [ "min-delta" ] ~docv:"FRAC"
        ~doc:
          "Floor of the allowed worse-direction relative change (default \
           0.20); the gate never fires below it however quiet the history.")

let mad_k_arg =
  Arg.(
    value
    & opt float 4.0
    & info [ "mad-k" ] ~docv:"K"
        ~doc:
          "Noise multiplier: allow up to K scaled MADs (1.4826·MAD, a sigma \
           estimate) of worse-direction change for historically noisy rows.")

let regress_main path min_delta mad_k =
  match load_ledger path with
  | Error rc -> rc
  | Ok entries ->
    let verdicts = Inspect.regress ~min_delta ~mad_k entries in
    Inspect.pp_regress Format.std_formatter verdicts;
    Format.pp_print_flush Format.std_formatter ();
    if List.exists (fun v -> v.Inspect.v_regressed) verdicts then 1 else 0

let regress_cmd =
  let doc =
    "judge the newest ledger entry against the median of its history; exit 1 \
     on regression (or on a corrupt ledger)"
  in
  Cmd.v
    (Cmd.info "regress" ~doc)
    Term.(const regress_main $ ledger_arg $ min_delta_arg $ mad_k_arg)

(* {2 scrape: exposition consumer}

   [scrape] fetches one /metrics page (or reads a --metrics-out file),
   strict-parses it and prints the compact table.  Exit codes: 0 ok,
   1 invalid exposition, 2 unreachable/unreadable source. *)

let fetch_page source =
  if Sys.file_exists source then Netlist.Textfile.read source
  else Serve.Http.get ~addr:source "/metrics"

let parse_page source text =
  match Fpart_obs.Expose.parse text with
  | Ok fams -> Ok fams
  | Error e -> Error (Printf.sprintf "%s: invalid exposition: %s" source e)

let scrape_main source health raw =
  match fetch_page source with
  | Error e ->
    Printf.eprintf "fpart_inspect: %s: %s\n" source e;
    2
  | Ok text -> (
    match parse_page source text with
    | Error e ->
      prerr_endline ("fpart_inspect: " ^ e);
      1
    | Ok fams ->
      let health_rc =
        if not health then 0
        else if Sys.file_exists source then begin
          Printf.eprintf
            "fpart_inspect: --health needs an address, not a file\n";
          2
        end
        else
          match Serve.Http.get ~addr:source "/healthz" with
          | Ok body ->
            print_string body;
            0
          | Error e ->
            Printf.eprintf "fpart_inspect: %s: health probe failed: %s\n"
              source e;
            1
      in
      if health_rc <> 0 then health_rc
      else begin
        if raw then print_string text
        else begin
          Inspect.pp_scrape Format.std_formatter fams;
          Format.pp_print_flush Format.std_formatter ()
        end;
        0
      end)

let scrape_cmd =
  let doc =
    "fetch one exposition page from a daemon's $(b,/metrics) endpoint (or a \
     $(b,--metrics-out) file), validate it against the strict text-format \
     parser and print a compact table; exit 1 when the page does not parse"
  in
  Cmd.v
    (Cmd.info "scrape" ~doc)
    Term.(
      const scrape_main
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"SOURCE"
              ~doc:
                "Metrics address ($(b,PORT) or $(b,HOST:PORT)) or a saved \
                 exposition file.")
      $ Arg.(
          value & flag
          & info [ "health" ]
              ~doc:"Also probe $(b,/healthz) first and print its JSON body.")
      $ Arg.(
          value & flag
          & info [ "raw" ]
              ~doc:
                "Print the validated page verbatim instead of the table (for \
                 diffing two scrapes)."))

let doc = "analyze fpart observability traces and run ledgers offline"

let group =
  Cmd.group ~default:analyze_term (Cmd.info "fpart_inspect" ~doc)
    [ mem_cmd; trend_cmd; regress_cmd; scrape_cmd ]

let analyze_cmd = Cmd.v (Cmd.info "fpart_inspect" ~doc) analyze_term

(* [fpart_inspect TRACE] predates the subcommands and must keep
   working; Cmd.group would reject a bare first positional as an
   unknown command, so route those straight to the analyzer. *)
let () =
  let subcommand = [ "mem"; "trend"; "regress"; "scrape"; "help" ] in
  let bare_positional =
    Array.length Sys.argv > 1
    &&
    let a = Sys.argv.(1) in
    String.length a > 0 && a.[0] <> '-' && not (List.mem a subcommand)
  in
  exit (Cmd.eval' (if bare_positional then analyze_cmd else group))
