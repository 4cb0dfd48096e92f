(* Regenerate the paper's tables and figures.

   Usage: run_experiments [ARTIFACT ...]
   where ARTIFACT is table1..table6, figure1..figure3, or all (default). *)

let artifacts =
  [
    ("table1", Report.Experiments.table1);
    ("table2", Report.Experiments.table2);
    ("table3", Report.Experiments.table3);
    ("table4", Report.Experiments.table4);
    ("table5", Report.Experiments.table5);
    ("table6", Report.Experiments.table6);
    ("figure1", Report.Experiments.figure1);
    ("figure2", Report.Experiments.figure2);
    ("figure3", Report.Experiments.figure3);
    ("ablations", Report.Experiments.ablations);
    ("variance", Report.Experiments.variance);
    ("modern", Report.Experiments.modern);
    ("delta_sweep", Report.Experiments.delta_sweep);
    ("csv2", Report.Experiments.csv2);
    ("csv3", Report.Experiments.csv3);
    ("csv4", Report.Experiments.csv4);
    ("csv5", Report.Experiments.csv5);
    ("all", Report.Experiments.all);
  ]

let names = String.concat ", " (List.map fst artifacts)

let run jobs engine refiner trace trace_format selected =
  Obs_setup.setup_trace ~prog:"run_experiments" trace trace_format;
  let progress msg =
    prerr_endline ("# " ^ msg);
    flush stderr
  in
  let config = { Fpart.Config.default with engine; refiner } in
  let t = Report.Experiments.create ~progress ~jobs ~config () in
  Fun.protect
    ~finally:(fun () ->
      Report.Experiments.shutdown t;
      Obs_setup.finish_trace ())
    (fun () ->
      List.iter
        (fun name ->
          match List.assoc_opt name artifacts with
          | Some f ->
            print_string (f t);
            print_newline ()
          | None ->
            Printf.eprintf "unknown artifact %S; expected one of: %s\n" name
              names;
            exit 2)
        selected)

open Cmdliner

let selected =
  let doc = Printf.sprintf "Artifacts to regenerate: %s." names in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"ARTIFACT" ~doc)

let jobs =
  let doc =
    "Execution domains for the independent algorithm runs behind the \
     tables (default 1 = fully sequential).  Output is identical for \
     every $(docv); only wall-clock time changes."
  in
  Arg.(
    value
    & opt (Obs_setup.int_at_least ~min:1 "JOBS") 1
    & info [ "jobs"; "j" ] ~docv:"JOBS" ~doc)

let engine =
  let doc =
    "Engine behind the FPART runs: $(b,flat) (the paper's driver) or \
     $(b,mlevel) (the multilevel V-cycle).  The $(b,modern) table runs \
     both engines whichever is chosen."
  in
  Arg.(value & opt (enum Fpart.Config.engines) Fpart.Config.Flat
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

let refiner =
  let doc =
    "Improvement backend behind the FPART runs: $(b,sanchis) (the \
     paper's gain-bucket passes) or $(b,hybrid) (Sanchis with corridor \
     max-flow escalation on stalled pairs)."
  in
  Arg.(value & opt (enum Fpart.Config.refiners) Fpart.Config.Sanchis_refiner
       & info [ "refiner" ] ~docv:"BACKEND" ~doc)

let cmd =
  let doc = "regenerate the FPART paper's tables and figures on MCNC surrogates" in
  Cmd.v
    (Cmd.info "run_experiments" ~doc)
    Term.(
      const run $ jobs $ engine $ refiner $ Obs_setup.trace_arg
      $ Obs_setup.trace_format_arg $ selected)

let () = exit (Cmd.eval cmd)
