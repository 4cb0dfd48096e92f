(* fpart: partition a netlist (BLIF, structural Verilog or XNF) onto
   copies of an FPGA device.

   Usage:
     fpart CIRCUIT.blif --device XC3020 [--delta 0.9] [--algo fpart]
     fpart --generate 400x60 --device XC3042 -o out_prefix

   Prints a per-block report; with -o, also writes one BLIF per block
   whose cells are the block's cells (pads become that device's I/O). *)

open Cmdliner

let load_circuit input generate seed =
  match (input, generate) with
  | Some path, None ->
    Result.map_error (Printf.sprintf "cannot parse %s: %s" path) (Netlist.Load.file path)
  | None, Some spec ->
    Result.map_error (Printf.sprintf "bad --generate spec (%s)")
      (Netlist.Load.generate spec ~seed)
  | Some _, Some _ -> Error "give either an input file or --generate, not both"
  | None, None -> Error "no input: give a BLIF file or --generate CELLSxPADS"

type algo = Algo_fpart | Algo_kwayx | Algo_fbb_mw

(* Observability wiring: --trace records into a file (through the
   setup the other binaries share) and --stats alone turns the metrics
   on without a record stream. *)
let setup_obs ~trace ~trace_format ~stats =
  (* the getrusage source backs --stats gc reporting and --ledger
     resource peaks even when the recorder stays off, so install it
     unconditionally *)
  Obs_setup.install_resource ();
  if stats then begin
    Obs_setup.install_clock ();
    Fpart_obs.Metrics.set_enabled true;
    Fpart_obs.Resource.set_enabled true
  end;
  Obs_setup.setup_trace ~prog:"fpart" trace trace_format

(* {2 Run ledger}

   --ledger FILE appends one schema-versioned record per run: wall
   time, result shape, config/netlist digests (so trend analysis can
   tell "same workload" from "different workload") and the process
   resource summary.  Analyzed offline by fpart_inspect trend/regress. *)

let algo_name = function
  | Algo_fpart -> "fpart"
  | Algo_kwayx -> "kwayx"
  | Algo_fbb_mw -> "fbb-mw"

(* Shared fpart configuration from the CLI knobs. *)
let make_config ~delta ~seed ~cluster ~jobs ~selfcheck ~refiner ~engine
    ~runs =
  {
    Fpart.Config.default with
    delta;
    seed;
    cluster_size = cluster;
    jobs;
    selfcheck;
    refiner;
    engine;
    runs;
  }

(* An FPART run's digest is the config's own, the same one fpart_serve
   stamps on the same workload.  A baseline digests only the knobs it
   reads (k-way.x the filling ratio, FBB-MW also the seed) and tags its
   algorithm, so FPART-only flags do not split its run history. *)
let config_digest ~algo (config : Fpart.Config.t) =
  let baseline c = Fpart.Config.digest ~extra:("algo=" ^ algo_name algo) c in
  let { Fpart.Config.delta; seed; _ } = config in
  match algo with
  | Algo_fpart -> Fpart.Config.digest config
  | Algo_kwayx -> baseline { Fpart.Config.default with delta }
  | Algo_fbb_mw -> baseline { Fpart.Config.default with delta; seed }

let netlist_digest = Hypergraph.Hgraph.digest

let append_ledger path ~label ~jobs ~config_digest ~netlist_digest ~rows =
  let entry =
    {
      Fpart_obs.Ledger.time = Unix.gettimeofday ();
      git_rev = Fpart_obs.Ledger.git_rev ();
      kind = "run";
      label;
      jobs;
      repeats = 1;
      config_digest = Some config_digest;
      netlist_digest = Some netlist_digest;
      rows;
      resource = Some (Fpart_obs.Resource.summary ());
    }
  in
  match Fpart_obs.Ledger.append path entry with
  | Ok () -> Ok (Format.printf "run recorded in %s@." path)
  | Error e ->
    Error
      (Printf.sprintf "cannot append to ledger %s: %s" path
         (Netlist.Textfile.reason ~path e))

let algo_conv =
  let parse = function
    | "fpart" -> Ok Algo_fpart
    | "kwayx" | "k-way.x" -> Ok Algo_kwayx
    | "fbb-mw" | "fbbmw" -> Ok Algo_fbb_mw
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print ppf a = Format.pp_print_string ppf (algo_name a) in
  Arg.conv (parse, print)

let partition algo hg device ~config ~delta ~seed =
  match algo with
  | Algo_fpart ->
    let r = Solve.run config hg device in
    (r.Fpart.Driver.k, r.Fpart.Driver.assignment, r.Fpart.Driver.feasible,
     r.Fpart.Driver.trace)
  | Algo_kwayx ->
    let r = Fpart.Kwayx.run ?delta hg device in
    (r.Fpart.Kwayx.k, r.Fpart.Kwayx.assignment, r.Fpart.Kwayx.feasible, [])
  | Algo_fbb_mw ->
    let d = match delta with Some d -> d | None -> Device.paper_delta device in
    let cfg = { Flow.Fbb_mw.default_config with delta = d; rng_seed = seed } in
    let r = Flow.Fbb_mw.partition hg device cfg in
    (r.Flow.Fbb_mw.k, r.Flow.Fbb_mw.assignment, r.Flow.Fbb_mw.feasible, [])

(* An output file that cannot be written fails the run (exit 1). *)
let write_output path write =
  try Ok (write ())
  with Sys_error msg ->
    Error
      (Printf.sprintf "cannot write %s: %s" path (Netlist.Textfile.reason ~path msg))

let write_blocks prefix name hg assignment k =
  let rec from b =
    if b = k then Ok ()
    else
      let sub =
        (Hypergraph.Induce.induce hg ~keep:(fun v -> assignment.(v) = b))
          .Hypergraph.Induce.sub
      in
      let path = Printf.sprintf "%s_block%d.blif" prefix b in
      (* pads in subcircuits may have several nets after cutting; export
         structurally instead when that happens *)
      let written =
        write_output path (fun () ->
            try
              Netlist.Blif.write_file path
                (Netlist.Blif.of_hypergraph ~name:(Printf.sprintf "%s_b%d" name b) sub)
            with Invalid_argument msg ->
              Printf.eprintf "warning: %s not written (%s)\n" path msg)
      in
      Result.bind written (fun () -> from (b + 1))
  in
  from 0

(* --check FILE: load a saved partition and validate it instead of
   partitioning from scratch. *)
let check_mode path hg device delta =
  match Netlist.Partfile.parse_file path with
  | Error e -> Error (Printf.sprintf "cannot parse %s: %s" path e)
  | Ok pf -> (
    match Netlist.Partfile.apply pf hg with
    | Error e -> Error (Printf.sprintf "%s does not match the circuit: %s" path e)
    | Ok (assignment, k) ->
      let ctx = Partition.Cost.context_of device ~delta hg in
      let report = Partition.Check.of_assignment hg ~k ~assignment ~ctx in
      Format.printf "checking %s against %s (S_MAX=%d T_MAX=%d)@." path
        device.Device.dev_name ctx.Partition.Cost.s_max device.Device.t_max;
      Format.printf "%a" Partition.Check.pp report;
      if report.Partition.Check.feasible then Ok () else Error "partition is infeasible")

let main input generate device_name delta algo engine seed runs cluster jobs
    selfcheck refiner output save check board dot trace trace_format
    stats trace_log ledger =
  setup_obs ~trace ~trace_format ~stats;
  let result =
    match Device.find device_name with
    | None ->
      Error
        (Printf.sprintf "unknown device %S (known: %s)" device_name
           (String.concat ", " (List.map (fun d -> d.Device.dev_name) Device.catalog)))
    | Some device -> (
      match load_circuit input generate seed with
      | Error e -> Error e
      | Ok (name, hg) -> (
        match check with
        | Some path ->
          let d = match delta with Some d -> d | None -> Device.paper_delta device in
          check_mode path hg device d
        | None ->
        let t0 = Unix.gettimeofday () in
        let config =
          make_config ~delta ~seed ~cluster ~jobs ~selfcheck ~refiner ~engine
            ~runs
        in
        let k, assignment, feasible, trace_events =
          partition algo hg device ~config ~delta ~seed
        in
        let wall_s = Unix.gettimeofday () -. t0 in
        let violations = Fpart_check.Selfcheck.violations_seen () in
        if violations > 0 then
          Format.eprintf
            "fpart: self-check found %d violation(s) — incremental state diverged from the oracle@."
            violations;
        let st = Partition.State.create hg ~k ~assign:(fun v -> assignment.(v)) in
        let d = match delta with Some d -> d | None -> Device.paper_delta device in
        let s_max = Device.s_max device ~delta:d in
        Format.printf "%s: %d cells, %d pads, %d nets@." name
          (Hypergraph.Hgraph.num_cells hg)
          (Hypergraph.Hgraph.num_pads hg)
          (Hypergraph.Hgraph.num_nets hg);
        Format.printf "%d x %s (S_MAX=%d T_MAX=%d), feasible=%b@." k
          device.Device.dev_name s_max device.Device.t_max feasible;
        let ctx = Partition.Cost.context_of device ~delta:d hg in
        let report = Partition.Check.of_state st ~ctx in
        Format.printf "%a" Partition.Check.pp report;
        if board then Format.printf "%a" (fun ppf -> Partition.Quotient.pp_report ppf ~t_max:device.Device.t_max) st;
        if trace_log then begin
          if trace_events = [] then
            Format.printf "trace log: no events recorded for this algorithm@."
          else begin
            Format.printf "trace log:@.";
            List.iter
              (fun e -> Format.printf "  %a@." Fpart.Trace.pp_event e)
              trace_events
          end
        end;
        let ( let* ) = Result.bind in
        let* () =
          match dot with
          | Some path ->
            let* () =
              write_output path (fun () ->
                  Hypergraph.Dot.write_file path ~assignment ~name hg)
            in
            Ok (Format.printf "graphviz rendering written to %s@." path)
          | None -> Ok ()
        in
        let* () =
          match output with
          | Some prefix -> write_blocks prefix name hg assignment k
          | None -> Ok ()
        in
        let* () =
          match save with
          | Some path ->
            let pf =
              Netlist.Partfile.of_assignment hg ~circuit:name ~delta:d
                ~block_devices:(Array.make k device.Device.dev_name)
                ~assignment
            in
            let* () =
              write_output path (fun () -> Netlist.Partfile.write_file path pf)
            in
            Ok (Format.printf "partition written to %s@." path)
          | None -> Ok ()
        in
        match ledger with
        | Some path ->
          let prefix =
            Printf.sprintf "run/%s-%s-%s" name device.Device.dev_name
              (algo_name algo)
          in
          let prefix =
            match (algo, engine) with
            | Algo_fpart, Fpart.Config.Mlevel -> prefix ^ "-mlevel"
            | _ -> prefix
          in
          let row rname value unit_ higher_better =
            { Fpart_obs.Ledger.name = prefix ^ "/" ^ rname; value; unit_; higher_better }
          in
          append_ledger path
            ~label:(Printf.sprintf "%s on %s (%s)" name device.Device.dev_name (algo_name algo))
            ~jobs
            ~config_digest:(config_digest ~algo config)
            ~netlist_digest:(netlist_digest hg)
            ~rows:
              [
                row "wall_s" wall_s "s" false;
                row "devices" (float_of_int k) "blocks" false;
                row "cut" (float_of_int (Partition.State.cut_size st)) "nets" false;
              ]
        | None -> Ok ()))
  in
  if stats then begin
    Format.eprintf "%a" Fpart_obs.Metrics.pp_report ();
    Format.eprintf "%a" Fpart_obs.Resource.pp_summary ()
  end;
  Fpart_obs.Sink.close_current ();
  match result with
  | Ok () -> 0
  | Error e ->
    prerr_endline ("fpart: " ^ e);
    1

let input =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"CIRCUIT.blif"
        ~doc:"Input netlist: structural Verilog (.v), XNF (.xnf), otherwise BLIF.")

let generate =
  Arg.(
    value
    & opt (some string) None
    & info [ "generate" ] ~docv:"CELLSxPADS" ~doc:"Generate a synthetic circuit instead of reading one.")

let device =
  Arg.(
    value
    & opt string "XC3020"
    & info [ "device"; "d" ] ~docv:"NAME" ~doc:"Target FPGA device (XC3020, XC3042, XC3090, XC2064).")

(* The filling ratio must lie in (0, 1]; NaN fails both tests. *)
let delta_conv =
  let parse s =
    match float_of_string_opt s with
    | Some d when d > 0.0 && d <= 1.0 -> Ok d
    | Some _ -> Error (`Msg "RATIO must be in (0, 1]")
    | None -> Error (`Msg "RATIO must be a number")
  in
  Arg.conv (parse, Format.pp_print_float)

let delta =
  Arg.(
    value
    & opt (some delta_conv) None
    & info [ "delta" ] ~docv:"RATIO" ~doc:"Filling ratio; defaults to the paper's per-family value.")

let algo =
  Arg.(
    value
    & opt algo_conv Algo_fpart
    & info [ "algo"; "a" ] ~docv:"ALGO" ~doc:"Algorithm: fpart, kwayx or fbb-mw.")

let engine =
  Arg.(
    value
    & opt (enum Fpart.Config.engines) Fpart.Config.Flat
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Partitioning engine (fpart only): $(b,flat) (default, the paper's \
           recursive driver on the full netlist) or $(b,mlevel) (the \
           multilevel V-cycle: coarsen by heavy-edge matching, partition \
           the coarsest graph from max(3, $(b,--runs)) seeds, then \
           uncoarsen with bounded refinement per level; for \
           10^5-cell-and-up circuits).")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let runs =
  Arg.(
    value
    & opt (Obs_setup.int_at_least ~min:1 "N") 1
    & info [ "runs" ] ~docv:"N"
        ~doc:
          "Multi-start: run FPART N times with different seeds and keep the \
           best (fpart only). With $(b,--engine mlevel) the starts run on \
           the coarsest graph, at least 3 of them.")

let cluster =
  Arg.(
    value
    & opt (some (Obs_setup.int_at_least ~min:2 "SIZE")) None
    & info [ "cluster" ] ~docv:"SIZE"
        ~doc:"Clustering pre-pass: coarsen into connectivity clusters of logic size <= SIZE (at least 2) before partitioning (fpart only).")

let jobs =
  Arg.(
    value
    & opt (Obs_setup.int_at_least ~min:1 "JOBS") 1
    & info [ "jobs"; "j" ] ~docv:"JOBS"
        ~doc:
          "Execution domains: run the multi-start runs (and the initial-bipartition portfolio) on JOBS parallel domains. The result is bit-identical to JOBS=1 (fpart only).")

let selfcheck =
  Arg.(
    value
    & opt
        (enum
           [
             ("off", Fpart_check.Selfcheck.Off);
             ("cheap", Fpart_check.Selfcheck.Cheap);
             ("paranoid", Fpart_check.Selfcheck.Paranoid);
           ])
        Fpart_check.Selfcheck.Off
    & info [ "selfcheck" ] ~docv:"LEVEL"
        ~doc:
          "Validate the incremental state against the reference oracle while partitioning: $(b,off) (default), $(b,cheap) (pass boundaries, a few percent overhead) or $(b,paranoid) (every applied move, debugging only). Violations are reported on stderr and counted in --stats (fpart only).")

let refiner =
  Arg.(
    value
    & opt (enum Fpart.Config.refiners) Fpart.Config.Sanchis_refiner
    & info [ "refiner" ] ~docv:"BACKEND"
        ~doc:
          "Improvement backend for the Improve() calls and the uncoarsening refinement: $(b,sanchis) (default, the paper's gain-bucket passes) or $(b,hybrid) (Sanchis first, then corridor max-flow min-cut sweeps on the blocks where the Sanchis passes retained zero moves). Both respect the feasible move windows; flow proposals apply only when they improve the solution value without growing the cut (fpart only).")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"PREFIX" ~doc:"Write one BLIF per block to PREFIX_blockN.blif.")

let save =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE" ~doc:"Save the partition (node-name to block map) to FILE.")

let check =
  Arg.(
    value
    & opt (some file) None
    & info [ "check" ] ~docv:"FILE"
        ~doc:"Validate a previously saved partition FILE against the circuit and device instead of partitioning.")

let board =
  Arg.(
    value & flag
    & info [ "board" ]
        ~doc:"Print the board-level view: per-device I/O budgets and the densest inter-device buses.")

let dot =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:"Write a Graphviz rendering of the circuit coloured by block to FILE.")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print the metrics report (counters, span histograms) to stderr at exit.")

let trace_log =
  Arg.(
    value & flag
    & info [ "trace-log" ]
        ~doc:"Print the recorded driver event log (human-readable) after the report.")

let ledger =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Append one run-history record (wall time, result shape, GC/RSS \
           peaks, config and netlist digests; JSONL, schema fpart-ledger/1) \
           to FILE. Analyze accumulated entries with $(b,fpart_inspect trend) \
           and $(b,fpart_inspect regress).")

let cmd =
  let doc = "multi-way FPGA netlist partitioning (FPART reproduction)" in
  Cmd.v
    (Cmd.info "fpart" ~doc)
    Term.(
      const main $ input $ generate $ device $ delta $ algo $ engine $ seed
      $ runs $ cluster $ jobs $ selfcheck $ refiner $ output
      $ save $ check $ board $ dot $ Obs_setup.trace_arg $ Obs_setup.trace_format_arg $ stats
      $ trace_log $ ledger)

let () = exit (Cmd.eval' cmd)
