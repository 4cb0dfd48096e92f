(* Bechamel benchmarks: one per paper table/figure (timing a
   representative slice of the experiment that regenerates it; the full
   tables are produced by bin/run_experiments.exe), plus
   micro-benchmarks of the hot data structures, the refinement-backend
   table and the observability overhead A/B pairs.

   Run with: dune exec bench/main.exe

   Every benchmark is a [section]: a name plus a function measuring its
   ledger rows.  A run keeps the sections whose name contains
   FPART_BENCH_ONLY, prints every row, and writes them all to
   BENCH_fpart.json as one fpart-ledger/1 entry — the machine-readable
   perf snapshot that perf PRs diff against (`fpart_inspect trend
   BENCH_fpart.json` reads it).  Environment knobs (all optional):
     FPART_BENCH_QUOTA    seconds of sampling per benchmark (default 1.0)
     FPART_BENCH_ONLY     substring filter on section names
     FPART_BENCH_REPEATS  interleaved repeats for the overhead sections
                          (default 5; each row is the median)
     FPART_BENCH_LEDGER   also append the same entry to this ledger
                          file (see fpart_inspect trend/regress) *)

open Bechamel
open Toolkit
module Json = Fpart_obs.Json
module Ledger = Fpart_obs.Ledger
module Metrics = Fpart_obs.Metrics
module Resource = Fpart_obs.Resource

let mcnc name = Option.get (Netlist.Mcnc.find name)

(* Shared workloads, built once. *)
let c3540_3000 = lazy (Netlist.Mcnc.surrogate (mcnc "c3540") Device.XC3000)
let c3540_2000 = lazy (Netlist.Mcnc.surrogate (mcnc "c3540") Device.XC2000)
let s5378_3000 = lazy (Netlist.Mcnc.surrogate (mcnc "s5378") Device.XC3000)

let fpart hg device = ignore (Fpart.Driver.run (Lazy.force hg) device)

(* Table 1: workload generation (the surrogate builder itself). *)
let bench_table1 =
  Test.make ~name:"table1/generate-c3540"
    (Staged.stage (fun () ->
         let spec =
           Netlist.Generator.default_spec ~name:"c3540" ~cells:283 ~pads:72 ~seed:1
         in
         ignore (Netlist.Generator.generate spec)))

(* Tables 2-5: one representative (circuit, device) per table, all three
   algorithms for Table 2 (the headline comparison). *)
let bench_table2_fpart =
  Test.make ~name:"table2/fpart-c3540-xc3020"
    (Staged.stage (fun () -> fpart c3540_3000 Device.xc3020))

let bench_table2_kwayx =
  Test.make ~name:"table2/kwayx-c3540-xc3020"
    (Staged.stage (fun () ->
         ignore (Fpart.Kwayx.run (Lazy.force c3540_3000) Device.xc3020)))

let bench_table2_fbbmw =
  Test.make ~name:"table2/fbbmw-c3540-xc3020"
    (Staged.stage (fun () ->
         ignore
           (Flow.Fbb_mw.partition (Lazy.force c3540_3000) Device.xc3020
              Flow.Fbb_mw.default_config)))

let bench_table3 =
  Test.make ~name:"table3/fpart-c3540-xc3042"
    (Staged.stage (fun () -> fpart c3540_3000 Device.xc3042))

let bench_table4 =
  Test.make ~name:"table4/fpart-s5378-xc3090"
    (Staged.stage (fun () -> fpart s5378_3000 Device.xc3090))

let bench_table5 =
  Test.make ~name:"table5/fpart-c3540-xc2064"
    (Staged.stage (fun () -> fpart c3540_2000 Device.xc2064))

(* Table 6 is itself a timing table; benchmark the dominant cost (a full
   FPART run on a mid-size circuit). *)
let bench_table6 =
  Test.make ~name:"table6/fpart-s5378-xc3020"
    (Staged.stage (fun () -> fpart s5378_3000 Device.xc3020))

(* Figure 1: driver with trace recording. *)
let bench_figure1 =
  Test.make ~name:"figure1/fpart-trace-s5378-xc3042"
    (Staged.stage (fun () -> fpart s5378_3000 Device.xc3042))

(* Figure 2: the lexicographic solution evaluation (runs once per move
   in every improvement pass — the hot cost path). *)
let bench_figure2 =
  let st =
    lazy
      (Partition.State.create (Lazy.force c3540_3000) ~k:6 ~assign:(fun v -> v mod 6))
  in
  let ctx =
    lazy (Partition.Cost.context_of Device.xc3020 ~delta:0.9 (Lazy.force c3540_3000))
  in
  Test.make ~name:"figure2/cost-evaluate"
    (Staged.stage (fun () ->
         ignore
           (Partition.Cost.evaluate Partition.Cost.default_params (Lazy.force ctx)
              (Lazy.force st) ~remainder:(Some 5) ~step_k:3)))

(* Figure 3: one bounded Sanchis pair pass (the move-region machinery). *)
let bench_figure3 =
  Test.make ~name:"figure3/sanchis-pair-pass"
    (Staged.stage (fun () ->
         let hg = Lazy.force c3540_3000 in
         let st = Partition.State.create hg ~k:2 ~assign:(fun v -> v land 1) in
         let ctx = Partition.Cost.context_of Device.xc3020 ~delta:0.9 hg in
         let spec =
           {
             Sanchis.active = [| 0; 1 |];
             remainder = Some 1;
             lower = Array.make 2 0;
             upper = Array.make 2 max_int;
           }
         in
         let config = { Sanchis.default_config with max_passes = 1; stack_depth = 0 } in
         let eval st =
           Partition.Cost.evaluate Partition.Cost.default_params ctx st
             ~remainder:(Some 1) ~step_k:1
         in
         ignore (Sanchis.improve st ~spec ~config ~eval)))

(* Micro-benchmarks of the substrates. *)
let bench_state_move =
  let st =
    lazy
      (Partition.State.create (Lazy.force c3540_3000) ~k:4 ~assign:(fun v -> v mod 4))
  in
  Test.make ~name:"micro/state-move"
    (Staged.stage (fun () ->
         let st = Lazy.force st in
         Partition.State.move st 0 1;
         Partition.State.move st 0 0))

let bench_cut_gain =
  let st =
    lazy
      (Partition.State.create (Lazy.force c3540_3000) ~k:4 ~assign:(fun v -> v mod 4))
  in
  Test.make ~name:"micro/cut-gain"
    (Staged.stage (fun () -> ignore (Partition.State.cut_gain (Lazy.force st) 0 1)))

let bench_bucket =
  Test.make ~name:"micro/bucket-insert-remove"
    (Staged.stage
       (let b = Gainbucket.Bucket_array.create ~cells:1024 ~max_gain:32 () in
        fun () ->
          for c = 0 to 63 do
            Gainbucket.Bucket_array.insert b c ((c mod 65) - 32)
          done;
          for c = 0 to 63 do
            Gainbucket.Bucket_array.remove b c
          done))

let bench_fbb =
  Test.make ~name:"micro/fbb-bipartition-small"
    (Staged.stage (fun () ->
         let hg = Lazy.force c3540_3000 in
         let rng = Prng.Splitmix.create 7 in
         ignore
           (Flow.Fbb.bipartition hg
              ~keep:(fun _ -> true)
              ~seed_s:0
              ~seed_t:(Hypergraph.Hgraph.num_cells hg - 1)
              ~lo:100 ~hi:160 ~rng)))

(* Extensions: clustering pre-pass and the clustered driver. *)
let bench_cluster_build =
  Test.make ~name:"ext/cluster-build-c3540"
    (Staged.stage (fun () ->
         let hg = Lazy.force c3540_3000 in
         let map, coarse_nodes =
           Cluster.Matching.compute ~policy:Cluster.Matching.Agglomerate
             ~max_weight:4 ~seed:1 hg
         in
         ignore (Hypergraph.Hgraph.contract hg ~map ~coarse_nodes)))

let bench_fpart_clustered =
  Test.make ~name:"ext/fpart-clustered-c3540-xc3020"
    (Staged.stage (fun () ->
         let config = { Fpart.Config.default with cluster_size = Some 4 } in
         ignore (Fpart.Driver.run ~config (Lazy.force c3540_3000) Device.xc3020)))

(* {2 Sections} *)

type section = { name : string; rows : unit -> Ledger.row list }

let row name value unit_ higher_better = { Ledger.name; value; unit_; higher_better }

let quota =
  match Sys.getenv_opt "FPART_BENCH_QUOTA" with
  | Some s -> (
    match float_of_string_opt s with Some q when q > 0.0 -> q | _ -> 1.0)
  | None -> 1.0

(* One Bechamel test; its row is [fpart/<test>/time_ns], the OLS
   estimate of one run's monotonic-clock time. *)
let bechamel test =
  let rows () =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~stabilize:false () in
    let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
    Hashtbl.fold
      (fun name est acc ->
        match Analyze.OLS.estimates est with
        | Some [ e ] -> row ("fpart/" ^ name ^ "/time_ns") e "ns" false :: acc
        | _ ->
          Printf.eprintf "bench: no estimate for %s\n" name;
          acc)
      (Analyze.all ols Instance.monotonic_clock raw)
      []
  in
  { name = Test.name test; rows }

(* Repeats for the A/B overhead sections.  Min-of-3 systematically
   underestimates whichever side happens to catch a quiet machine —
   the committed snapshot once recorded a -3.4% recorder "overhead" —
   so each side runs FPART_BENCH_REPEATS interleaved samples and each
   row is the median. *)
let overhead_repeats =
  match Sys.getenv_opt "FPART_BENCH_REPEATS" with
  | Some s -> (
    match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 5)
  | None -> 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* An A/B overhead pair: two wall-time rows [<name>/<a>] and
   [<name>/<b>], each the median of FPART_BENCH_REPEATS samples.  One
   (a, b) sample per repeat, alternating sides within each repeat so
   drift (thermal, page cache) hits both equally; consumers compute the
   overhead (b - a) / a from the two rows.  No overhead fraction becomes
   a row, where a near-zero baseline could blow up a relative gate. *)
let ab name (a, time_a) (b, time_b) =
  let rows () =
    let xa = ref [] and xb = ref [] in
    for _ = 1 to overhead_repeats do
      xa := time_a () :: !xa;
      xb := time_b () :: !xb
    done;
    [
      row (name ^ "/" ^ a) (median !xa) "s" false;
      row (name ^ "/" ^ b) (median !xb) "s" false;
    ]
  in
  { name; rows }

(* Wall time of one Driver.run on the table-2 workload. *)
let time_table2 config () =
  let t0 = Unix.gettimeofday () in
  ignore (Fpart.Driver.run ~config (Lazy.force c3540_3000) Device.xc3020);
  Unix.gettimeofday () -. t0

let table2 = time_table2 Fpart.Config.default

(* [f] with the recorder fully enabled into a null sink (span
   bookkeeping, gain-curve accumulation and record assembly, minus I/O)
   and, with [~resource:true], per-span GC/RSS sampling on as well;
   the disabled default is restored outside the timing. *)
let observed ?(resource = false) f () =
  Metrics.set_enabled true;
  Resource.set_enabled resource;
  Fpart_obs.Sink.set Fpart_obs.Sink.null;
  let wall = f () in
  Metrics.set_enabled false;
  Resource.set_enabled false;
  Metrics.reset ();
  Fpart_obs.Recorder.reset ();
  Resource.reset ();
  wall

(* A table-2 run plus what fpart_serve pays per request when a scraper
   polls /metrics once per request (the worst sane polling cadence):
   render the full Prometheus exposition page and write one access-log
   JSON line. *)
let devnull = lazy (open_out "/dev/null")

let table2_exported () =
  let t0 = Unix.gettimeofday () in
  let run_s = table2 () in
  let oc = Lazy.force devnull in
  ignore (Fpart_obs.Expose.render ());
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("type", Json.Str "access");
            ("rid", Json.Str "r000001");
            ("id", Json.Str "bench");
            ("op", Json.Str "partition");
            ("status", Json.Str "ok");
            ("mode", Json.Str "cold");
            ("wall_ms", Json.Float (run_s *. 1000.0));
          ]));
  output_char oc '\n';
  Unix.gettimeofday () -. t0

let selfcheck level = { Fpart.Config.default with selfcheck = level }

let overhead_sections =
  [
    (* Pass-boundary oracle validation; the acceptance bar is <= 10%
       for the cheap level. *)
    ab "selfcheck/overhead-table2"
      ("wall_s_off", time_table2 (selfcheck Fpart_check.Selfcheck.Off))
      ("wall_s_cheap", time_table2 (selfcheck Fpart_check.Selfcheck.Cheap));
    (* Observability disabled (every span_begin is one atomic load) vs
       enabled; CI holds this and the next two to < 5%. *)
    ab "recorder/overhead-table2" ("wall_s_disabled", table2)
      ("wall_s_enabled", observed table2);
    (* The full price of a memory-profiled run. *)
    ab "resource/overhead-table2" ("wall_s_disabled", table2)
      ("wall_s_enabled", observed ~resource:true table2);
    (* The marginal price of the live telemetry plane on an
       already-instrumented run: both sides record, the serve daemon's
       steady state. *)
    ab "expose/overhead-table2"
      ("wall_s_base", observed table2)
      ("wall_s_exported", observed table2_exported);
  ]

(* Refinement-backend comparison (docs/FLOW_REFINEMENT.md): the same
   workload through the paper's Sanchis passes and the stall-driven
   flow hybrid, judged devices first and cut second — a backend that
   saves nets by spending a device is worse.
   One Driver.run per backend per workload: the rows are
   deterministic quality figures, not timings.  The committed rows
   include a workload where the hybrid strictly beats pure Sanchis
   (rent:2000 seed 5), and the per-workload hybrid_gain row lets
   `fpart_inspect regress` catch that win silently evaporating. *)
let refiner_table =
  let rows () =
    (* rent:2000 at seed 5 matches `fpart --generate rent:2000 --seed 5`
       bit for bit (same generator spec, same config seed). *)
    let rent2000 =
      Netlist.Generator.generate
        (Netlist.Generator.rent_spec ~name:"rent" ~cells:2000 ~seed:5)
    in
    List.concat_map
      (fun (workload, hg, device, base) ->
        let run refiner =
          Fpart.Driver.run ~config:{ base with Fpart.Config.refiner } hg device
        in
        let s = run Fpart.Config.Sanchis_refiner
        and h = run Fpart.Config.Hybrid_refiner in
        let r key value unit_ higher_better =
          row (Printf.sprintf "refiner/table2/%s/%s" workload key)
            (float_of_int value) unit_ higher_better
        in
        [
          r "k_sanchis" s.Fpart.Driver.k "devices" false;
          r "k_hybrid" h.Fpart.Driver.k "devices" false;
          r "cut_sanchis" s.Fpart.Driver.cut "nets" false;
          r "cut_hybrid" h.Fpart.Driver.cut "nets" false;
          r "hybrid_gain" (s.Fpart.Driver.cut - h.Fpart.Driver.cut) "nets" true;
        ])
      [
        ("c3540-xc3020", Lazy.force c3540_3000, Device.xc3020, Fpart.Config.default);
        ( "rent2000-v1250",
          rent2000,
          Device.v1250,
          { Fpart.Config.default with seed = 5 } );
      ]
  in
  { name = "refiner/table2"; rows }

let sections =
  List.map bechamel
    [
      bench_table1;
      bench_table2_fpart;
      bench_table2_kwayx;
      bench_table2_fbbmw;
      bench_table3;
      bench_table4;
      bench_table5;
      bench_table6;
      bench_figure1;
      bench_figure2;
      bench_figure3;
      bench_state_move;
      bench_cut_gain;
      bench_bucket;
      bench_fbb;
      bench_cluster_build;
      bench_fpart_clustered;
    ]
  @ (refiner_table :: overhead_sections)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* {2 Run} *)

let snapshot_path = "BENCH_fpart.json"

(* The bench runner does not link the C stubs in bin/, so its OS
   reading combines Unix.times with the stdlib /proc RSS parser — the
   throttled variant, or the overhead bench would measure the parse. *)
let install_resource_source () =
  Resource.set_os_source (fun () ->
      let t = Unix.times () in
      {
        Resource.os_maxrss_kb = Resource.throttled_maxrss_kb ();
        os_utime_s = t.Unix.tms_utime;
        os_stime_s = t.Unix.tms_stime;
      })

let pretty (r : Ledger.row) =
  match r.unit_ with
  | "ns" when r.value >= 1e9 -> Printf.sprintf "%.2f s" (r.value /. 1e9)
  | "ns" when r.value >= 1e6 -> Printf.sprintf "%.2f ms" (r.value /. 1e6)
  | "ns" when r.value >= 1e3 -> Printf.sprintf "%.2f us" (r.value /. 1e3)
  | "ns" -> Printf.sprintf "%.0f ns" r.value
  | "s" -> Printf.sprintf "%.4f s" r.value
  | u -> Printf.sprintf "%g %s" r.value u

let () =
  install_resource_source ();
  let kept =
    match Sys.getenv_opt "FPART_BENCH_ONLY" with
    | None -> sections
    | Some pat -> List.filter (fun s -> contains s.name pat) sections
  in
  if List.is_empty kept then begin
    prerr_endline "bench: FPART_BENCH_ONLY matched no benchmarks";
    exit 1
  end;
  Printf.printf "%-48s %15s\n%s\n%!" "row" "value" (String.make 64 '-');
  let rows =
    List.concat_map
      (fun s ->
        let rows = s.rows () in
        List.iter
          (fun r -> Printf.printf "%-48s %15s\n%!" r.Ledger.name (pretty r))
          rows;
        rows)
      kept
  in
  let entry =
    {
      Ledger.time = Unix.gettimeofday ();
      git_rev = Ledger.git_rev ();
      kind = "bench";
      label = "bench/main";
      jobs = Fpart.Config.default.jobs;
      repeats = overhead_repeats;
      config_digest = None;
      netlist_digest = None;
      rows;
      resource = Some (Resource.summary ());
    }
  in
  let oc = open_out snapshot_path in
  output_string oc (Json.to_string (Ledger.entry_to_json entry));
  output_char oc '\n';
  close_out oc;
  Printf.printf "perf snapshot written to %s\n" snapshot_path;
  match Sys.getenv_opt "FPART_BENCH_LEDGER" with
  | None | Some "" -> ()
  | Some path -> (
    match Ledger.append path entry with
    | Ok () -> Printf.printf "ledger entry appended to %s\n" path
    | Error e ->
      Printf.eprintf "bench: cannot append to ledger %s: %s\n" path e;
      exit 1)
