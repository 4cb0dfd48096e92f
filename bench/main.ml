(* Bechamel benchmarks: one per paper table/figure (timing a
   representative slice of the experiment that regenerates it; the full
   tables are produced by bin/run_experiments.exe), plus
   micro-benchmarks of the hot data structures.

   Run with: dune exec bench/main.exe

   Besides the stdout table, every run writes BENCH_fpart.json — the
   machine-readable perf snapshot that perf PRs diff against.
   Environment knobs (all optional):
     FPART_BENCH_QUOTA    seconds of sampling per benchmark (default 1.0)
     FPART_BENCH_ONLY     substring filter on benchmark names
     FPART_BENCH_REPEATS  interleaved repeats for the overhead sections
                          (default 5; the snapshot reports the median)
     FPART_BENCH_LEDGER   also append one fpart-ledger/1 entry to this
                          file (see fpart_inspect trend/regress)
     FPART_BENCH_SCALE_CELLS
                          comma-separated circuit sizes for the
                          mlevel/table-scale section (default
                          "10000,100000") *)

open Bechamel
open Toolkit

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

(* Extensions: clustering pre-pass, clustered driver, heterogeneous. *)
let bench_cluster_build =
  Test.make ~name:"ext/cluster-build-c3540"
    (Staged.stage (fun () ->
         ignore (Cluster.build (Lazy.force c3540_3000) ~max_cluster_size:4 ~seed:1)))

let bench_fpart_clustered =
  Test.make ~name:"ext/fpart-clustered-c3540-xc3020"
    (Staged.stage (fun () ->
         let config = { Fpart.Config.default with cluster_size = Some 4 } in
         ignore (Fpart.Driver.run ~config (Lazy.force c3540_3000) Device.xc3020)))

let bench_hetero =
  Test.make ~name:"ext/hetero-c3540"
    (Staged.stage (fun () -> ignore (Fpart.Hetero.run (Lazy.force c3540_3000))))

let all_tests =
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
    bench_hetero;
  ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let quota =
  match Sys.getenv_opt "FPART_BENCH_QUOTA" with
  | Some s -> (
    match float_of_string_opt s with Some q when q > 0.0 -> q | _ -> 1.0)
  | None -> 1.0

let parallel_name = "parallel/run-best-table2"
let mlevel_scale_name = "mlevel/table-scale"
let refiner_table_name = "refiner/table2"
let serve_table_name = "serve/latency-table"
let selfcheck_name = "selfcheck/overhead-table2"
let recorder_name = "recorder/overhead-table2"
let resource_name = "resource/overhead-table2"
let expose_name = "expose/overhead-table2"

(* Repeats for the A/B overhead sections.  Min-of-3 systematically
   underestimates whichever side happens to catch a quiet machine —
   the committed snapshot once recorded a -3.4% recorder "overhead" —
   so each side runs FPART_BENCH_REPEATS interleaved samples and the
   snapshot reports the median alongside the repeat count. *)
let overhead_repeats =
  match Sys.getenv_opt "FPART_BENCH_REPEATS" with
  | Some s -> (
    match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 5)
  | None -> 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* One (a, b) sample per repeat, alternating sides within each repeat
   so drift (thermal, page cache) hits both equally. *)
let interleaved_medians ~repeats fa fb =
  let xa = ref [] and xb = ref [] in
  for _ = 1 to repeats do
    xa := fa () :: !xa;
    xb := fb () :: !xb
  done;
  (median !xa, median !xb)

let parallel_wanted =
  match Sys.getenv_opt "FPART_BENCH_ONLY" with
  | None -> true
  | Some pat -> contains parallel_name pat

let selfcheck_wanted =
  match Sys.getenv_opt "FPART_BENCH_ONLY" with
  | None -> true
  | Some pat -> contains selfcheck_name pat

let recorder_wanted =
  match Sys.getenv_opt "FPART_BENCH_ONLY" with
  | None -> true
  | Some pat -> contains recorder_name pat

let resource_wanted =
  match Sys.getenv_opt "FPART_BENCH_ONLY" with
  | None -> true
  | Some pat -> contains resource_name pat

let expose_wanted =
  match Sys.getenv_opt "FPART_BENCH_ONLY" with
  | None -> true
  | Some pat -> contains expose_name pat

let mlevel_scale_wanted =
  match Sys.getenv_opt "FPART_BENCH_ONLY" with
  | None -> true
  | Some pat -> contains mlevel_scale_name pat

let refiner_wanted =
  match Sys.getenv_opt "FPART_BENCH_ONLY" with
  | None -> true
  | Some pat -> contains refiner_table_name pat

let serve_wanted =
  match Sys.getenv_opt "FPART_BENCH_ONLY" with
  | None -> true
  | Some pat -> contains serve_table_name pat

let tests =
  let kept =
    match Sys.getenv_opt "FPART_BENCH_ONLY" with
    | None -> all_tests
    | Some pat -> List.filter (fun t -> contains (Test.name t) pat) all_tests
  in
  if
    kept = [] && not parallel_wanted && not selfcheck_wanted
    && not recorder_wanted && not resource_wanted && not expose_wanted
    && not mlevel_scale_wanted && not refiner_wanted && not serve_wanted
  then begin
    prerr_endline "bench: FPART_BENCH_ONLY matched no benchmarks";
    exit 1
  end;
  match kept with
  | [] -> None
  | kept -> Some (Test.make_grouped ~name:"fpart" kept)

module Json = Fpart_obs.Json

(* Parallel speedup: wall time of an 8-start Driver.run_best at jobs=1
   vs jobs=FPART_BENCH_JOBS (default: recommended_domain_count).  Not a
   bechamel benchmark — one timed run each is enough for a wall-clock
   ratio, and bechamel's per-run allocation probes would fight the
   domain pool.  Reported as its own "parallel" object in the snapshot
   (the "benchmarks" list keeps its schema). *)

let bench_jobs =
  match Sys.getenv_opt "FPART_BENCH_JOBS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let measure_parallel () =
  if not parallel_wanted then None
  else begin
    let hg = Lazy.force c3540_3000 in
    let time jobs =
      let t0 = Unix.gettimeofday () in
      let r = Fpart.Driver.run_best ~jobs ~runs:8 hg Device.xc3020 in
      (Unix.gettimeofday () -. t0, r)
    in
    let w1, r1 = time 1 in
    let wn, rn = time bench_jobs in
    if rn.Fpart.Driver.assignment <> r1.Fpart.Driver.assignment then begin
      prerr_endline "bench: parallel run_best diverged from sequential";
      exit 1
    end;
    Some (w1, wn)
  end

(* Scale comparison: flat FPART vs the multilevel V-cycle engine on
   Rent-rule circuits at 10^4 and 10^5 cells (virtual devices sized to
   keep k ≈ 9, matching the paper's usual arity).  One timed run per
   engine per size — these are multi-second wall-clock measurements, so
   bechamel's per-run probes would only add noise.  Sizes come from
   FPART_BENCH_SCALE_CELLS (comma-separated; default "10000,100000" —
   trim it for a quick machine).  Cut and feasibility ride along: the
   speedup claim is only meaningful while mlevel stays in the flat
   engine's quality class. *)

type mlevel_row = {
  ms_cells : int;
  ms_device : string;
  ms_wall_flat : float;
  ms_wall_ml : float;
  ms_cut_flat : int;
  ms_cut_ml : int;
  ms_k_flat : int;
  ms_k_ml : int;
  ms_feas_flat : bool;
  ms_feas_ml : bool;
  ms_levels : int;
  ms_ratio : float;
}

let mlevel_scale_cells =
  let spec =
    match Sys.getenv_opt "FPART_BENCH_SCALE_CELLS" with
    | Some s when s <> "" -> s
    | _ -> "10000,100000"
  in
  List.filter_map
    (fun s ->
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 64 -> Some n
      | _ -> None)
    (String.split_on_char ',' spec)

let measure_mlevel_scale () =
  if not mlevel_scale_wanted then None
  else
    Some
      (List.map
         (fun cells ->
           let device = if cells <= 30_000 then Device.v1250 else Device.v12500 in
           let hg =
             Netlist.Generator.generate
               (Netlist.Generator.rent_spec ~name:"bench" ~cells ~seed:1)
           in
           let t0 = Unix.gettimeofday () in
           let flat = Fpart.Driver.run hg device in
           let wall_flat = Unix.gettimeofday () -. t0 in
           let t0 = Unix.gettimeofday () in
           let ml = Mlevel.Engine.run hg device in
           let wall_ml = Unix.gettimeofday () -. t0 in
           {
             ms_cells = cells;
             ms_device = device.Device.dev_name;
             ms_wall_flat = wall_flat;
             ms_wall_ml = wall_ml;
             ms_cut_flat = flat.Fpart.Driver.cut;
             ms_cut_ml = ml.Mlevel.Engine.res.Fpart.Driver.cut;
             ms_k_flat = flat.Fpart.Driver.k;
             ms_k_ml = ml.Mlevel.Engine.res.Fpart.Driver.k;
             ms_feas_flat = flat.Fpart.Driver.feasible;
             ms_feas_ml = ml.Mlevel.Engine.res.Fpart.Driver.feasible;
             ms_levels = ml.Mlevel.Engine.levels;
             ms_ratio = ml.Mlevel.Engine.coarsen_ratio;
           })
         mlevel_scale_cells)

(* Refinement-backend comparison (docs/FLOW_REFINEMENT.md): the same
   workload through the paper's Sanchis passes, the corridor max-flow
   refiner and the stall-driven hybrid.  One timed Driver.run per
   backend per workload — multi-second wall-clock measurements, so
   bechamel's probes would only add noise.  Cut quality is the point:
   the committed rows include a workload where the hybrid strictly
   beats pure Sanchis (rent:2000 seed 5), and the per-workload
   hybrid-gain ledger row lets `fpart_inspect regress` catch that win
   silently evaporating. *)

type refiner_run = {
  rr_wall : float;
  rr_cut : int;
  rr_k : int;
  rr_feas : bool;
}

type refiner_row = {
  rf_workload : string;
  rf_device : string;
  rf_sanchis : refiner_run;
  rf_flow : refiner_run;
  rf_hybrid : refiner_run;
}

let measure_refiner () =
  if not refiner_wanted then None
  else begin
    (* rent:2000 at seed 5 matches `fpart --generate rent:2000 --seed 5`
       bit for bit (same generator spec, same config seed). *)
    let rent2000 =
      Netlist.Generator.generate
        (Netlist.Generator.rent_spec ~name:"rent" ~cells:2000 ~seed:5)
    in
    let workloads =
      [
        ("c3540-xc3020", Lazy.force c3540_3000, Device.xc3020, Fpart.Config.default);
        ( "rent2000-v1250",
          rent2000,
          Device.v1250,
          { Fpart.Config.default with seed = 5 } );
      ]
    in
    Some
      (List.map
         (fun (wname, hg, device, base) ->
           let one refiner =
             let config = { base with Fpart.Config.refiner } in
             let t0 = Unix.gettimeofday () in
             let r = Fpart.Driver.run ~config hg device in
             {
               rr_wall = Unix.gettimeofday () -. t0;
               rr_cut = r.Fpart.Driver.cut;
               rr_k = r.Fpart.Driver.k;
               rr_feas = r.Fpart.Driver.feasible;
             }
           in
           {
             rf_workload = wname;
             rf_device = device.Device.dev_name;
             rf_sanchis = one Fpart.Config.Sanchis_refiner;
             rf_flow = one Fpart.Config.Flow_refiner;
             rf_hybrid = one Fpart.Config.Hybrid_refiner;
           })
         workloads)
  end

(* Self-check overhead: wall time of a Driver.run on the table-2
   workload with selfcheck off vs cheap (pass-boundary oracle
   validation).  Median of FPART_BENCH_REPEATS interleaved runs each,
   so transient noise cannot inflate either side.  The acceptance bar
   is <= 10% overhead for the cheap level. *)

let measure_selfcheck () =
  if not selfcheck_wanted then None
  else begin
    let hg = Lazy.force c3540_3000 in
    let time level () =
      let config = { Fpart.Config.default with selfcheck = level } in
      let t0 = Unix.gettimeofday () in
      ignore (Fpart.Driver.run ~config hg Device.xc3020);
      Unix.gettimeofday () -. t0
    in
    Some
      (interleaved_medians ~repeats:overhead_repeats
         (time Fpart_check.Selfcheck.Off)
         (time Fpart_check.Selfcheck.Cheap))
  end

(* Recorder overhead: wall time of a Driver.run on the table-2 workload
   with observability disabled (the default — every span_begin is one
   atomic load) vs fully enabled into a null sink (span bookkeeping,
   gain-curve accumulation and record assembly, minus I/O).  Median of
   FPART_BENCH_REPEATS interleaved runs each.  The acceptance bar is
   <= 5%: CI asserts [overhead < 0.05] where
   overhead = (enabled - disabled) / disabled. *)

let measure_recorder () =
  if not recorder_wanted then None
  else begin
    let module Metrics = Fpart_obs.Metrics in
    let module Sink = Fpart_obs.Sink in
    let hg = Lazy.force c3540_3000 in
    let time enabled () =
      if enabled then begin
        Metrics.set_enabled true;
        Sink.set Sink.null
      end;
      let t0 = Unix.gettimeofday () in
      ignore (Fpart.Driver.run hg Device.xc3020);
      let wall = Unix.gettimeofday () -. t0 in
      if enabled then begin
        Metrics.set_enabled false;
        Metrics.reset ();
        Fpart_obs.Recorder.reset ()
      end;
      wall
    in
    Some (interleaved_medians ~repeats:overhead_repeats (time false) (time true))
  end

(* Resource-telemetry overhead: like the recorder measurement but with
   per-span GC/RSS sampling on as well (recorder + Resource into a null
   sink) — the full price of a memory-profiled run.  Held to the same
   5% bar as the recorder. *)

let measure_resource () =
  if not resource_wanted then None
  else begin
    let module Metrics = Fpart_obs.Metrics in
    let module Resource = Fpart_obs.Resource in
    let module Sink = Fpart_obs.Sink in
    let hg = Lazy.force c3540_3000 in
    let time enabled () =
      if enabled then begin
        Metrics.set_enabled true;
        Resource.set_enabled true;
        Sink.set Sink.null
      end;
      let t0 = Unix.gettimeofday () in
      ignore (Fpart.Driver.run hg Device.xc3020);
      let wall = Unix.gettimeofday () -. t0 in
      if enabled then begin
        Metrics.set_enabled false;
        Resource.set_enabled false;
        Metrics.reset ();
        Fpart_obs.Recorder.reset ();
        Resource.reset ()
      end;
      wall
    in
    Some (interleaved_medians ~repeats:overhead_repeats (time false) (time true))
  end

(* Exporter overhead: the marginal price of the live telemetry plane on
   an already-instrumented run.  Both sides run with the recorder
   enabled into a null sink — the serve daemon's steady state — and the
   exported side additionally renders the full Prometheus exposition
   page and writes one access-log JSON line per run, i.e. what
   fpart_serve pays when a scraper polls /metrics once per request (the
   worst sane polling cadence).  Held to the same bar as the recorder:
   CI asserts overhead < 0.05. *)

let measure_expose () =
  if not expose_wanted then None
  else begin
    let module Metrics = Fpart_obs.Metrics in
    let module Sink = Fpart_obs.Sink in
    let hg = Lazy.force c3540_3000 in
    let devnull = open_out "/dev/null" in
    let access_line wall_s =
      Json.Obj
        [
          ("type", Json.Str "access");
          ("rid", Json.Str "r000001");
          ("id", Json.Str "bench");
          ("op", Json.Str "partition");
          ("status", Json.Str "ok");
          ("mode", Json.Str "cold");
          ("wall_ms", Json.Float (wall_s *. 1000.0));
        ]
    in
    let time exported () =
      Metrics.set_enabled true;
      Sink.set Sink.null;
      let t0 = Unix.gettimeofday () in
      ignore (Fpart.Driver.run hg Device.xc3020);
      if exported then begin
        ignore (Fpart_obs.Expose.render ());
        output_string devnull
          (Json.to_string (access_line (Unix.gettimeofday () -. t0)));
        output_char devnull '\n'
      end;
      let wall = Unix.gettimeofday () -. t0 in
      Metrics.set_enabled false;
      Metrics.reset ();
      Fpart_obs.Recorder.reset ();
      wall
    in
    let result =
      interleaved_medians ~repeats:overhead_repeats (time false) (time true)
    in
    close_out devnull;
    Some result
  end

(* Partition-service latency table.  Two measurements through the real
   engine (same code path as fpart_serve):

   - throughput: one batch of distinct single-start workloads answered
     at jobs=1 and jobs=FPART_BENCH_JOBS — requests/sec of the batch
     fan-out.
   - cold vs warm: for each repeat, a cold request on a fresh circuit,
     then an ECO request (small netlist delta + the cold result's
     partfile) on the same circuit.  The engine's own
     serve.latency.{cold,warm}_ms histograms supply the p50/p95 the
     serve-smoke CI job and the ledger trend watch. *)

type serve_result = {
  sv_requests : int;
  sv_wall_s_jobs1 : float;
  sv_wall_s_jobsn : float;
  sv_cold_p50_ms : float;
  sv_cold_p95_ms : float;
  sv_warm_p50_ms : float;
  sv_warm_p95_ms : float;
}

let measure_serve () =
  if not serve_wanted then None
  else begin
    let module Metrics = Fpart_obs.Metrics in
    Metrics.set_enabled true;
    let request ?eco ~id ~spec ~gen_seed () =
      {
        Serve.Protocol.id;
        netlist = Serve.Protocol.Generate { spec; gen_seed };
        device = "XC3042";
        delta = None;
        runs = 1;
        seed = None;
        max_passes = None;
        refiner = None;
        timeout_s = None;
        eco;
        inject = None;
      }
    in
    let expect_ok rs =
      List.iter
        (fun r ->
          match r.Serve.Protocol.outcome with
          | Ok _ -> ()
          | Error e ->
            Printf.eprintf "bench: serve request %s failed: %s\n"
              r.Serve.Protocol.resp_id e;
            exit 1)
        rs
    in
    (* throughput: 12 distinct workloads per batch, fresh engine per
       jobs setting so the cache cannot carry answers across sides *)
    let batch_requests =
      List.init 12 (fun i ->
          request ~id:(Printf.sprintf "t%d" i) ~spec:"200x20" ~gen_seed:(100 + i) ())
    in
    let timed_batch jobs () =
      let engine = Serve.Engine.create ~jobs () in
      let t0 = Unix.gettimeofday () in
      let rs = Serve.Engine.handle_requests engine batch_requests in
      let wall = Unix.gettimeofday () -. t0 in
      Serve.Engine.shutdown engine;
      expect_ok rs;
      wall
    in
    let wall1, walln =
      interleaved_medians ~repeats:overhead_repeats (timed_batch 1)
        (timed_batch bench_jobs)
    in
    (* cold vs warm on one engine; a fresh circuit per repeat keeps the
       cache out of both sides *)
    let engine = Serve.Engine.create ~jobs:1 () in
    let eco_spec = "360x36" in
    let cells = 360 and pads = 36 in
    for i = 0 to overhead_repeats - 1 do
      let gen_seed = 9000 + i in
      let cold =
        match
          Serve.Engine.handle_requests engine
            [ request ~id:(Printf.sprintf "c%d" i) ~spec:eco_spec ~gen_seed () ]
        with
        | [ { Serve.Protocol.outcome = Ok s; _ } ] -> s
        | [ { Serve.Protocol.outcome = Error e; _ } ] ->
          Printf.eprintf "bench: serve cold request failed: %s\n" e;
          exit 1
        | _ ->
          prerr_endline "bench: serve cold request lost";
          exit 1
      in
      (* the engine generated ~name:"gen" with this spec/seed; rebuild
         it to learn real node names for the delta *)
      let hg =
        Netlist.Generator.generate
          (Netlist.Generator.default_spec ~name:"gen" ~cells ~pads
             ~seed:gen_seed)
      in
      let module Hg = Hypergraph.Hgraph in
      let cell_names =
        let acc = ref [] in
        Hg.iter_nodes
          (fun v -> if not (Hg.is_pad hg v) then acc := Hg.name hg v :: !acc)
          hg;
        List.rev !acc
      in
      let d =
        {
          Netlist.Delta.empty with
          Netlist.Delta.remove_nodes = [ List.nth cell_names 0 ];
          add_cells =
            [ { Netlist.Delta.cell_name = "bench_eco"; size = 1; flops = 0 } ];
          add_nets =
            [
              {
                Netlist.Delta.net_name = "bench_eco_net";
                pins = [ "bench_eco"; List.nth cell_names 2 ];
              };
            ];
        }
      in
      let eco =
        {
          Serve.Protocol.eco_delta =
            Serve.Protocol.Src_text (Netlist.Delta.to_string d);
          eco_partfile = Serve.Protocol.Src_text cold.Serve.Protocol.partition;
        }
      in
      match
        Serve.Engine.handle_requests engine
          [ request ~eco ~id:(Printf.sprintf "w%d" i) ~spec:eco_spec ~gen_seed () ]
      with
      | [ { Serve.Protocol.outcome = Ok _; _ } ] -> ()
      | [ { Serve.Protocol.outcome = Error e; _ } ] ->
        Printf.eprintf "bench: serve eco request failed: %s\n" e;
        exit 1
      | _ ->
        prerr_endline "bench: serve eco request lost";
        exit 1
    done;
    Serve.Engine.shutdown engine;
    let q name p =
      let h = Metrics.histogram name in
      if Metrics.count h = 0 then 0.0 else Metrics.quantile h p
    in
    let result =
      {
        sv_requests = List.length batch_requests;
        sv_wall_s_jobs1 = wall1;
        sv_wall_s_jobsn = walln;
        sv_cold_p50_ms = q "serve.latency.cold_ms" 0.5;
        sv_cold_p95_ms = q "serve.latency.cold_ms" 0.95;
        sv_warm_p50_ms = q "serve.latency.warm_ms" 0.5;
        sv_warm_p95_ms = q "serve.latency.warm_ms" 0.95;
      }
    in
    Metrics.set_enabled false;
    Metrics.reset ();
    Fpart_obs.Recorder.reset ();
    Some result
  end

let snapshot_path = "BENCH_fpart.json"

let overhead_fields ~name (off, on) =
  [
    ("name", Json.Str name);
    ("repeats", Json.Int overhead_repeats);
    ( "overhead",
      Json.Float (if off > 0.0 then (on -. off) /. off else 0.0) );
  ]

let mlevel_row_json r =
  Json.Obj
    [
      ("cells", Json.Int r.ms_cells);
      ("device", Json.Str r.ms_device);
      ("wall_s_flat", Json.Float r.ms_wall_flat);
      ("wall_s_mlevel", Json.Float r.ms_wall_ml);
      ( "speedup",
        Json.Float (if r.ms_wall_ml > 0.0 then r.ms_wall_flat /. r.ms_wall_ml else 0.0) );
      ("cut_flat", Json.Int r.ms_cut_flat);
      ("cut_mlevel", Json.Int r.ms_cut_ml);
      ("k_flat", Json.Int r.ms_k_flat);
      ("k_mlevel", Json.Int r.ms_k_ml);
      ("feasible_flat", Json.Bool r.ms_feas_flat);
      ("feasible_mlevel", Json.Bool r.ms_feas_ml);
      ("levels", Json.Int r.ms_levels);
      ("coarsen_ratio", Json.Float r.ms_ratio);
    ]

let refiner_run_json rr =
  Json.Obj
    [
      ("wall_s", Json.Float rr.rr_wall);
      ("cut", Json.Int rr.rr_cut);
      ("k", Json.Int rr.rr_k);
      ("feasible", Json.Bool rr.rr_feas);
    ]

let refiner_row_json row =
  Json.Obj
    [
      ("workload", Json.Str row.rf_workload);
      ("device", Json.Str row.rf_device);
      ("sanchis", refiner_run_json row.rf_sanchis);
      ("flow", refiner_run_json row.rf_flow);
      ("hybrid", refiner_run_json row.rf_hybrid);
      ( "hybrid_gain",
        Json.Int (row.rf_sanchis.rr_cut - row.rf_hybrid.rr_cut) );
    ]

let serve_field_json sv =
  let rps wall =
    if wall > 0.0 then float_of_int sv.sv_requests /. wall else 0.0
  in
  Json.Obj
    [
      ("name", Json.Str serve_table_name);
      ("requests", Json.Int sv.sv_requests);
      ("wall_s_jobs1", Json.Float sv.sv_wall_s_jobs1);
      ("wall_s_jobsN", Json.Float sv.sv_wall_s_jobsn);
      ("requests_per_s_jobs1", Json.Float (rps sv.sv_wall_s_jobs1));
      ("requests_per_s_jobsN", Json.Float (rps sv.sv_wall_s_jobsn));
      ("cold_p50_ms", Json.Float sv.sv_cold_p50_ms);
      ("cold_p95_ms", Json.Float sv.sv_cold_p95_ms);
      ("warm_p50_ms", Json.Float sv.sv_warm_p50_ms);
      ("warm_p95_ms", Json.Float sv.sv_warm_p95_ms);
      ( "warm_speedup",
        Json.Float
          (if sv.sv_warm_p50_ms > 0.0 then sv.sv_cold_p50_ms /. sv.sv_warm_p50_ms
           else 0.0) );
    ]

let write_snapshot rows parallel selfcheck recorder resource expose
    mlevel_scale refiner serve =
  let benchmarks =
    List.map
      (fun (name, est) ->
        Json.Obj
          [
            ("name", Json.Str name);
            ( "time_ns",
              match est with Some e -> Json.Float e | None -> Json.Null );
          ])
      rows
  in
  let parallel_field =
    match parallel with
    | None -> Json.Null
    | Some (w1, wn) ->
      Json.Obj
        [
          ("name", Json.Str parallel_name);
          ("wall_s_jobs1", Json.Float w1);
          ("wall_s_jobsN", Json.Float wn);
          ("speedup", Json.Float (if wn > 0.0 then w1 /. wn else 0.0));
        ]
  in
  let selfcheck_field =
    match selfcheck with
    | None -> Json.Null
    | Some (off, cheap) ->
      Json.Obj
        (overhead_fields ~name:selfcheck_name (off, cheap)
        @ [
            ("wall_s_off", Json.Float off);
            ("wall_s_cheap", Json.Float cheap);
          ])
  in
  let recorder_field =
    match recorder with
    | None -> Json.Null
    | Some (off, on) ->
      Json.Obj
        (overhead_fields ~name:recorder_name (off, on)
        @ [
            ("wall_s_disabled", Json.Float off);
            ("wall_s_enabled", Json.Float on);
          ])
  in
  let resource_field =
    match resource with
    | None -> Json.Null
    | Some (off, on) ->
      Json.Obj
        (overhead_fields ~name:resource_name (off, on)
        @ [
            ("wall_s_disabled", Json.Float off);
            ("wall_s_enabled", Json.Float on);
          ])
  in
  let expose_field =
    match expose with
    | None -> Json.Null
    | Some (off, on) ->
      Json.Obj
        (overhead_fields ~name:expose_name (off, on)
        @ [
            ("wall_s_base", Json.Float off);
            ("wall_s_exported", Json.Float on);
          ])
  in
  let mlevel_field =
    match mlevel_scale with
    | None -> Json.Null
    | Some rows ->
      Json.Obj
        [
          ("name", Json.Str mlevel_scale_name);
          ("rows", Json.List (List.map mlevel_row_json rows));
        ]
  in
  let refiner_field =
    match refiner with
    | None -> Json.Null
    | Some rows ->
      Json.Obj
        [
          ("name", Json.Str refiner_table_name);
          ("rows", Json.List (List.map refiner_row_json rows));
        ]
  in
  let json =
    Json.Obj
      [
        ("schema", Json.Str "fpart-bench/1");
        ("quota_s", Json.Float quota);
        ("jobs", Json.Int bench_jobs);
        ("unix_time", Json.Float (Unix.gettimeofday ()));
        ("benchmarks", Json.List benchmarks);
        ("parallel", parallel_field);
        ("selfcheck", selfcheck_field);
        ("recorder", recorder_field);
        ("resource", resource_field);
        ("expose", expose_field);
        ("mlevel", mlevel_field);
        ("refiner", refiner_field);
        ( "serve",
          match serve with None -> Json.Null | Some sv -> serve_field_json sv );
      ]
  in
  let oc = open_out snapshot_path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

(* {2 Run-history ledger}

   With FPART_BENCH_LEDGER=FILE set, every bench run also appends one
   fpart-ledger/1 entry carrying the measured values as rows, so
   [fpart_inspect trend]/[regress] can compute per-benchmark
   trajectories across runs — the accumulating counterpart of the
   overwritable snapshot.  Only well-behaved absolute quantities (times,
   throughputs, speedups) become rows; overhead fractions stay in the
   snapshot, where a near-zero baseline cannot blow up a relative
   gate. *)

module Ledger = Fpart_obs.Ledger

(* The bench runner does not link the C stubs in bin/, so its OS
   reading combines Unix.times with the stdlib /proc RSS parser — the
   throttled variant, or the overhead bench would measure the parse. *)
let install_resource_source () =
  Fpart_obs.Resource.set_os_source (fun () ->
      let t = Unix.times () in
      {
        Fpart_obs.Resource.os_maxrss_kb =
          Fpart_obs.Resource.throttled_maxrss_kb ();
        os_utime_s = t.Unix.tms_utime;
        os_stime_s = t.Unix.tms_stime;
      })

let ledger_rows rows parallel selfcheck recorder resource expose mlevel_scale
    refiner serve =
  let r name value unit_ higher_better =
    { Ledger.name; value; unit_; higher_better }
  in
  let opt f = function None -> [] | Some v -> f v in
  List.filter_map
    (fun (name, est) ->
      Option.map (fun e -> r (name ^ "/time_ns") e "ns" false) est)
    rows
  @ opt
      (fun (w1, wn) ->
        [ r (parallel_name ^ "/speedup") (if wn > 0.0 then w1 /. wn else 0.0) "x" true ])
      parallel
  @ opt
      (fun (off, cheap) ->
        [
          r (selfcheck_name ^ "/wall_s_off") off "s" false;
          r (selfcheck_name ^ "/wall_s_cheap") cheap "s" false;
        ])
      selfcheck
  @ opt
      (fun (off, on) ->
        [
          r (recorder_name ^ "/wall_s_disabled") off "s" false;
          r (recorder_name ^ "/wall_s_enabled") on "s" false;
        ])
      recorder
  @ opt
      (fun (off, on) ->
        [
          r (resource_name ^ "/wall_s_disabled") off "s" false;
          r (resource_name ^ "/wall_s_enabled") on "s" false;
        ])
      resource
  @ opt
      (fun (off, on) ->
        [
          r (expose_name ^ "/wall_s_base") off "s" false;
          r (expose_name ^ "/wall_s_exported") on "s" false;
        ])
      expose
  @ opt
      (fun scale_rows ->
        List.concat_map
          (fun row ->
            let p =
              Printf.sprintf "%s/%dcells" mlevel_scale_name row.ms_cells
            in
            [
              r (p ^ "/wall_s_mlevel") row.ms_wall_ml "s" false;
              r
                (p ^ "/speedup")
                (if row.ms_wall_ml > 0.0 then row.ms_wall_flat /. row.ms_wall_ml
                 else 0.0)
                "x" true;
              r (p ^ "/cut_mlevel") (float_of_int row.ms_cut_ml) "nets" false;
            ])
          scale_rows)
      mlevel_scale
  @ opt
      (fun refiner_rows ->
        List.concat_map
          (fun row ->
            let p =
              Printf.sprintf "%s/%s" refiner_table_name row.rf_workload
            in
            [
              r (p ^ "/cut_sanchis") (float_of_int row.rf_sanchis.rr_cut) "nets" false;
              r (p ^ "/cut_flow") (float_of_int row.rf_flow.rr_cut) "nets" false;
              r (p ^ "/cut_hybrid") (float_of_int row.rf_hybrid.rr_cut) "nets" false;
              r
                (p ^ "/hybrid_gain")
                (float_of_int (row.rf_sanchis.rr_cut - row.rf_hybrid.rr_cut))
                "nets" true;
              r (p ^ "/wall_s_flow") row.rf_flow.rr_wall "s" false;
              r (p ^ "/wall_s_hybrid") row.rf_hybrid.rr_wall "s" false;
            ])
          refiner_rows)
      refiner
  @ opt
      (fun sv ->
        let rps wall =
          if wall > 0.0 then float_of_int sv.sv_requests /. wall else 0.0
        in
        let p = serve_table_name in
        [
          r (p ^ "/requests-per-s-jobs1") (rps sv.sv_wall_s_jobs1) "req/s" true;
          r (p ^ "/requests-per-s-jobsN") (rps sv.sv_wall_s_jobsn) "req/s" true;
          r (p ^ "/cold-p50-ms") sv.sv_cold_p50_ms "ms" false;
          r (p ^ "/warm-p50-ms") sv.sv_warm_p50_ms "ms" false;
          r
            (p ^ "/warm-speedup")
            (if sv.sv_warm_p50_ms > 0.0 then
               sv.sv_cold_p50_ms /. sv.sv_warm_p50_ms
             else 0.0)
            "x" true;
        ])
      serve

let append_ledger path entry_rows =
  let entry =
    {
      Ledger.time = Unix.gettimeofday ();
      git_rev = Ledger.git_rev ();
      kind = "bench";
      label = "bench/main";
      jobs = bench_jobs;
      repeats = overhead_repeats;
      config_digest = None;
      netlist_digest = None;
      rows = entry_rows;
      resource = Some (Fpart_obs.Resource.summary ());
    }
  in
  match Ledger.append path entry with
  | Ok () -> Printf.printf "ledger entry appended to %s\n" path
  | Error e -> Printf.eprintf "bench: cannot append to ledger %s: %s\n" path e

let run_bechamel tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name ols ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Some est
            | _ -> None
          in
          rows := (name, est) :: !rows)
        tbl)
    merged;
  List.sort compare !rows

let () =
  install_resource_source ();
  let rows = match tests with None -> [] | Some tests -> run_bechamel tests in
  Printf.printf "%-42s %15s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 58 '-');
  List.iter
    (fun (name, est) ->
      let pretty =
        match est with
        | None -> "n/a"
        | Some est ->
          if est >= 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
          else if est >= 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est >= 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
      in
      Printf.printf "%-42s %15s\n" name pretty)
    rows;
  let parallel = measure_parallel () in
  (match parallel with
  | None -> ()
  | Some (w1, wn) ->
    Printf.printf "%-42s %15s\n" parallel_name
      (Printf.sprintf "%.2fx (jobs=%d)" (if wn > 0.0 then w1 /. wn else 0.0)
         bench_jobs));
  let selfcheck = measure_selfcheck () in
  (match selfcheck with
  | None -> ()
  | Some (off, cheap) ->
    Printf.printf "%-42s %15s\n" selfcheck_name
      (Printf.sprintf "%+.1f%% (cheap)"
         (if off > 0.0 then 100.0 *. (cheap -. off) /. off else 0.0)));
  let recorder = measure_recorder () in
  (match recorder with
  | None -> ()
  | Some (off, on) ->
    Printf.printf "%-42s %15s\n" recorder_name
      (Printf.sprintf "%+.1f%% (enabled)"
         (if off > 0.0 then 100.0 *. (on -. off) /. off else 0.0)));
  let resource = measure_resource () in
  (match resource with
  | None -> ()
  | Some (off, on) ->
    Printf.printf "%-42s %15s\n" resource_name
      (Printf.sprintf "%+.1f%% (enabled)"
         (if off > 0.0 then 100.0 *. (on -. off) /. off else 0.0)));
  let expose = measure_expose () in
  (match expose with
  | None -> ()
  | Some (off, on) ->
    Printf.printf "%-42s %15s\n" expose_name
      (Printf.sprintf "%+.1f%% (exported)"
         (if off > 0.0 then 100.0 *. (on -. off) /. off else 0.0)));
  let mlevel_scale = measure_mlevel_scale () in
  (match mlevel_scale with
  | None -> ()
  | Some scale_rows ->
    List.iter
      (fun r ->
        Printf.printf "%-42s %15s\n"
          (Printf.sprintf "%s/%dcells" mlevel_scale_name r.ms_cells)
          (Printf.sprintf "%.2fx (cut %d vs %d)"
             (if r.ms_wall_ml > 0.0 then r.ms_wall_flat /. r.ms_wall_ml else 0.0)
             r.ms_cut_ml r.ms_cut_flat))
      scale_rows);
  let refiner = measure_refiner () in
  (match refiner with
  | None -> ()
  | Some refiner_rows ->
    List.iter
      (fun row ->
        Printf.printf "%-42s %15s\n"
          (Printf.sprintf "%s/%s" refiner_table_name row.rf_workload)
          (Printf.sprintf "cut %d/%d/%d s/f/h" row.rf_sanchis.rr_cut
             row.rf_flow.rr_cut row.rf_hybrid.rr_cut))
      refiner_rows);
  let serve = measure_serve () in
  (match serve with
  | None -> ()
  | Some sv ->
    Printf.printf "%-42s %15s\n" serve_table_name
      (Printf.sprintf "cold %.1fms warm %.1fms p50" sv.sv_cold_p50_ms
         sv.sv_warm_p50_ms));
  write_snapshot rows parallel selfcheck recorder resource expose mlevel_scale
    refiner serve;
  Printf.printf "perf snapshot written to %s\n" snapshot_path;
  match Sys.getenv_opt "FPART_BENCH_LEDGER" with
  | None | Some "" -> ()
  | Some path ->
    append_ledger path
      (ledger_rows rows parallel selfcheck recorder resource expose mlevel_scale
         refiner serve)
