module Hg = Hypergraph.Hgraph
module Mcnc = Netlist.Mcnc

type algo = Fpart_algo | Kwayx_algo | Fbb_mw_algo

type run = { k : int; feasible : bool; cut : int; cpu_seconds : float }

type t = {
  memo : (string * string * algo, run) Hashtbl.t;
  graphs : (string * Device.family, Hg.t) Hashtbl.t;
  progress : string -> unit;
  jobs : int;
  config : Fpart.Config.t;
  mutable pool : Fpart_exec.Pool.t option;
}

let create ?(progress = fun _ -> ()) ?(jobs = 1)
    ?(config = Fpart.Config.default) () =
  if jobs < 1 then invalid_arg "Experiments.create: jobs < 1";
  {
    memo = Hashtbl.create 64;
    graphs = Hashtbl.create 16;
    progress;
    jobs;
    config;
    pool = None;
  }

(* The pool is created lazily on the first table that can use it, so a
   [jobs = 1] table run never spawns a domain. *)
let pool_of t =
  if t.jobs <= 1 then None
  else
    match t.pool with
    | Some _ as p -> p
    | None ->
      let p = Fpart_exec.Pool.create ~jobs:t.jobs in
      t.pool <- Some p;
      Some p

let shutdown t =
  match t.pool with
  | None -> ()
  | Some p ->
    t.pool <- None;
    Fpart_exec.Pool.shutdown p

let algo_name = function
  | Fpart_algo -> "FPART"
  | Kwayx_algo -> "k-way.x"
  | Fbb_mw_algo -> "FBB-MW"

let graph_of t circuit family =
  let key = (circuit.Mcnc.circuit_name, family) in
  match Hashtbl.find_opt t.graphs key with
  | Some g -> g
  | None ->
    let g = Mcnc.surrogate circuit family in
    Hashtbl.add t.graphs key g;
    g

(* The pure compute step: no memo, no graph cache, no progress — safe to
   run on a worker domain. *)
let compute config algo hg device =
  match algo with
      | Fpart_algo ->
        let r = Solve.run config hg device in
        {
          k = r.Fpart.Driver.k;
          feasible = r.Fpart.Driver.feasible;
          cut = r.Fpart.Driver.cut;
          cpu_seconds = r.Fpart.Driver.cpu_seconds;
        }
      | Kwayx_algo ->
        let r = Fpart.Kwayx.run hg device in
        {
          k = r.Fpart.Kwayx.k;
          feasible = r.Fpart.Kwayx.feasible;
          cut = r.Fpart.Kwayx.cut;
          cpu_seconds = r.Fpart.Kwayx.cpu_seconds;
        }
      | Fbb_mw_algo ->
        let t0 = Sys.time () in
        let cfg =
          { Flow.Fbb_mw.default_config with delta = Device.paper_delta device }
        in
        let r = Flow.Fbb_mw.partition hg device cfg in
        {
          k = r.Flow.Fbb_mw.k;
          feasible = r.Flow.Fbb_mw.feasible;
          cut = r.Flow.Fbb_mw.cut;
          cpu_seconds = Sys.time () -. t0;
        }

let memo_key circuit device algo =
  (circuit.Mcnc.circuit_name, device.Device.dev_name, algo)

let run_one t algo circuit device =
  let key = memo_key circuit device algo in
  match Hashtbl.find_opt t.memo key with
  | Some r -> r
  | None ->
    t.progress
      (Printf.sprintf "running %s on %s / %s ..." (algo_name algo)
         circuit.Mcnc.circuit_name device.Device.dev_name);
    let hg = graph_of t circuit device.Device.family in
    let r = compute t.config algo hg device in
    Hashtbl.add t.memo key r;
    r

(* [prewarm t work] fills the memo for every not-yet-run (algo, circuit,
   device) triple of [work], fanning the compute steps out on the pool.
   Graphs are materialised and the memo is written on the caller only —
   the worker closures are pure — so the tables below behave exactly as
   in the sequential case, just against a warm memo.  No-op when
   [jobs = 1]. *)
let prewarm t work =
  match pool_of t with
  | None -> ()
  | Some pool ->
    let seen = Hashtbl.create 32 in
    let fresh =
      List.filter
        (fun (algo, c, d) ->
          let key = memo_key c d algo in
          if Hashtbl.mem t.memo key || Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        work
    in
    if fresh <> [] then begin
      List.iter
        (fun (algo, c, d) ->
          t.progress
            (Printf.sprintf "running %s on %s / %s ..." (algo_name algo)
               c.Mcnc.circuit_name d.Device.dev_name))
        fresh;
      let tasks =
        Array.of_list
          (List.map
             (fun (algo, c, d) -> (algo, graph_of t c d.Device.family, c, d))
             fresh)
      in
      let results =
        Fpart_exec.Pool.map pool
          (fun _ (algo, hg, _c, d) ->
            compute t.config algo hg d)
          tasks
      in
      Array.iteri
        (fun i r ->
          let algo, _, c, d = tasks.(i) in
          Hashtbl.add t.memo (memo_key c d algo) r)
        results
    end

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

let table1 t =
  let rows =
    List.map
      (fun c ->
        let g2 = graph_of t c Device.XC2000 in
        let g3 = graph_of t c Device.XC3000 in
        let s3 = Hypergraph.Stats.summary g3 in
        [
          c.Mcnc.circuit_name;
          string_of_int c.Mcnc.iobs;
          string_of_int c.Mcnc.clbs_xc2000;
          string_of_int c.Mcnc.clbs_xc3000;
          string_of_int (Hg.num_nets g2);
          string_of_int (Hg.num_nets g3);
          Printf.sprintf "%.2f" s3.Hypergraph.Stats.avg_net_degree;
        ])
      Mcnc.all
  in
  Table.render
    ~title:
      "Table 1. Benchmark circuits characteristics (surrogates; IOB and CLB \
       counts are the published ones by construction)"
    ~header:
      [
        "Circuit"; "#IOBs"; "#CLBs XC2000"; "#CLBs XC3000"; "nets(2000)";
        "nets(3000)"; "avg net deg";
      ]
    ~align:[ Table.Left ] rows

(* ------------------------------------------------------------------ *)
(* Device tables (2-5)                                                *)
(* ------------------------------------------------------------------ *)

let opt_cell = Published.cell

(* A composite "measured(published)" cell. *)
let vs measured published =
  match published with
  | None -> string_of_int measured
  | Some p -> Printf.sprintf "%d(%d)" measured p

let device_table t ~title ~device ~circuits ~published =
  prewarm t
    (List.concat_map
       (fun c ->
         [ (Kwayx_algo, c, device); (Fbb_mw_algo, c, device);
           (Fpart_algo, c, device) ])
       circuits);
  let totals = Array.make 4 0 in
  let paper_totals = Array.make 4 0 in
  let paper_complete = Array.make 4 true in
  let add i measured paper =
    totals.(i) <- totals.(i) + measured;
    match paper with
    | Some p -> paper_totals.(i) <- paper_totals.(i) + p
    | None -> paper_complete.(i) <- false
  in
  let rows =
    List.map
      (fun c ->
        let pub = Published.find published c.Mcnc.circuit_name in
        let p f = Option.bind pub f in
        let kw = run_one t Kwayx_algo c device in
        let fb = run_one t Fbb_mw_algo c device in
        let fp = run_one t Fpart_algo c device in
        let hg = graph_of t c device.Device.family in
        let m =
          Device.lower_bound device ~delta:(Device.paper_delta device)
            ~total_size:(Hg.total_size hg) ~total_pads:(Hg.num_pads hg)
        in
        add 0 kw.k (p (fun r -> r.Published.kwayx));
        add 1 fb.k (p (fun r -> r.Published.fbb_mw));
        add 2 fp.k (p (fun r -> r.Published.fpart));
        add 3 m (Option.map (fun r -> r.Published.m) pub);
        [
          c.Mcnc.circuit_name;
          vs kw.k (p (fun r -> r.Published.kwayx));
          vs fb.k (p (fun r -> r.Published.fbb_mw));
          vs fp.k (p (fun r -> r.Published.fpart));
          opt_cell (p (fun r -> r.Published.prop_prop));
          opt_cell (p (fun r -> r.Published.sc));
          opt_cell (p (fun r -> r.Published.wcdp));
          vs m (Option.map (fun r -> r.Published.m) pub);
          (if fp.feasible then "yes" else "NO");
        ])
      circuits
  in
  let total_cell i =
    if paper_complete.(i) then Printf.sprintf "%d(%d)" totals.(i) paper_totals.(i)
    else string_of_int totals.(i)
  in
  let total_row =
    [
      "Total"; total_cell 0; total_cell 1; total_cell 2; "-"; "-"; "-";
      total_cell 3; "";
    ]
  in
  Table.render ~title
    ~header:
      [
        "Circuit"; "k-way.x"; "FBB-MW"; "FPART"; "PROP*"; "SC*"; "WCDP*"; "M";
        "feas";
      ]
    ~align:[ Table.Left ]
    (rows @ [ total_row ])
  ^ "cells: measured(published); * = published-only column (method not reimplemented)\n"

let table2 t =
  device_table t
    ~title:"Table 2. Results comparison on XC3020 device (delta = 0.9)"
    ~device:Device.xc3020 ~circuits:Mcnc.all ~published:Published.table2

let table3 t =
  device_table t
    ~title:"Table 3. Results comparison on XC3042 device (delta = 0.9)"
    ~device:Device.xc3042 ~circuits:Mcnc.all ~published:Published.table3

let table4 t =
  device_table t
    ~title:"Table 4. Results comparison on XC3090 device (delta = 0.9)"
    ~device:Device.xc3090 ~circuits:Mcnc.all ~published:Published.table4

let table5 t =
  device_table t
    ~title:"Table 5. Results comparison on XC2064 device (delta = 1.0)"
    ~device:Device.xc2064 ~circuits:Mcnc.table5_subset ~published:Published.table5

(* ------------------------------------------------------------------ *)
(* Table 6                                                            *)
(* ------------------------------------------------------------------ *)

let table6 t =
  let fmt_time = function
    | None -> "-"
    | Some s -> Printf.sprintf "%.2f" s
  in
  let devices = [ Device.xc3020; Device.xc3042; Device.xc3090 ] in
  prewarm t
    (List.concat_map
       (fun c ->
         let ds =
           if
             List.exists
               (fun c' -> c'.Mcnc.circuit_name = c.Mcnc.circuit_name)
               Mcnc.table5_subset
           then devices @ [ Device.xc2064 ]
           else devices
         in
         List.map (fun d -> (Fpart_algo, c, d)) ds)
       Mcnc.all);
  let rows =
    List.map
      (fun c ->
        let paper =
          List.find_opt (fun (n, _, _, _, _) -> n = c.Mcnc.circuit_name)
            Published.cpu_times
        in
        let p1, p2, p3, p4 =
          match paper with
          | Some (_, a, b, d, e) -> (a, b, d, e)
          | None -> (None, None, None, None)
        in
        let ours device =
          Printf.sprintf "%.2f" (run_one t Fpart_algo c device).cpu_seconds
        in
        let xc2064 =
          (* the paper only ran the four c-circuits on the XC2064 *)
          if List.exists (fun c' -> c'.Mcnc.circuit_name = c.Mcnc.circuit_name)
               Mcnc.table5_subset
          then ours Device.xc2064
          else "-"
        in
        [ c.Mcnc.circuit_name ]
        @ List.map ours devices
        @ [ xc2064; fmt_time p1; fmt_time p2; fmt_time p3; fmt_time p4 ])
      Mcnc.all
  in
  Table.render
    ~title:
      "Table 6. FPART execution time, seconds (ours on this host; paper's on \
       a SUN Sparc Ultra 5)"
    ~header:
      [
        "Circuit"; "XC3020"; "XC3042"; "XC3090"; "XC2064"; "paper3020";
        "paper3042"; "paper3090"; "paper2064";
      ]
    ~align:[ Table.Left ] rows

(* ------------------------------------------------------------------ *)
(* Figures                                                            *)
(* ------------------------------------------------------------------ *)

(* The trace of the flat driver's Algorithm 1, so the engine is always
   [Flat]; the refiner and seed follow the harness config. *)
let figure1 t =
  let c = Option.get (Mcnc.find "s5378") in
  let hg = graph_of t c Device.XC3000 in
  let r = Solve.run { t.config with Fpart.Config.engine = Flat } hg Device.xc3042 in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Figure 1. Call of the iterative improvement passes (trace of FPART on \
     s5378 / XC3042)\n";
  Buffer.add_string buf
    "Each line is one Improve() call of Algorithm 1; {..} lists the involved \
     blocks, the last block being the remainder.\n\n";
  List.iter
    (fun e ->
      match e with
      | Fpart.Trace.Improve _ | Fpart.Trace.Bipartition _ | Fpart.Trace.Done _ ->
        Buffer.add_string buf (Format.asprintf "%a@." Fpart.Trace.pp_event e)
      | Fpart.Trace.Committed _ -> ())
    r.Fpart.Driver.trace;
  (* The paper draws this as a grid: one row per Improve() call, one
     column per block; shadowed cells are the blocks taking part. *)
  Buffer.add_string buf
    "\nAs the paper's grid (# = involved block, R = remainder column):\n\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-18s %s\n" "step"
       (String.concat ""
          (List.init r.Fpart.Driver.k (fun b -> Printf.sprintf "%3d" b))));
  List.iter
    (fun e ->
      match e with
      | Fpart.Trace.Improve { iteration; kind; blocks; _ } ->
        let remainder = iteration in
        (* remainder block index = iteration (blocks 0..it-1 committed) *)
        let cells =
          List.init r.Fpart.Driver.k (fun b ->
              if List.mem b blocks then (if b = remainder then "  R" else "  #")
              else "  .")
        in
        Buffer.add_string buf
          (Printf.sprintf "  it%-2d %-13s %s\n" iteration
             (Format.asprintf "%a" Fpart.Trace.pp_kind kind)
             (String.concat "" cells))
      | Fpart.Trace.Bipartition _ | Fpart.Trace.Committed _ | Fpart.Trace.Done _ ->
        ())
    r.Fpart.Driver.trace;
  Buffer.contents buf

let figure2 _t =
  (* A toy 12-cell circuit partitioned three ways, reproducing the
     classification examples of Figure 2. *)
  let spec = Netlist.Generator.default_spec ~name:"fig2" ~cells:12 ~pads:4 ~seed:7 in
  let hg = Netlist.Generator.generate spec in
  let params = Partition.Cost.default_params in
  let describe title k assign ctx =
    let st = Partition.State.create hg ~k ~assign in
    let cls =
      match Partition.Cost.classify ctx st with
      | Partition.Cost.Feasible -> "feasible"
      | Partition.Cost.Semi_feasible b -> Printf.sprintf "semi-feasible (remainder = block %d)" b
      | Partition.Cost.Infeasible l ->
        Printf.sprintf "infeasible (violating blocks: %s)"
          (String.concat "," (List.map string_of_int l))
    in
    let d = Partition.Cost.infeasibility params ctx st ~remainder:None ~step_k:1 in
    let blocks =
      String.concat " "
        (List.init k (fun b ->
             Printf.sprintf "B%d(S=%d,T=%d)" b
               (Partition.State.size_of st b)
               (Partition.State.pins_of st b)))
    in
    Printf.sprintf "%s\n  blocks: %s\n  classification: %s, infeasibility distance d = %.4f\n"
      title blocks cls d
  in
  (* device tuned so that the crafted assignments classify as intended *)
  let ctx =
    { Partition.Cost.s_max = 4; t_max = 12; f_max = None; m_lower = 3; total_pads = 4 }
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figure 2. Feasible, semi-feasible, infeasible solutions examples\n";
  Buffer.add_string buf
    (Printf.sprintf "device constraints: S_MAX = %d, T_MAX = %d\n\n" ctx.Partition.Cost.s_max
       ctx.Partition.Cost.t_max);
  Buffer.add_string buf
    (describe "(a) 4-block solution, every block inside the rectangle:" 4
       (fun v -> v mod 4) ctx);
  Buffer.add_string buf
    (describe "(b) 3-block solution, one oversized remainder:" 3
       (fun v -> if v < 3 then 0 else if v < 6 then 1 else 2) ctx);
  Buffer.add_string buf
    (describe "(c) 4-block solution, two violating blocks:" 4
       (fun v -> if v < 7 then 0 else if v < 13 then 1 else (v - 13) mod 2 + 2) ctx);
  Buffer.contents buf

let figure3 _t =
  let cfg = Fpart.Config.default in
  let device = Device.xc3020 in
  let delta = Device.paper_delta device in
  let s_max = Device.s_max device ~delta in
  let w eps = int_of_float (eps *. float_of_int s_max) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Figure 3. Feasible space for cell move\n";
  Buffer.add_string buf
    (Printf.sprintf
       "device %s, delta = %.2f, S_MAX = %d; a move is allowed while the \
        affected blocks stay in their size window (no pin constraint on moves)\n\n"
       device.Device.dev_name delta s_max);
  Buffer.add_string buf
    (Printf.sprintf
       "(a) multi-block pass : non-remainder blocks in [%d, %d]  (eps*_min = %.2f, eps*_max = %.2f)\n"
       (w Fpart.Config.eps_min_multi)
       (w Fpart.Config.eps_max_multi)
       Fpart.Config.eps_min_multi Fpart.Config.eps_max_multi);
  Buffer.add_string buf
    (Printf.sprintf
       "(b) two-block pass   : non-remainder blocks in [%d, %d]  (eps2_min = %.2f, eps2_max = %.2f)\n"
       (w cfg.Fpart.Config.eps_min_two)
       (w Fpart.Config.eps_max_two)
       cfg.Fpart.Config.eps_min_two Fpart.Config.eps_max_two);
  Buffer.add_string buf
    "    remainder block  : [0, +inf)  (eps^R_max = infinity)\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    once k reaches M : upper bounds tighten to S_MAX = %d (no \
        size-violating moves)\n"
       s_max);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

let ablation_variants base =
  [
    ("published", base);
    ("no-lookahead-gains", { base with Fpart.Config.gain_levels = 1 });
    ("3-level-gains", { base with Fpart.Config.gain_levels = 3 });
    ("no-stacks", { base with Fpart.Config.stack_depth = 0 });
    ("single-pass", { base with Fpart.Config.max_passes = 1 });
    ( "loose-2blk-window",
      { base with Fpart.Config.eps_min_two = Fpart.Config.eps_min_multi } );
    ( "no-deviation-penalty",
      {
        base with
        Fpart.Config.cost =
          { base.Fpart.Config.cost with Partition.Cost.lambda_r = 0.0 };
      } );
    ("random-initial-partition", { base with Fpart.Config.random_initial = true });
    ( "fifo-buckets",
      { base with Fpart.Config.bucket_discipline = Gainbucket.Bucket_array.Fifo } );
    ("pin-gain (future work)", { base with Fpart.Config.gain_mode = Sanchis.Pin_gain });
    ("drift-limit 64 (future work)", { base with Fpart.Config.drift_limit = Some 64 });
  ]

(* The hard rows: big sequential circuits and the pad-heavy c7552,
   where the tunings of sections 3.3-3.7 actually change k. *)
let ablation_circuits = [ "c7552"; "s15850"; "s38417"; "s38584" ]

(* Ablations run each config variant of FPART on a subset of circuits
   (XC3020): the k deltas show what each tuning of sections 3.3-3.7
   buys.  Not memoised (each row is a distinct configuration). *)
let ablations t =
  let device = Device.xc3020 in
  let circuits = List.filter_map Mcnc.find ablation_circuits in
  let rows =
    List.map
      (fun (label, config) ->
        t.progress (Printf.sprintf "ablation %s ..." label);
        let ks, time =
          List.fold_left
            (fun (ks, time) c ->
              let hg = graph_of t c device.Device.family in
              let r = Solve.run config hg device in
              (ks @ [ r.Fpart.Driver.k ], time +. r.Fpart.Driver.cpu_seconds))
            ([], 0.0) circuits
        in
        label
        :: List.map string_of_int ks
        @ [
            string_of_int (List.fold_left ( + ) 0 ks);
            Printf.sprintf "%.2f" time;
          ])
      (ablation_variants t.config)
  in
  Table.render
    ~title:
      "Ablations: FPART device counts on XC3020 under configuration variants \
       (each knob of paper sections 3.3-3.7 and the two future-work ideas of \
       section 5)"
    ~header:("variant" :: ablation_circuits @ [ "total"; "cpu(s)" ])
    ~align:[ Table.Left ] rows

(* ------------------------------------------------------------------ *)
(* CSV export                                                         *)
(* ------------------------------------------------------------------ *)

let device_table_csv t ~device ~circuits ~published =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "circuit,kwayx,fbb_mw,fpart,m,kwayx_paper,fbb_mw_paper,fpart_paper,m_paper,fpart_feasible\n";
  List.iter
    (fun c ->
      let pub = Published.find published c.Mcnc.circuit_name in
      let p f = match Option.bind pub f with None -> "" | Some v -> string_of_int v in
      let kw = run_one t Kwayx_algo c device in
      let fb = run_one t Fbb_mw_algo c device in
      let fp = run_one t Fpart_algo c device in
      let hg = graph_of t c device.Device.family in
      let m =
        Device.lower_bound device ~delta:(Device.paper_delta device)
          ~total_size:(Hg.total_size hg) ~total_pads:(Hg.num_pads hg)
      in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%d,%d,%s,%s,%s,%s,%b\n" c.Mcnc.circuit_name kw.k
           fb.k fp.k m
           (p (fun r -> r.Published.kwayx))
           (p (fun r -> r.Published.fbb_mw))
           (p (fun r -> r.Published.fpart))
           (match pub with None -> "" | Some r -> string_of_int r.Published.m)
           fp.feasible))
    circuits;
  Buffer.contents buf

let csv2 t = device_table_csv t ~device:Device.xc3020 ~circuits:Mcnc.all ~published:Published.table2
let csv3 t = device_table_csv t ~device:Device.xc3042 ~circuits:Mcnc.all ~published:Published.table3
let csv4 t = device_table_csv t ~device:Device.xc3090 ~circuits:Mcnc.all ~published:Published.table4
let csv5 t = device_table_csv t ~device:Device.xc2064 ~circuits:Mcnc.table5_subset ~published:Published.table5

(* ------------------------------------------------------------------ *)
(* Seed variance                                                      *)
(* ------------------------------------------------------------------ *)

let variance_seeds = [ 1; 2; 3; 4; 5 ]

(* How sensitive is FPART to its tie-break seed?  min/median/max of k
   over five seeds, per circuit, on XC3020 — robustness evidence that
   the single-seed tables are representative. *)
let variance t =
  let device = Device.xc3020 in
  let run_seeds hg =
    let one seed =
      (Solve.run { t.config with Fpart.Config.seed } hg device).Fpart.Driver.k
    in
    match pool_of t with
    | None -> List.map one variance_seeds
    | Some pool ->
      Array.to_list
        (Fpart_exec.Pool.map pool
           (fun _ seed -> one seed)
           (Array.of_list variance_seeds))
  in
  let rows =
    List.map
      (fun c ->
        t.progress (Printf.sprintf "variance %s ..." c.Mcnc.circuit_name);
        let hg = graph_of t c device.Device.family in
        let ks = run_seeds hg |> List.sort compare in
        let arr = Array.of_list ks in
        let n = Array.length arr in
        [
          c.Mcnc.circuit_name;
          string_of_int arr.(0);
          string_of_int arr.(n / 2);
          string_of_int arr.(n - 1);
          string_of_int (arr.(n - 1) - arr.(0));
        ])
      Mcnc.all
  in
  Table.render
    ~title:
      (Printf.sprintf
         "Seed variance: FPART on XC3020 over %d tie-break seeds (min / median / max devices)"
         (List.length variance_seeds))
    ~header:[ "Circuit"; "min"; "median"; "max"; "spread" ]
    ~align:[ Table.Left ] rows

(* ------------------------------------------------------------------ *)
(* Modern baseline                                                    *)
(* ------------------------------------------------------------------ *)

(* Flat FPART against the post-paper multilevel V-cycle engine
   (Mlevel.Engine: matching-based coarsening, FPART on the coarsest
   graph, bounded refinement per level).  At MCNC scale the V-cycle
   mostly finds smaller cuts but sometimes pays a device for them —
   the paper's point that device-count minimisation is not cut
   minimisation.  Each column runs its own engine under the harness
   config; the one the harness runs anyway comes from the memo. *)
let modern t =
  let device = Device.xc3020 in
  let fpart_on engine c hg =
    if engine = t.config.Fpart.Config.engine then run_one t Fpart_algo c device
    else compute { t.config with Fpart.Config.engine } Fpart_algo hg device
  in
  let rows =
    List.map
      (fun c ->
        t.progress (Printf.sprintf "modern baseline %s ..." c.Mcnc.circuit_name);
        let hg = graph_of t c device.Device.family in
        let fp = fpart_on Fpart.Config.Flat c hg in
        let ml = fpart_on Fpart.Config.Mlevel c hg in
        let m =
          Device.lower_bound device ~delta:0.9 ~total_size:(Hg.total_size hg)
            ~total_pads:(Hg.num_pads hg)
        in
        [
          c.Mcnc.circuit_name;
          string_of_int fp.k;
          string_of_int fp.cut;
          string_of_int ml.k;
          string_of_int ml.cut;
          (if ml.feasible then "yes" else "NO");
          string_of_int m;
        ])
      Mcnc.all
  in
  Table.render
    ~title:
      "Modern baseline: flat FPART vs the multilevel V-cycle engine \
       (coarsen / FPART / uncoarsen+refine) on XC3020"
    ~header:[ "Circuit"; "FPART k"; "cut"; "MLEVEL k"; "cut"; "MLEVEL feas"; "M" ]
    ~align:[ Table.Left ] rows

(* ------------------------------------------------------------------ *)
(* Filling-ratio sweep                                                *)
(* ------------------------------------------------------------------ *)

let sweep_deltas = [ 0.70; 0.80; 0.90; 0.95; 1.00 ]

(* The paper fixes delta = 0.9 for the XC3000 family "to guarantee the
   successful routing by the vendor place and route tool".  This sweep
   shows the cost of that insurance: devices needed as the filling
   ratio varies, on one mid-size circuit. *)
let delta_sweep t =
  let device = Device.xc3020 in
  let c = Option.get (Mcnc.find "s9234") in
  let hg = graph_of t c device.Device.family in
  let rows =
    List.map
      (fun delta ->
        t.progress (Printf.sprintf "delta sweep %.2f ..." delta);
        let r =
          Solve.run { t.config with Fpart.Config.delta = Some delta } hg device
        in
        [
          Printf.sprintf "%.2f" delta;
          string_of_int (Device.s_max device ~delta);
          string_of_int r.Fpart.Driver.m_lower;
          string_of_int r.Fpart.Driver.k;
          (if r.Fpart.Driver.feasible then "yes" else "NO");
          string_of_int r.Fpart.Driver.cut;
        ])
      sweep_deltas
  in
  Table.render
    ~title:
      (Printf.sprintf
         "Filling-ratio sweep: FPART on %s / %s as delta varies (paper uses 0.90)"
         c.Mcnc.circuit_name device.Device.dev_name)
    ~header:[ "delta"; "S_MAX"; "M"; "k"; "feasible"; "cut" ]
    ~align:[ Table.Left ] rows

let all t =
  String.concat "\n"
    [
      table1 t; table2 t; table3 t; table4 t; table5 t; table6 t; figure1 t;
      figure2 t; figure3 t; ablations t; modern t; variance t; delta_sweep t;
    ]
