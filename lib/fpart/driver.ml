module Hg = Hypergraph.Hgraph
module State = Partition.State
module Cost = Partition.Cost
module Obs = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder
module Json = Fpart_obs.Json

let c_runs = Obs.counter "driver.runs"
let c_iterations = Obs.counter "driver.iterations"

type result = {
  k : int;
  assignment : int array;
  feasible : bool;
  iterations : int;
  cut : int;
  total_pins : int;
  m_lower : int;
  delta : float;
  cpu_seconds : float;
  trace : Trace.event list;
}

let swap_labels assign a b =
  Array.iteri
    (fun v blk -> if blk = a then assign.(v) <- b else if blk = b then assign.(v) <- a)
    assign

let run_flat ?pool config hg device =
  let t0 = Sys.time () in
  Obs.incr c_runs;
  let sp_run = Recorder.span_begin "driver.run" in
  let rng = Prng.Splitmix.create config.Config.seed in
  let delta = Config.delta_for config device in
  let ctx = Cost.context_of device ~delta hg in
  let m = ctx.Cost.m_lower in
  let trace = Trace.create () in
  let imp = { Improve.cfg = config; params = config.Config.cost; ctx; trace } in
  let n = Hg.num_nodes hg in
  let assign = Array.make n 0 in
  let create_state k =
    let sp = Recorder.span_begin "driver.state_create" in
    let st = State.create hg ~k ~assign:(fun v -> assign.(v)) in
    Recorder.span_end sp ~attrs:[ ("k", Json.Int k) ];
    st
  in
  let finish ~k ~feasible ~iterations =
    let st = create_state k in
    if
      Fpart_check.Selfcheck.at_least config.Config.selfcheck
        Fpart_check.Selfcheck.Cheap
    then ignore (Fpart_check.Selfcheck.validate ~where:"driver.final" st);
    Trace.record trace (Trace.Done { iterations; k; feasible });
    Recorder.span_end sp_run
      ~attrs:
        [
          ("k", Json.Int k);
          ("feasible", Json.Bool feasible);
          ("iterations", Json.Int iterations);
          ("m_lower", Json.Int m);
        ];
    {
      k;
      assignment = Array.copy assign;
      feasible;
      iterations;
      cut = State.cut_size st;
      total_pins = State.total_pins st;
      m_lower = m;
      delta;
      cpu_seconds = Sys.time () -. t0;
      trace = Trace.events trace;
    }
  in
  (* trivial case: the whole circuit fits one device *)
  let whole = create_state 1 in
  if Cost.classify ctx whole = Cost.Feasible then finish ~k:1 ~feasible:true ~iterations:0
  else begin
    let max_iterations = max ((3 * m) + 12) 16 in
    let rec iterate j =
      (* invariant: blocks 0..j-1 committed, remainder at index j *)
      let iteration = j + 1 in
      if iteration > max_iterations then finish ~k:(j + 1) ~feasible:false ~iterations:j
      else begin
        let st = create_state (j + 2) in
        let r = j + 1 in
        if State.cells_of st j < 2 then
          (* unsplittable remainder *)
          finish ~k:(j + 1) ~feasible:false ~iterations:j
        else begin
          Obs.incr c_iterations;
          let sp_it = Recorder.span_begin "driver.iteration" in
          let method_used =
            if config.Config.random_initial then begin
              Bipartition.random_split st ~p_block:j ~r_block:r
                ~s_max:ctx.Cost.s_max ~rng;
              Bipartition.Used_random
            end
            else
              Bipartition.split
                ~salt:(config.Config.seed land 0xFFFF)
                ?pool st ~p_block:j ~r_block:r ~params:config.Config.cost ~ctx
                ~step_k:iteration
          in
          Trace.record trace
            (Trace.Bipartition
               {
                 iteration;
                 p_block = j;
                 r_block = r;
                 method_used = Bipartition.method_name method_used;
               });
          Obs.incr
            (Obs.counter ("driver.method." ^ Bipartition.method_name method_used));
          let blocks_now = j + 2 in
          let allow_violation = blocks_now < m in
          (* improvement schedule of section 3.1 *)
          Improve.pair imp st ~iteration ~remainder:r ~other:j ~allow_violation
            ~kind:Trace.Pair_latest;
          if m <= Config.n_small then
            Improve.all_blocks imp st ~iteration ~remainder:r ~allow_violation;
          let pair_with kind = function
            | Some b ->
              Improve.pair imp st ~iteration ~remainder:r ~other:b ~allow_violation ~kind
            | None -> ()
          in
          pair_with Trace.Min_size (Schedule.min_size_block st ~except:r);
          pair_with Trace.Min_io (Schedule.min_io_block st ~except:r);
          pair_with Trace.Max_free
            (Schedule.max_free_block st ~except:r ~s_max:ctx.Cost.s_max
               ~t_max:ctx.Cost.t_max);
          if blocks_now = m && m <= Config.n_small then
            for i = 0 to j do
              Improve.pair imp st ~iteration ~remainder:r ~other:i ~allow_violation
                ~kind:Trace.Final_pairs
            done;
          Array.blit (State.assignment st) 0 assign 0 n;
          let size = State.size_of st j and pins = State.pins_of st j in
          Trace.record trace (Trace.Committed { iteration; block = j; size; pins });
          Recorder.span_end sp_it
            ~attrs:
              [
                ("iteration", Json.Int iteration);
                ("method", Json.Str (Bipartition.method_name method_used));
                ("blocks", Json.Int blocks_now);
                ("size", Json.Int size);
                ("pins", Json.Int pins);
              ];
          match Cost.classify ctx st with
          | Cost.Feasible -> finish ~k:blocks_now ~feasible:true ~iterations:iteration
          | Cost.Semi_feasible b ->
            if b <> r then swap_labels assign b r;
            iterate (j + 1)
          | Cost.Infeasible bad ->
            (* keep an infeasible block in the remainder slot *)
            if not (List.mem r bad) then
              (match bad with b :: _ -> swap_labels assign b r | [] -> ());
            iterate (j + 1)
        end
      end
    in
    iterate 0
  end

(* Flat refinement after projecting a coarse partition: one multi-block
   pass when k is small, otherwise a ring of pairwise passes.  Windows
   are strict (no size violations) so feasibility can only improve. *)
let refine config ctx st =
  let k = State.k st in
  if k < 2 then ()
  else begin
  let lower = Array.make k 0 and upper = Array.make k ctx.Cost.s_max in
  let eval st = Cost.evaluate config.Config.cost ctx st ~remainder:None ~step_k:k in
  let engine = Config.sanchis config in
  let boundary st =
    if Fpart_check.Selfcheck.at_least config.Config.selfcheck Fpart_check.Selfcheck.Cheap
    then ignore (Fpart_check.Selfcheck.validate ~where:"driver.refine" st)
  in
  let retained = ref 0 in
  if k <= 18 then begin
    let report =
      Sanchis.improve st
        ~spec:{ Sanchis.active = Array.init k Fun.id; remainder = None; lower; upper }
        ~config:engine ~eval
    in
    retained := report.Sanchis.moves_retained;
    boundary st
  end
  else begin
    for i = 0 to k - 1 do
      let j = (i + 1) mod k in
      let report =
        Sanchis.improve st
          ~spec:{ Sanchis.active = [| i; j |]; remainder = None; lower; upper }
          ~config:engine ~eval
      in
      retained := !retained + report.Sanchis.moves_retained;
      boundary st
    done
  end;
  (* The hybrid adds a flow sweep after the Sanchis schedule has run
     in full (never interleaved), so its cut can only match or beat
     the pure Sanchis refinement of the same state. *)
  if config.Config.refiner = Config.Hybrid_refiner && !retained = 0 then begin
    ignore
      (Flow.Refine.refine_active (Config.flow config) st ~active:(Array.init k Fun.id)
         ~lower ~upper ~eval);
    boundary st
  end
  end

let run_clustered ?pool config hg device ~max_cluster_size =
  let t0 = Sys.time () in
  let map, coarse_nodes =
    Cluster.Matching.compute ~policy:Cluster.Matching.Agglomerate
      ~max_weight:max_cluster_size ~seed:config.Config.seed hg
  in
  let coarse_config = { config with Config.cluster_size = None } in
  let coarse =
    run_flat ?pool coarse_config (Hg.contract hg ~map ~coarse_nodes) device
  in
  let assign = Array.map (fun c -> coarse.assignment.(c)) map in
  let st = State.create hg ~k:coarse.k ~assign:(fun v -> assign.(v)) in
  let delta = Config.delta_for config device in
  let ctx = Cost.context_of device ~delta hg in
  let sp = Recorder.span_begin "driver.refine" in
  refine config ctx st;
  Recorder.span_end sp ~attrs:[ ("k", Json.Int coarse.k) ];
  let feasible = Cost.classify ctx st = Cost.Feasible in
  {
    coarse with
    assignment = State.assignment st;
    feasible;
    cut = State.cut_size st;
    total_pins = State.total_pins st;
    cpu_seconds = Sys.time () -. t0;
  }

let run ?(config = Config.default) ?pool hg device =
  match config.Config.cluster_size with
  | Some cs when cs > 1 -> run_clustered ?pool config hg device ~max_cluster_size:cs
  | Some _ | None -> run_flat ?pool config hg device

let better a b =
  (* fewest devices; then feasibility; then cut; then pins *)
  if a.feasible <> b.feasible then a.feasible
  else if a.k <> b.k then a.k < b.k
  else if a.cut <> b.cut then a.cut < b.cut
  else a.total_pins < b.total_pins

(* First strictly-better result wins, scanning in run order.  Callers
   reject [runs < 1], so [results] is never empty. *)
let pick_best results =
  Array.fold_left (fun best r -> if better r best then r else best) results.(0) results

let run_config config i = { config with Config.seed = config.Config.seed + i }

let run_best ?(config = Config.default) ~runs hg device =
  if runs < 1 then invalid_arg "Driver.run_best: runs < 1";
  let jobs = config.Config.jobs in
  if jobs < 1 then invalid_arg "Driver.run_best: jobs < 1";
  let t0 = Sys.time () in
  let r =
    if jobs = 1 then
      pick_best (Array.init runs (fun i -> run ~config:(run_config config i) hg device))
    else
      Fpart_exec.Pool.with_pool ~jobs (fun pool ->
          if runs = 1 then
            (* nothing to multi-start: spend the domains inside the run,
               on the initial-bipartition portfolio *)
            run ~config ~pool hg device
          else
            pick_best
              (Fpart_exec.Pool.map pool
                 (fun i () -> run ~config:(run_config config i) hg device)
                 (Array.make runs ())))
  in
  { r with cpu_seconds = Sys.time () -. t0 }

let final_state r hg =
  State.create hg ~k:r.k ~assign:(fun v -> r.assignment.(v))
