module Hg = Hypergraph.Hgraph
module Matching = Cluster.Matching
module State = Partition.State
module Cost = Partition.Cost
module Obs = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder
module Json = Fpart_obs.Json
module Selfcheck = Fpart_check.Selfcheck
module Oracle = Fpart_check.Oracle
module Config = Fpart.Config
module Driver = Fpart.Driver

(* The hierarchy's shape.  Coarsening stops at [coarsen_thresh] nodes
   (before the 12·M floor and the pad allowance), after [max_levels]
   levels, or when a level shrinks by less than [min_reduction];
   contracted weight is capped at [max_weight_frac]·S_MAX, and each
   level gets [refine_passes] Sanchis passes. *)
let coarsen_thresh = 160
let max_weight_frac = 0.125
let min_reduction = 1.1
let max_levels = 24
let refine_passes = 1

type result = { res : Driver.result; levels : int; coarsen_ratio : float }

let c_levels = Obs.counter "mlevel.levels"
let c_refines = Obs.counter "mlevel.refines"

(* One rung of the hierarchy: the coarse graph contracted from the
   previous level, the previous-level → this-level [map] that projects
   a partition back down, and the composed flat-node → this-level map
   for the oracle cross-check. *)
type level = {
  index : int;  (* 1-based; 0 is the original graph *)
  graph : Hg.t;
  map : int array;
  flat_map : int array;
}

(* Coarsen until the node count reaches [thresh] (pads never contract,
   so the threshold is on top of the pad count), the hierarchy hits
   [max_levels], or a matching pass stops pulling its weight.  Returns
   levels finest-first. *)
let coarsen_hierarchy ~max_w ~thresh ~seed hg0 =
  let levels = ref [] in
  let hg = ref hg0 in
  let flat_map = ref (Array.init (Hg.num_nodes hg0) Fun.id) in
  let idx = ref 0 in
  let stop = ref false in
  while (not !stop) && !idx < max_levels && Hg.num_nodes !hg > thresh do
    let fine_nodes = Hg.num_nodes !hg in
    let map, nc =
      Matching.compute ~policy:Matching.Pairs ~max_weight:max_w
        ~seed:(seed + (0x9e37 * (!idx + 1)))
        !hg
    in
    if float_of_int fine_nodes /. float_of_int nc < min_reduction then
      stop := true
    else begin
      let coarse = Hg.contract !hg ~map ~coarse_nodes:nc in
      incr idx;
      Obs.incr c_levels;
      flat_map := Array.map (fun c -> map.(c)) !flat_map;
      levels :=
        { index = !idx; graph = coarse; map; flat_map = !flat_map } :: !levels;
      if Obs.enabled () then
        Recorder.event
          [
            ("type", Json.Str "mlevel_coarsen");
            ("level", Json.Int !idx);
            ("nodes", Json.Int nc);
            ("nets", Json.Int (Hg.num_nets coarse));
            ( "ratio",
              Json.Float (float_of_int fine_nodes /. float_of_int nc) );
          ];
      hg := coarse
    end
  done;
  List.rev !levels

(* The contraction-exactness cross-check (--selfcheck cheap): project
   this level's partition all the way down and require the coarse
   aggregates to equal the flat oracle's, as equalities. *)
let crosscheck base ~hg ~k ~lvl_index ~flat_map st =
  if Selfcheck.at_least base.Config.selfcheck Selfcheck.Cheap then begin
    Selfcheck.tick ();
    let a = State.assignment st in
    let o = Oracle.recompute hg ~k ~assign:(fun v -> a.(flat_map.(v))) in
    let where = Printf.sprintf "mlevel.contract.level%d" lvl_index in
    if o.Oracle.cut <> State.cut_size st then
      Selfcheck.record ~where
        (Printf.sprintf "cut: coarse %d, projected flat %d"
           (State.cut_size st) o.Oracle.cut);
    for b = 0 to k - 1 do
      if o.Oracle.sizes.(b) <> State.size_of st b then
        Selfcheck.record ~where
          (Printf.sprintf "block %d size: coarse %d, projected flat %d" b
             (State.size_of st b) o.Oracle.sizes.(b));
      if o.Oracle.pins.(b) <> State.pins_of st b then
        Selfcheck.record ~where
          (Printf.sprintf "block %d pins: coarse %d, projected flat %d" b
             (State.pins_of st b) o.Oracle.pins.(b))
    done
  end

(* Refine one level: seed a fresh state (and thus gain buckets) from
   the projected assignment, run the bounded flat improvement, and
   close the level's span with its convergence point.  Returns the
   refined assignment. *)
let refine_level base ~ctx ~hg ~k ~lvl_index ~flat_map lvl_hg assign =
  Obs.incr c_refines;
  let refine_cfg =
    (* The projected partition is already near its pass optimum, so a
       full sweep rewinds almost every move; the paper's §5 drift abort
       caps that tail.  Scale-aware and deterministic, so --jobs
       bit-identity is unaffected; an explicit drift_limit wins. *)
    let drift =
      match base.Config.drift_limit with
      | Some _ as d -> d
      | None -> Some (max 1000 (Hg.num_cells lvl_hg / 50))
    in
    {
      base with
      Config.max_passes = refine_passes;
      Config.cluster_size = None;
      Config.drift_limit = drift;
    }
  in
  let st = State.create lvl_hg ~k ~assign:(fun v -> assign.(v)) in
  crosscheck base ~hg ~k ~lvl_index ~flat_map st;
  (* the solution values are computed only for a recorded span *)
  let value () =
    Cost.value_to_json
      (Cost.evaluate base.Config.cost ctx st ~remainder:None ~step_k:k)
  in
  let telemetry = Obs.enabled () in
  let cut_before = State.cut_size st in
  let value_before = if telemetry then [ ("value_before", value ()) ] else [] in
  let sp = Recorder.span_begin "mlevel.refine" in
  Driver.refine refine_cfg ctx st;
  let value_after = if telemetry then [ ("value_after", value ()) ] else [] in
  Recorder.span_end sp
    ~attrs:
      ([
         ("level", Json.Int lvl_index);
         ("nodes", Json.Int (Hg.num_nodes lvl_hg));
         ("nets", Json.Int (Hg.num_nets lvl_hg));
         ("cut_before", Json.Int cut_before);
         ("cut_after", Json.Int (State.cut_size st));
       ]
      @ value_before @ value_after);
  State.assignment st

(* Unwind a hierarchy: project level by level, refining at each finer
   level down to and including the flat graph. *)
let descend base ~ctx ~hg ~levels ~k assign_top =
  let arr = Array.of_list levels in
  let identity = lazy (Array.init (Hg.num_nodes hg) Fun.id) in
  let assign = ref assign_top in
  for i = Array.length arr - 1 downto 0 do
    let lvl = arr.(i) in
    let fine_assign = Array.map (fun c -> !assign.(c)) lvl.map in
    let fine_hg, fine_map, fine_index =
      if i = 0 then (hg, Lazy.force identity, 0)
      else
        (arr.(i - 1).graph, arr.(i - 1).flat_map, arr.(i - 1).index)
    in
    assign :=
      refine_level base ~ctx ~hg ~k ~lvl_index:fine_index
        ~flat_map:fine_map fine_hg fine_assign
  done;
  !assign

let run ?(base = Config.default) hg device =
  let t0 = Sys.time () in
  let sp_run = Recorder.span_begin "mlevel.run" in
  let delta = Config.delta_for base device in
  let ctx = Cost.context_of device ~delta hg in
  let m = ctx.Cost.m_lower in
  let n0 = Hg.num_nodes hg in
  (* pads never contract, so the stop threshold sits on top of them;
     12·M keeps enough resolution for an M-way coarse partition *)
  let thresh = max coarsen_thresh (12 * m) + Hg.num_pads hg in
  let max_w =
    max 1 (int_of_float (max_weight_frac *. float_of_int ctx.Cost.s_max))
  in
  let sp_c = Recorder.span_begin "mlevel.coarsen" in
  let levels = coarsen_hierarchy ~max_w ~thresh ~seed:base.Config.seed hg in
  let nlevels = List.length levels in
  let top = match List.rev levels with l :: _ -> Some l | [] -> None in
  let top_hg = match top with Some l -> l.graph | None -> hg in
  let top_nodes = Hg.num_nodes top_hg in
  let coarsen_ratio = float_of_int n0 /. float_of_int top_nodes in
  Recorder.span_end sp_c
    ~attrs:
      [
        ("levels", Json.Int nlevels);
        ("nodes", Json.Int top_nodes);
        ("ratio", Json.Float coarsen_ratio);
      ];
  let sp_i = Recorder.span_begin "mlevel.initial" in
  let coarse_cfg = { base with Config.cluster_size = None } in
  (* the coarsest graph is small, so three starts cost little; --runs
     can raise the count but never lower it *)
  let coarse_runs = max 3 base.Config.runs in
  let r0 = Driver.run_best ~config:coarse_cfg ~runs:coarse_runs top_hg device in
  let k = r0.Driver.k in
  Recorder.span_end sp_i
    ~attrs:
      [
        ("nodes", Json.Int top_nodes);
        ("k", Json.Int k);
        ("feasible", Json.Bool r0.Driver.feasible);
        ("runs", Json.Int coarse_runs);
      ];
  let sp_u = Recorder.span_begin "mlevel.uncoarsen" in
  let assign = descend base ~ctx ~hg ~levels ~k r0.Driver.assignment in
  Recorder.span_end sp_u ~attrs:[];
  let st = State.create hg ~k ~assign:(fun v -> assign.(v)) in
  if Selfcheck.at_least base.Config.selfcheck Selfcheck.Cheap then
    ignore (Selfcheck.validate ~where:"mlevel.final" st);
  let feasible = Cost.classify ctx st = Cost.Feasible in
  let res =
    {
      r0 with
      Driver.assignment = State.assignment st;
      feasible;
      cut = State.cut_size st;
      total_pins = State.total_pins st;
      m_lower = m;
      delta;
      cpu_seconds = Sys.time () -. t0;
    }
  in
  Recorder.span_end sp_run
    ~attrs:
      [
        ("k", Json.Int k);
        ("feasible", Json.Bool feasible);
        ("levels", Json.Int nlevels);
        ("ratio", Json.Float coarsen_ratio);
      ];
  { res; levels = nlevels; coarsen_ratio }
