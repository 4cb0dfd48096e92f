module State = Partition.State
module Cost = Partition.Cost

type t = {
  cfg : Config.t;
  params : Cost.params;
  ctx : Cost.context;
  trace : Trace.t;
}

(* Move-region bounds (section 3.5).  The lower bound rounds down and
   the upper bound rounds up, so the window always contains the real
   interval [ε_min·S_MAX, ε_max·S_MAX]: truncating the upper bound
   (the historical [int_of_float] behaviour) forbade block sizes the
   paper's region admits whenever ε_max·S_MAX is fractional. *)
let scale_lower s_max eps = int_of_float (Float.floor (eps *. float_of_int s_max))
let scale_upper s_max eps = int_of_float (Float.ceil (eps *. float_of_int s_max))

let windows t st ~remainder ~allow_violation ~two_block =
  let k = State.k st in
  let s_max = t.ctx.Cost.s_max in
  let eps_min = if two_block then t.cfg.Config.eps_min_two else Config.eps_min_multi in
  let eps_max = if two_block then Config.eps_max_two else Config.eps_max_multi in
  let lower = Array.make k 0 in
  let upper = Array.make k max_int in
  for b = 0 to k - 1 do
    if b <> remainder then begin
      lower.(b) <- scale_lower s_max eps_min;
      upper.(b) <- (if allow_violation then scale_upper s_max eps_max else s_max)
    end
  done;
  (lower, upper)

module Obs = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder
module Json = Fpart_obs.Json
module Selfcheck = Fpart_check.Selfcheck

let run t st ~iteration ~remainder ~active ~allow_violation ~two_block ~kind =
  let lower, upper = windows t st ~remainder ~allow_violation ~two_block in
  let spec = { Sanchis.active; remainder = Some remainder; lower; upper } in
  (* Per-move evaluation goes through a dirty-block tracker: only the
     two blocks a move touches are re-derived, and the result is
     bit-identical to a fresh [Cost.evaluate] (rewinds and snapshot
     restores are caught by the tracker's self-contained dirty test). *)
  let tracker =
    Cost.tracker t.params t.ctx st ~remainder:(Some remainder) ~step_k:iteration
  in
  let eval st = Cost.tracked_evaluate tracker st in
  let telemetry = Obs.enabled () in
  let cut_before = if telemetry then State.cut_size st else 0 in
  let value_before = if telemetry then Some (eval st) else None in
  (* The recorder span parents this Improve() call's [pass] records
     (Sanchis emits them under the open span) and carries the call's
     outcome as attrs. *)
  let sp = Recorder.span_begin "improve.pass" in
  let refiner = t.cfg.Config.refiner in
  let report = Sanchis.improve st ~spec ~config:(Config.sanchis t.cfg) ~eval in
  (* The hybrid escalates to flow exactly when Sanchis stalled: a pass
     that retained zero moves means the gain buckets see no profitable
     trajectory, which is the situation corridor min-cuts unblock. *)
  let flow_report =
    if refiner = Config.Hybrid_refiner && report.Sanchis.moves_retained = 0 then
      Some (Flow.Refine.refine_active (Config.flow t.cfg) st ~active ~lower ~upper ~eval)
    else None
  in
  (* the per-move checks of the paranoid level ride in [Config.sanchis] *)
  if Selfcheck.at_least t.cfg.Config.selfcheck Selfcheck.Cheap then
    ignore (Selfcheck.validate ~where:"improve.boundary" st);
  (* After the Sanchis passes the state sits at the retained best, so a
     fresh tracked evaluation reproduces [report.best] bit-identically;
     after a flow escalation it reflects the applied corridor cuts. *)
  let value_after = eval st in
  let flow_passes, flow_moves =
    match flow_report with
    | Some f -> (f.Flow.Refine.passes_run, f.Flow.Refine.moves_applied)
    | None -> (0, 0)
  in
  let passes = report.Sanchis.passes_run + flow_passes in
  let moves = report.Sanchis.moves_applied + flow_moves in
  let moves_retained = report.Sanchis.moves_retained + flow_moves in
  let restarts = report.Sanchis.restarts in
  let flow_attrs =
    match flow_report with
    | None -> []
    | Some f ->
      [
        ("flow_pairs", Json.Int f.Flow.Refine.pairs_tried);
        ("flow_applied", Json.Int f.Flow.Refine.pairs_applied);
        ("flow_moves", Json.Int f.Flow.Refine.moves_applied);
      ]
  in
  (* the cut and value trajectory is built only for a recorded span *)
  let outcome_attrs =
    match value_before with
    | Some v ->
      [
        ("cut_before", Json.Int cut_before);
        ("cut_after", Json.Int (State.cut_size st));
        ("value_before", Cost.value_to_json v);
        ("value_after", Cost.value_to_json value_after);
      ]
    | _ -> []
  in
  Recorder.span_end sp
    ~attrs:
      ([
         ("iteration", Json.Int iteration);
         ("kind", Json.Str (Trace.kind_name kind));
         ("refiner", Json.Str (Config.refiner_name refiner));
         ("blocks", Json.List (Array.to_list (Array.map (fun b -> Json.Int b) active)));
         ("passes", Json.Int passes);
         ("moves", Json.Int moves);
         ("moves_retained", Json.Int moves_retained);
         ("restarts", Json.Int restarts);
       ]
      @ flow_attrs @ outcome_attrs);
  Trace.record t.trace
    (Trace.Improve
       {
         iteration;
         kind;
         blocks = Array.to_list active;
         value = value_after;
         passes;
         moves;
         restarts;
       })

let pair t st ~iteration ~remainder ~other ~allow_violation ~kind =
  if other <> remainder then
    run t st ~iteration ~remainder ~active:[| other; remainder |] ~allow_violation
      ~two_block:true ~kind

let all_blocks t st ~iteration ~remainder ~allow_violation =
  let active = Array.init (State.k st) (fun i -> i) in
  run t st ~iteration ~remainder ~active ~allow_violation ~two_block:false
    ~kind:Trace.All_blocks
