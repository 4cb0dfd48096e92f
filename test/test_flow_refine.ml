(* Flow-based boundary refinement (Flow.Refine): max-flow vs a
   brute-force min-cut enumeration, corridor window safety, the
   apply-or-restore invariant, the zero-headroom edge case of the
   feasible move windows, the outcome each flow.apply span carries, and
   pool determinism of both --refiner backends.

   FPART_TEST_JOBS (default 2) sets the widest pool exercised — CI runs
   the suite a second time with FPART_TEST_JOBS=4. *)

module Hg = Hypergraph.Hgraph
module State = Partition.State
module Cost = Partition.Cost
module Maxflow = Flow.Maxflow
module Refine = Flow.Refine
module Config = Fpart.Config
module Improve = Fpart.Improve
module Driver = Fpart.Driver
module Oracle = Fpart_check.Oracle
module Tg = Fpart_testgen

let test_jobs =
  match Sys.getenv_opt "FPART_TEST_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 2)
  | None -> 2

(* ------------------------------------------------------------------ *)
(* Shared builders                                                     *)
(* ------------------------------------------------------------------ *)

let make_eval ctx ~k st =
  Cost.evaluate Config.default.Config.cost ctx st ~remainder:None ~step_k:k

let scene_setup sc ~s_max ~t_max =
  let hg = Tg.scene_graph sc in
  let init = Tg.scene_init sc in
  let k = sc.Tg.sc_k in
  let st = State.create hg ~k ~assign:(fun v -> init.(v)) in
  let device = Tg.tiny_device ~s_max ~t_max in
  let ctx = Cost.context_of device ~delta:1.0 hg in
  (hg, st, ctx, k)

(* ------------------------------------------------------------------ *)
(* (a) Max-flow against brute-force min-cut enumeration               *)
(* ------------------------------------------------------------------ *)

(* Minimum s-t cut by enumerating every source-side subset that
   contains node 0 and excludes node [n - 1] (≤ 2^10 subsets). *)
let brute_min_cut fn =
  let n = fn.Tg.fn_nodes in
  let best = ref max_int in
  for mask = 0 to (1 lsl (n - 2)) - 1 do
    let in_s v = v = 0 || (v < n - 1 && mask land (1 lsl (v - 1)) <> 0) in
    let cut =
      List.fold_left
        (fun acc (s, d, c) -> if in_s s && not (in_s d) then acc + c else acc)
        0 fn.Tg.fn_edges
    in
    if cut < !best then best := cut
  done;
  !best

let prop_maxflow_bruteforce =
  QCheck.Test.make ~count:150 ~name:"max-flow equals brute-force min-cut"
    (Tg.arb_flownet ())
    (fun fn ->
      let g = Maxflow.create ~nodes:fn.Tg.fn_nodes in
      List.iter
        (fun (s, d, c) -> ignore (Maxflow.add_edge g ~src:s ~dst:d ~cap:c))
        fn.Tg.fn_edges;
      Maxflow.max_flow g ~source:0 ~sink:(fn.Tg.fn_nodes - 1) = brute_min_cut fn)

(* ------------------------------------------------------------------ *)
(* (b) Corridor extraction respects the feasible windows              *)
(* ------------------------------------------------------------------ *)

(* After one corridor min-cut between blocks 0 and 1: no block drifts
   beyond its window (or further outside than it started), pads never
   move, and only the refined pair exchanges nodes. *)
let prop_corridor_window_safe =
  QCheck.Test.make ~count:40 ~name:"corridor refinement stays inside the windows"
    QCheck.(pair (Tg.arb_scene ~max_cells:60 ~max_k:4 ()) (Tg.arb_device ()))
    (fun (sc, (s_max, t_max)) ->
      let hg, st, ctx, k = scene_setup sc ~s_max ~t_max in
      let lower = Array.make k 0 and upper = Array.make k s_max in
      let eval = make_eval ctx ~k in
      let size_before = Array.init k (State.size_of st) in
      let assign_before = State.assignment st in
      ignore (Refine.refine_pair Refine.default_config st ~a:0 ~b:1 ~lower ~upper ~eval);
      let windows_ok = ref true in
      for b = 0 to k - 1 do
        let sz = State.size_of st b in
        if sz > max size_before.(b) upper.(b) then windows_ok := false;
        if sz < min size_before.(b) lower.(b) then windows_ok := false
      done;
      let nodes_ok = ref true in
      Hg.iter_nodes
        (fun v ->
          let b0 = assign_before.(v) and b1 = State.block_of st v in
          if b1 <> b0 then begin
            if Hg.is_pad hg v then nodes_ok := false;
            if not ((b0 = 0 || b0 = 1) && (b1 = 0 || b1 = 1)) then
              nodes_ok := false
          end)
        hg;
      !windows_ok && !nodes_ok)

(* ------------------------------------------------------------------ *)
(* (c) Apply-or-restore: refinement never worsens the value           *)
(* ------------------------------------------------------------------ *)

let prop_refine_never_worsens =
  QCheck.Test.make ~count:30 ~name:"flow refinement never worsens the value"
    QCheck.(pair (Tg.arb_scene ~max_cells:80 ~max_k:4 ()) (Tg.arb_device ()))
    (fun (sc, (s_max, t_max)) ->
      let hg, st, ctx, k = scene_setup sc ~s_max ~t_max in
      let lower = Array.make k 0 and upper = Array.make k s_max in
      let eval = make_eval ctx ~k in
      let v0 = eval st and cut0 = State.cut_size st in
      ignore
        (Refine.refine_active Refine.default_config st
           ~active:(Array.init k Fun.id) ~lower ~upper ~eval);
      let v1 = eval st and cut1 = State.cut_size st in
      (* the incremental bookkeeping survives the snapshot restores *)
      let oracle = Oracle.recompute hg ~k ~assign:(State.block_of st) in
      Cost.compare_value v1 v0 <= 0 && cut1 <= cut0 && oracle.Oracle.cut = cut1)

(* ------------------------------------------------------------------ *)
(* Zero-headroom edge case (feasible windows §3.5)                    *)
(* ------------------------------------------------------------------ *)

(* Two 4-cliques on a device with S_MAX = 4: both blocks sit exactly at
   their upper bound.  [Improve.windows] admits a block AT the bound,
   but the corridor cap arithmetic must grant zero headroom, so the
   pair is skipped untouched. *)
let clique_state () =
  let hg, _ = Tg.two_cliques () in
  let st = State.create hg ~k:2 ~assign:(fun v -> if v < 4 then 0 else 1) in
  let ctx = Cost.context_of (Tg.tiny_device ~s_max:4 ~t_max:64) ~delta:1.0 hg in
  (hg, st, ctx)

let test_zero_headroom_skips () =
  let _, st, ctx = clique_state () in
  let eval = make_eval ctx ~k:2 in
  let before = State.assignment st in
  let outcome =
    Refine.refine_pair Refine.default_config st ~a:0 ~b:1
      ~lower:[| 0; 0 |] ~upper:[| 4; 4 |] ~eval
  in
  Alcotest.(check bool) "skipped" true (outcome = Refine.Skipped);
  Alcotest.(check (array int)) "assignment untouched" before (State.assignment st)

let test_zero_headroom_one_sided () =
  (* only block 1 is at its bound: nothing may move into it *)
  let _, st, ctx = clique_state () in
  let eval = make_eval ctx ~k:2 in
  ignore
    (Refine.refine_pair Refine.default_config st ~a:0 ~b:1
       ~lower:[| 0; 0 |] ~upper:[| 8; 4 |] ~eval);
  Alcotest.(check bool) "block 1 never grows past its bound" true
    (State.size_of st 1 <= 4)

let test_windows_at_s_max () =
  (* pin the window shape the flow caps are derived from: with size
     violations disallowed the non-remainder upper bound IS S_MAX, so a
     block at exactly S_MAX is admitted by the window with zero
     headroom; the remainder stays unbounded *)
  let hg, st, ctx = clique_state () in
  ignore hg;
  let imp =
    {
      Improve.cfg = Config.default;
      params = Config.default.Config.cost;
      ctx;
      trace = Fpart.Trace.create ();
    }
  in
  let strict_lower, strict_upper =
    Improve.windows imp st ~remainder:1 ~allow_violation:false ~two_block:true
  in
  Alcotest.(check int) "non-remainder upper = S_MAX" 4 strict_upper.(0);
  Alcotest.(check int) "remainder lower = 0" 0 strict_lower.(1);
  Alcotest.(check int) "remainder unbounded" max_int strict_upper.(1);
  let _, loose_upper =
    Improve.windows imp st ~remainder:1 ~allow_violation:true ~two_block:true
  in
  Alcotest.(check bool) "violating window only ever widens" true
    (loose_upper.(0) >= strict_upper.(0))

(* ------------------------------------------------------------------ *)
(* Refine-step ordering: hybrid never loses to pure Sanchis           *)
(* ------------------------------------------------------------------ *)

let test_hybrid_matches_or_beats_sanchis () =
  let hg = Tg.circuit ~name:"refine" ~cells:180 ~pads:20 7 in
  let device = Tg.tiny_device ~s_max:48 ~t_max:56 in
  let ctx = Cost.context_of device ~delta:1.0 hg in
  let base = Driver.run ~config:Config.default hg device in
  let refined refiner =
    let st = Driver.final_state base hg in
    Driver.refine { Config.default with Config.refiner } ctx st;
    State.cut_size st
  in
  let sanchis = refined Config.Sanchis_refiner in
  let hybrid = refined Config.Hybrid_refiner in
  Alcotest.(check bool) "hybrid <= sanchis" true (hybrid <= sanchis);
  (* the hybrid's flow sweep alone, under the same strict windows *)
  let st = Driver.final_state base hg in
  let cut_input = State.cut_size st in
  let k = State.k st in
  ignore
    (Refine.refine_active (Config.flow Config.default) st
       ~active:(Array.init k Fun.id) ~lower:(Array.make k 0)
       ~upper:(Array.make k ctx.Cost.s_max) ~eval:(make_eval ctx ~k));
  Alcotest.(check bool) "flow never worsens its input" true
    (State.cut_size st <= cut_input)

(* ------------------------------------------------------------------ *)
(* Telemetry: each flow.apply span carries the pair's outcome         *)
(* ------------------------------------------------------------------ *)

(* One traced flow sweep: every evaluated pair is one flow.apply span
   whose cut_before/cut_after/value_after chain from the input state to
   the final one (a restored pair leaves the cut unchanged, an applied
   one never grows it), and no other record repeats the pair. *)
let test_flow_apply_span_outcome () =
  let module Obs = Fpart_obs in
  let hg = Tg.circuit ~name:"refine" ~cells:180 ~pads:20 7 in
  let device = Tg.tiny_device ~s_max:48 ~t_max:56 in
  let ctx = Cost.context_of device ~delta:1.0 hg in
  let base = Driver.run ~config:Config.default hg device in
  let st = Driver.final_state base hg in
  let k = State.k st in
  let eval = make_eval ctx ~k in
  let cut_input = State.cut_size st in
  let sink, drain = Obs.Sink.memory () in
  Obs.Metrics.reset ();
  Obs.Recorder.reset ();
  Obs.Metrics.set_enabled true;
  Obs.Sink.set sink;
  let report =
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.set_enabled false;
        Obs.Sink.set Obs.Sink.null;
        Obs.Metrics.reset ();
        Obs.Recorder.reset ())
      (fun () ->
        Refine.refine_active (Config.flow Config.default) st
          ~active:(Array.init k Fun.id) ~lower:(Array.make k 0)
          ~upper:(Array.make k ctx.Cost.s_max) ~eval)
  in
  let records = drain () in
  let field name r = Obs.Json.member name r in
  let int_field name r =
    match Option.bind (field name r) Obs.Json.int with
    | Some i -> i
    | None -> Alcotest.failf "flow.apply span without %s" name
  in
  let applies =
    List.filter
      (fun r -> Option.bind (field "name" r) Obs.Json.str = Some "flow.apply")
      records
  in
  Alcotest.(check bool) "pairs evaluated" true (applies <> []);
  Alcotest.(check bool) "no more spans than pairs tried" true
    (List.length applies <= report.Refine.pairs_tried);
  Alcotest.(check int) "applied spans are the applied pairs"
    report.Refine.pairs_applied
    (List.length
       (List.filter (fun r -> field "applied" r = Some (Obs.Json.Bool true)) applies));
  let last_cut =
    List.fold_left
      (fun cut r ->
        let before = int_field "cut_before" r and after = int_field "cut_after" r in
        Alcotest.(check int) "cut_before is the previous pair's cut_after" cut before;
        if field "applied" r = Some (Obs.Json.Bool true) then
          Alcotest.(check bool) "an applied pair never grows the cut" true
            (after <= before)
        else Alcotest.(check int) "a restored pair keeps the cut" before after;
        after)
      cut_input applies
  in
  Alcotest.(check int) "last cut_after is the final cut" (State.cut_size st) last_cut;
  Alcotest.(check bool) "last value_after is the final value" true
    (field "value_after" (List.nth applies (List.length applies - 1))
    = Some (Cost.value_to_json (eval st)));
  Alcotest.(check int) "no flow_pair records" 0
    (List.length
       (List.filter
          (fun r -> Option.bind (field "type" r) Obs.Json.str = Some "flow_pair")
          records))

(* ------------------------------------------------------------------ *)
(* Pool determinism: both refiners are jobs-invariant                 *)
(* ------------------------------------------------------------------ *)

let test_pool_identity () =
  let hg = Tg.circuit ~name:"pool" ~cells:160 ~pads:24 1 in
  let device = Tg.tiny_device ~s_max:40 ~t_max:48 in
  List.iter
    (fun refiner ->
      let name = Config.refiner_name refiner in
      let config = { Config.default with Config.refiner } in
      let r1 = Driver.run_best ~config ~runs:4 hg device in
      let rn =
        Driver.run_best ~config:{ config with Config.jobs = test_jobs } ~runs:4 hg device
      in
      Alcotest.(check int) (name ^ ": k") r1.Driver.k rn.Driver.k;
      Alcotest.(check int) (name ^ ": cut") r1.Driver.cut rn.Driver.cut;
      Alcotest.(check (array int))
        (name ^ ": assignment")
        r1.Driver.assignment rn.Driver.assignment)
    [ Config.Sanchis_refiner; Config.Hybrid_refiner ]

(* The names every surface parses (--refiner, the serve "refiner"
   field, Config.digest): two refiners, and "flow" is not one. *)
let test_refiner_names () =
  List.iter
    (fun refiner ->
      let name = Config.refiner_name refiner in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Config.refiner_of_string name = Some refiner))
    [ Config.Sanchis_refiner; Config.Hybrid_refiner ];
  Alcotest.(check string) "default" "sanchis"
    (Config.refiner_name Config.default.Config.refiner);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " rejected") true (Config.refiner_of_string name = None))
    [ "flow"; "Hybrid"; "" ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "flow-refine"
    [
      ( "zero-headroom",
        [
          Alcotest.test_case "pair skipped" `Quick test_zero_headroom_skips;
          Alcotest.test_case "one-sided" `Quick test_zero_headroom_one_sided;
          Alcotest.test_case "window shape" `Quick test_windows_at_s_max;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "hybrid vs sanchis" `Quick
            test_hybrid_matches_or_beats_sanchis;
          Alcotest.test_case "pool identity" `Quick test_pool_identity;
          Alcotest.test_case "refiner names" `Quick test_refiner_names;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "flow.apply span carries the outcome" `Quick
            test_flow_apply_span_outcome;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_maxflow_bruteforce;
            prop_corridor_window_safe;
            prop_refine_never_worsens;
          ] );
    ]
