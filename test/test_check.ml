(* Fpart_check: the reference oracles, the differential move-log
   harness and the runtime self-check levels. *)

module Hg = Hypergraph.Hgraph
module State = Partition.State
module Cost = Partition.Cost
module Oracle = Fpart_check.Oracle
module Diff = Fpart_check.Diff
module Selfcheck = Fpart_check.Selfcheck
module Tg = Fpart_testgen

let sgn x = compare x 0

(* ------------------------------------------------------------------ *)
(* Oracle vs the incremental state                                     *)

let prop_incremental_matches_oracle =
  QCheck.Test.make ~count:30
    ~name:"incremental state matches the oracle after random moves"
    (Tg.arb_scene ~max_cells:80 ())
    (fun sc ->
      let hg = Tg.scene_graph sc in
      let init = Tg.scene_init sc in
      let st = State.create hg ~k:sc.Tg.sc_k ~assign:(fun v -> init.(v)) in
      List.iter (fun (v, d) -> State.move st v d) (Tg.scene_moves sc);
      Oracle.diff_state st = [])

let prop_gain_agreement =
  QCheck.Test.make ~count:25
    ~name:"State.cut_gain/pin_gain agree with the oracle along a move sequence"
    (Tg.arb_scene ~max_cells:60 ())
    (fun sc ->
      let hg = Tg.scene_graph sc in
      let k = sc.Tg.sc_k in
      let init = Tg.scene_init sc in
      let st = State.create hg ~k ~assign:(fun v -> init.(v)) in
      let assign = Array.copy init in
      List.for_all
        (fun (v, d) ->
          let ok =
            State.cut_gain st v d = Oracle.cut_gain hg ~k ~assign v d
            && State.pin_gain st v d = Oracle.pin_gain hg ~k ~assign v d
          in
          State.move st v d;
          assign.(v) <- d;
          ok)
        (Tg.scene_moves sc))

let prop_evaluate_agreement =
  QCheck.Test.make ~count:25
    ~name:"Oracle.evaluate equals Cost.evaluate on a live state"
    (Tg.arb_scene ~max_cells:80 ())
    (fun sc ->
      let hg = Tg.scene_graph sc in
      let ctx = Cost.context_of Device.xc3020 ~delta:0.9 hg in
      let k = sc.Tg.sc_k in
      let init = Tg.scene_init sc in
      let st = State.create hg ~k ~assign:(fun v -> init.(v)) in
      let remainder = Some (k - 1) in
      let a = Cost.evaluate Cost.default_params ctx st ~remainder ~step_k:1 in
      let b =
        Oracle.evaluate Cost.default_params ctx hg ~k ~assign:init ~remainder
          ~step_k:1
      in
      Cost.compare_value a b = 0
      && a.Cost.feasible_blocks = b.Cost.feasible_blocks
      && a.Cost.t_sum = b.Cost.t_sum)

(* ------------------------------------------------------------------ *)
(* Differential move-log harness                                       *)

let prop_replay_clean =
  QCheck.Test.make ~count:25 ~name:"a recorded move log replays cleanly"
    (Tg.arb_scene ~max_cells:60 ())
    (fun sc ->
      let hg = Tg.scene_graph sc in
      let init = Tg.scene_init sc in
      let moves = Tg.scene_moves sc in
      let log = Diff.log_of_moves hg ~k:sc.Tg.sc_k ~init ~moves in
      Diff.replay hg ~k:sc.Tg.sc_k ~init ~log = Ok (List.length moves))

(* Acceptance criterion of the issue: an intentionally corrupted move
   log must be caught, at the exact corrupted entry. *)
let test_corrupted_log_caught () =
  let sc = { Tg.sc_cells = 30; sc_pads = 6; sc_k = 3; sc_seed = 7 } in
  let hg = Tg.scene_graph sc in
  let init = Tg.scene_init sc in
  let moves = Tg.scene_moves sc in
  let log = Diff.log_of_moves hg ~k:3 ~init ~moves in
  (match Diff.replay hg ~k:3 ~init ~log with
  | Ok n -> Alcotest.(check int) "clean replay" (List.length moves) n
  | Error v -> Alcotest.failf "clean log rejected: %a" Diff.pp_violation v);
  let corrupt_at i f = List.mapi (fun j e -> if j = i then f e else e) log in
  (match
     Diff.replay hg ~k:3 ~init
       ~log:
         (corrupt_at 5 (fun e ->
              { e with Diff.gain = Option.map (fun g -> g + 1) e.Diff.gain }))
   with
  | Ok _ -> Alcotest.fail "corrupted gain claim not caught"
  | Error v -> Alcotest.(check int) "gain caught at entry" 5 v.Diff.index);
  match
    Diff.replay hg ~k:3 ~init
      ~log:
        (corrupt_at 9 (fun e ->
             { e with Diff.cut_after = Option.map (fun c -> c + 1) e.Diff.cut_after }))
  with
  | Ok _ -> Alcotest.fail "corrupted cut claim not caught"
  | Error v -> Alcotest.(check int) "cut caught at entry" 9 v.Diff.index

(* ------------------------------------------------------------------ *)
(* Brute-force bipartitioner                                           *)

let test_best_bipartition_matches_enumeration () =
  let hg = Tg.circuit ~cells:6 ~pads:2 3 in
  let ctx = { Cost.s_max = 4; t_max = 8; f_max = None; m_lower = 2; total_pads = 2 } in
  let params = Cost.default_params in
  let oracle_assign, oracle_value = Oracle.best_bipartition params ctx hg in
  (* independent enumeration through the live state *)
  let n = Hg.num_nodes hg in
  let best = ref None in
  Tg.iter_assignments n 2 (fun assign ->
      let st = State.create hg ~k:2 ~assign:(fun v -> assign.(v)) in
      let v = Cost.evaluate params ctx st ~remainder:None ~step_k:1 in
      match !best with
      | Some bv when Cost.compare_value v bv >= 0 -> ()
      | _ -> best := Some v);
  match !best with
  | None -> Alcotest.fail "no assignments enumerated"
  | Some bv ->
    Alcotest.(check int) "same optimum" 0 (Cost.compare_value oracle_value bv);
    let st = State.create hg ~k:2 ~assign:(fun v -> oracle_assign.(v)) in
    let v = Cost.evaluate params ctx st ~remainder:None ~step_k:1 in
    Alcotest.(check int) "assignment evaluates to the reported value" 0
      (Cost.compare_value v oracle_value)

let test_best_bipartition_rejects_large () =
  let hg = Tg.circuit ~cells:30 ~pads:4 1 in
  let ctx = Cost.context_of Device.xc3020 ~delta:0.9 hg in
  Alcotest.check_raises "size guard"
    (Invalid_argument "Oracle.best_bipartition: more than 20 nodes") (fun () ->
      ignore (Oracle.best_bipartition Cost.default_params ctx hg))

(* ------------------------------------------------------------------ *)
(* Lexicographic comparator (table-driven)                             *)

let v ~f ~d ~t ~e = { Cost.feasible_blocks = f; distance = d; t_sum = t; io_bal = e }

let test_compare_value_table () =
  let cases =
    [
      ("more feasible blocks beat everything",
       v ~f:3 ~d:9.0 ~t:100 ~e:1.0, v ~f:2 ~d:0.0 ~t:0 ~e:0.0, -1);
      ("lower distance wins at equal f",
       v ~f:2 ~d:0.1 ~t:100 ~e:1.0, v ~f:2 ~d:0.2 ~t:0 ~e:0.0, -1);
      ("distances within 1e-9 tie, T_SUM decides",
       v ~f:2 ~d:0.1 ~t:5 ~e:1.0, v ~f:2 ~d:(0.1 +. 1e-12) ~t:6 ~e:0.0, -1);
      ("T_SUM ties fall to the external-I/O balance",
       v ~f:2 ~d:0.1 ~t:5 ~e:0.5, v ~f:2 ~d:0.1 ~t:5 ~e:0.7, -1);
      ("io balances within 1e-9 tie completely",
       v ~f:2 ~d:0.1 ~t:5 ~e:0.5, v ~f:2 ~d:0.1 ~t:5 ~e:(0.5 +. 1e-12), 0);
      ("identical tuples compare equal",
       v ~f:2 ~d:0.1 ~t:5 ~e:0.5, v ~f:2 ~d:0.1 ~t:5 ~e:0.5, 0);
    ]
  in
  List.iter
    (fun (name, a, b, expected) ->
      Alcotest.(check int) name expected (sgn (Cost.compare_value a b));
      Alcotest.(check int) (name ^ " (antisymmetric)") (-expected)
        (sgn (Cost.compare_value b a)))
    cases

(* ------------------------------------------------------------------ *)
(* Feasible-move-region windows (table-driven)                         *)

let windows_for ~s_max ~allow_violation ~two_block st =
  let ctx = { Cost.s_max; t_max = 50; f_max = None; m_lower = 2; total_pads = 4 } in
  let t =
    {
      Fpart.Improve.cfg = Fpart.Config.default;
      params = Cost.default_params;
      ctx;
      trace = Fpart.Trace.create ();
    }
  in
  Fpart.Improve.windows t st ~remainder:2 ~allow_violation ~two_block

let test_windows_table () =
  let hg = Tg.circuit ~cells:10 ~pads:2 1 in
  (* block 1 left empty on purpose: windows must not depend on content *)
  let st = State.create hg ~k:3 ~assign:(fun v -> if v = 0 then 0 else 2) in
  Alcotest.(check int) "block 1 really empty" 0 (State.cells_of st 1);
  let cases =
    (* (name, s_max, allow_violation, two_block, exp lower, exp upper) *)
    [
      ("two-block, violations allowed", 100, true, true, 95, 105);
      ("two-block, at the theoretical minimum", 100, false, true, 95, 100);
      ("multi-block, violations allowed", 100, true, false, 30, 105);
      ("multi-block, at the theoretical minimum", 100, false, false, 30, 100);
      (* lower = floor(ε_min·S_MAX), upper = ceil(ε_max·S_MAX): the
         window must contain the paper's real interval, so for
         S_MAX = 57 the upper bound is ceil(1.05·57) = ceil(59.85) = 60
         (plain truncation used to give 59 and forbade size 60). *)
      ("non-divisible S_MAX rounds outward (two-block)", 57, true, true, 54, 60);
      ("non-divisible S_MAX, strict upper", 57, false, true, 54, 57);
      ("non-divisible S_MAX rounds outward (multi-block)", 57, true, false, 17, 60);
    ]
  in
  List.iter
    (fun (name, s_max, allow_violation, two_block, exp_lo, exp_hi) ->
      let lower, upper = windows_for ~s_max ~allow_violation ~two_block st in
      Alcotest.(check int) (name ^ ": lower") exp_lo lower.(0);
      Alcotest.(check int) (name ^ ": upper") exp_hi upper.(0);
      Alcotest.(check int) (name ^ ": empty block same lower") exp_lo lower.(1);
      Alcotest.(check int) (name ^ ": empty block same upper") exp_hi upper.(1);
      Alcotest.(check int) (name ^ ": remainder lower unbounded") 0 lower.(2);
      Alcotest.(check int) (name ^ ": remainder upper unbounded") max_int upper.(2))
    cases

(* ------------------------------------------------------------------ *)
(* Self-check levels                                                   *)

let test_selfcheck_levels () =
  Alcotest.(check bool) "paranoid covers cheap" true
    (Selfcheck.at_least Selfcheck.Paranoid Selfcheck.Cheap);
  Alcotest.(check bool) "cheap covers cheap" true
    (Selfcheck.at_least Selfcheck.Cheap Selfcheck.Cheap);
  Alcotest.(check bool) "off does not cover cheap" false
    (Selfcheck.at_least Selfcheck.Off Selfcheck.Cheap);
  List.iter
    (fun l ->
      match Selfcheck.level_of_string (Selfcheck.level_name l) with
      | Ok l' -> Alcotest.(check bool) "level name round-trips" true (l = l')
      | Error e -> Alcotest.fail e)
    [ Selfcheck.Off; Selfcheck.Cheap; Selfcheck.Paranoid ];
  (match Selfcheck.level_of_string "PARANOID" with
  | Ok Selfcheck.Paranoid -> ()
  | _ -> Alcotest.fail "case-insensitive parse failed");
  match Selfcheck.level_of_string "bogus" with
  | Ok _ -> Alcotest.fail "accepted a bogus level"
  | Error _ -> ()

let test_selfcheck_validate_clean () =
  let hg = Tg.circuit ~cells:20 ~pads:4 2 in
  let st = State.create hg ~k:2 ~assign:(fun v -> v land 1) in
  let checks0 = Selfcheck.checks_run () in
  let viol0 = Selfcheck.violations_seen () in
  Alcotest.(check int) "clean state has no violations" 0 (Selfcheck.validate st);
  Alcotest.(check int) "check counted" (checks0 + 1) (Selfcheck.checks_run ());
  Alcotest.(check int) "no violation counted" viol0 (Selfcheck.violations_seen ())

let test_driver_selfcheck_clean () =
  List.iter
    (fun (level, cells) ->
      let hg = Tg.circuit ~cells ~pads:(cells / 8) 9 in
      let config = { Fpart.Config.default with selfcheck = level } in
      let checks0 = Selfcheck.checks_run () in
      let viol0 = Selfcheck.violations_seen () in
      let r = Fpart.Driver.run ~config hg Device.xc2064 in
      Alcotest.(check bool) "partition feasible" true r.Fpart.Driver.feasible;
      Alcotest.(check bool) "checks actually ran" true
        (Selfcheck.checks_run () > checks0);
      Alcotest.(check int) "no violations" viol0 (Selfcheck.violations_seen ()))
    [ (Selfcheck.Cheap, 160); (Selfcheck.Paranoid, 48) ]

(* [Driver.refine] (mlevel uncoarsening, --cluster refinement, the ECO
   warm start) takes its engine hooks from [Config.sanchis], so at the
   paranoid level it checks gains as well as the state after each move:
   more checks than one per move plus the boundary check. *)
let test_refine_paranoid_checks_gains () =
  let hg = Tg.circuit ~cells:120 ~pads:15 11 in
  let device = Device.xc2064 in
  let r = Fpart.Driver.run hg device in
  let k = r.Fpart.Driver.k in
  let assign =
    Array.mapi
      (fun v b -> if v mod 5 = 0 then (b + 1) mod k else b)
      r.Fpart.Driver.assignment
  in
  let st = State.create hg ~k ~assign:(fun v -> assign.(v)) in
  let ctx = Cost.context_of device ~delta:r.Fpart.Driver.delta hg in
  let config = { Fpart.Config.default with selfcheck = Selfcheck.Paranoid } in
  let moves = Fpart_obs.Metrics.counter "sanchis.moves" in
  let moves0 = Fpart_obs.Metrics.counter_value moves in
  let checks0 = Selfcheck.checks_run () in
  let viol0 = Selfcheck.violations_seen () in
  Fpart.Driver.refine config ctx st;
  let moved = Fpart_obs.Metrics.counter_value moves - moves0 in
  let checks = Selfcheck.checks_run () - checks0 in
  Alcotest.(check bool) "refine moved cells" true (moved > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d checks for %d moves: gains checked too" checks moved)
    true
    (checks > moved + 1);
  Alcotest.(check int) "no violations" viol0 (Selfcheck.violations_seen ())

(* ------------------------------------------------------------------ *)
(* Partition.Check consistency cross-validation (re-exported)          *)

let test_partition_check_consistent () =
  let hg = Tg.circuit ~cells:40 ~pads:6 5 in
  let ctx = Cost.context_of Device.xc3020 ~delta:0.9 hg in
  let st = State.create hg ~k:3 ~assign:(fun v -> v mod 3) in
  let r = Fpart_check.Check.of_state st ~ctx in
  Alcotest.(check bool) "report consistent" true r.Fpart_check.Check.consistent;
  List.iter
    (fun b ->
      Alcotest.(check bool) "size consistent" true b.Fpart_check.Check.size_consistent;
      Alcotest.(check bool) "pins consistent" true b.Fpart_check.Check.pins_consistent)
    r.Fpart_check.Check.blocks

let () =
  Alcotest.run "check"
    [
      ( "oracle",
        [
          Alcotest.test_case "best bipartition = enumeration" `Quick
            test_best_bipartition_matches_enumeration;
          Alcotest.test_case "best bipartition size guard" `Quick
            test_best_bipartition_rejects_large;
        ] );
      ( "diff",
        [
          Alcotest.test_case "corrupted log caught" `Quick test_corrupted_log_caught;
        ] );
      ( "compare",
        [ Alcotest.test_case "lexicographic table" `Quick test_compare_value_table ] );
      ( "windows",
        [ Alcotest.test_case "move-region table" `Quick test_windows_table ] );
      ( "selfcheck",
        [
          Alcotest.test_case "levels" `Quick test_selfcheck_levels;
          Alcotest.test_case "validate clean state" `Quick test_selfcheck_validate_clean;
          Alcotest.test_case "driver under selfcheck" `Quick test_driver_selfcheck_clean;
          Alcotest.test_case "paranoid refine checks gains" `Quick
            test_refine_paranoid_checks_gains;
        ] );
      ( "partition-check",
        [
          Alcotest.test_case "report cross-validates" `Quick
            test_partition_check_consistent;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_incremental_matches_oracle;
            prop_gain_agreement;
            prop_evaluate_agreement;
            prop_replay_clean;
          ] );
    ]
