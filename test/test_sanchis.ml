(* Sanchis: the multi-way improvement engine behind Improve(). *)

module Hg = Hypergraph.Hgraph
module State = Partition.State
module Cost = Partition.Cost

let mk_eval ctx remainder st =
  Cost.evaluate Cost.default_params ctx st ~remainder ~step_k:1

let free_windows k = (Array.make k 0, Array.make k (max_int / 2))

let default_spec ?remainder active k =
  let lower, upper = free_windows k in
  { Sanchis.active; remainder; lower; upper }

let circuit = Fpart_testgen.circuit ~name:"sx"

let ctx_for h =
  Cost.context_of Device.xc3020 ~delta:0.9 h

let test_never_worse_value () =
  let h = circuit 3 in
  let ctx = ctx_for h in
  let st = State.create h ~k:2 ~assign:(fun v -> v land 1) in
  let eval = mk_eval ctx (Some 1) in
  let before = eval st in
  let r =
    Sanchis.improve st ~spec:(default_spec ~remainder:1 [| 0; 1 |] 2)
      ~config:Sanchis.default_config ~eval
  in
  Alcotest.(check bool) "value not worse" true
    (Cost.compare_value r.Sanchis.best before <= 0);
  Alcotest.(check bool) "state at best" true
    (Cost.compare_value (eval st) r.Sanchis.best = 0);
  match State.check st with Ok () -> () | Error e -> Alcotest.fail e

let test_matches_fm_on_two_cliques () =
  (* the crafted two-clique instance from the FM tests: Sanchis on two
     blocks must also find the single-bridge cut *)
  let h, _ = Fpart_testgen.two_cliques () in
  let ctx = { Cost.s_max = 5; t_max = 10; f_max = None; m_lower = 2; total_pads = 0 } in
  let st = State.create h ~k:2 ~assign:(fun v -> v land 1) in
  ignore
    (Sanchis.improve st ~spec:(default_spec ~remainder:1 [| 0; 1 |] 2)
       ~config:Sanchis.default_config ~eval:(mk_eval ctx (Some 1)));
  Alcotest.(check int) "bridge cut" 1 (State.cut_size st)

let test_feasible_count_never_drops () =
  let h = circuit ~cells:120 5 in
  let ctx = ctx_for h in
  (* three blocks of 40 (feasible vs s_max 57), remainder block 3 empty...
     make remainder hold the rest *)
  let st = State.create h ~k:3 ~assign:(fun v -> v mod 3) in
  let eval = mk_eval ctx (Some 2) in
  let f_before = (eval st).Cost.feasible_blocks in
  let r =
    Sanchis.improve st
      ~spec:(default_spec ~remainder:2 [| 0; 1; 2 |] 3)
      ~config:Sanchis.default_config ~eval
  in
  Alcotest.(check bool) "f monotone" true
    (r.Sanchis.best.Cost.feasible_blocks >= f_before)

let test_respects_windows () =
  let h = circuit ~cells:100 11 in
  let ctx = ctx_for h in
  let st = State.create h ~k:2 ~assign:(fun v -> if v < 50 then 0 else 1) in
  let s0 = State.size_of st 0 in
  let lower = [| s0 - 5; 0 |] and upper = [| s0 + 5; max_int / 2 |] in
  ignore
    (Sanchis.improve st
       ~spec:{ Sanchis.active = [| 0; 1 |]; remainder = Some 1; lower; upper }
       ~config:Sanchis.default_config ~eval:(mk_eval ctx (Some 1)));
  let s0' = State.size_of st 0 in
  Alcotest.(check bool) "window held" true (s0' >= s0 - 5 && s0' <= s0 + 5)

let test_inactive_blocks_untouched () =
  let h = circuit ~cells:60 13 in
  let ctx = ctx_for h in
  let st = State.create h ~k:4 ~assign:(fun v -> v mod 4) in
  let frozen3 = State.nodes_of_block st 3 in
  ignore
    (Sanchis.improve st
       ~spec:(default_spec ~remainder:1 [| 0; 1 |] 4)
       ~config:Sanchis.default_config ~eval:(mk_eval ctx (Some 1)));
  Alcotest.(check (list int)) "block 3 untouched" frozen3 (State.nodes_of_block st 3)

let test_multiblock_improves_cut () =
  let h = circuit ~cells:90 17 in
  let ctx = ctx_for h in
  (* scatter assignment: plenty to improve *)
  let st = State.create h ~k:3 ~assign:(fun v -> (v * 13) mod 3) in
  let before = State.cut_size st in
  ignore
    (Sanchis.improve st
       ~spec:(default_spec ~remainder:2 [| 0; 1; 2 |] 3)
       ~config:Sanchis.default_config ~eval:(mk_eval ctx (Some 2)));
  Alcotest.(check bool) "cut improved" true (State.cut_size st < before)

let test_stack_restarts_help_or_tie () =
  let h = circuit ~cells:80 23 in
  let ctx = ctx_for h in
  let run stack_depth =
    let st = State.create h ~k:2 ~assign:(fun v -> (v * 31) land 1) in
    let r =
      Sanchis.improve st
        ~spec:(default_spec ~remainder:1 [| 0; 1 |] 2)
        ~config:{ Sanchis.default_config with stack_depth }
        ~eval:(mk_eval ctx (Some 1))
    in
    r.Sanchis.best
  in
  let without = run 0 in
  let with_stacks = run 4 in
  Alcotest.(check bool) "stacks never hurt" true
    (Cost.compare_value with_stacks without <= 0)

let test_pads_move_through_closed_windows () =
  (* Regression for the I/O-critical fix: a pad must migrate to its
     driver's block even when the size window forbids cell moves out of
     its current block. *)
  let bld = Hg.Builder.create () in
  let c0 = Hg.Builder.add_cell bld ~name:"c0" ~size:1 in
  let c1 = Hg.Builder.add_cell bld ~name:"c1" ~size:1 in
  let c2 = Hg.Builder.add_cell bld ~name:"c2" ~size:1 in
  let c3 = Hg.Builder.add_cell bld ~name:"c3" ~size:1 in
  let p = Hg.Builder.add_pad bld ~name:"p" in
  ignore (Hg.Builder.add_net bld ~name:"n01" [ c0; c1 ]);
  ignore (Hg.Builder.add_net bld ~name:"n23" [ c2; c3 ]);
  ignore (Hg.Builder.add_net bld ~name:"np" [ p; c2 ]);
  let h = Hg.Builder.freeze bld in
  (* block 0 = {c0,c1,p}, block 1 = {c2,c3}; net np is cut *)
  let st =
    State.create h ~k:2 ~assign:(fun v -> if v = c2 || v = c3 then 1 else 0)
  in
  Alcotest.(check int) "initially cut" 1 (State.cut_size st);
  (* windows that forbid every cell move: both blocks may not shrink *)
  let spec =
    {
      Sanchis.active = [| 0; 1 |];
      remainder = Some 1;
      lower = [| 10; 10 |];
      upper = [| 10; 10 |];
    }
  in
  let ctx = { Cost.s_max = 10; t_max = 10; f_max = None; m_lower = 1; total_pads = 1 } in
  ignore
    (Sanchis.improve st ~spec ~config:Sanchis.default_config
       ~eval:(mk_eval ctx (Some 1)));
  Alcotest.(check int) "pad crossed over" 0 (State.cut_size st);
  Alcotest.(check int) "cells did not move" 2 (State.size_of st 0)

let test_pin_gain_mode () =
  let h = circuit ~cells:60 29 in
  let ctx = ctx_for h in
  let st = State.create h ~k:2 ~assign:(fun v -> v land 1) in
  let eval = mk_eval ctx (Some 1) in
  let before = eval st in
  let config = { Sanchis.default_config with gain_mode = Sanchis.Pin_gain } in
  let r =
    Sanchis.improve st ~spec:(default_spec ~remainder:1 [| 0; 1 |] 2) ~config ~eval
  in
  Alcotest.(check bool) "pin-gain mode not worse" true
    (Cost.compare_value r.Sanchis.best before <= 0);
  match State.check st with Ok () -> () | Error e -> Alcotest.fail e

let test_drift_limit () =
  let h = circuit ~cells:80 31 in
  let ctx = ctx_for h in
  let run drift_limit =
    let st = State.create h ~k:2 ~assign:(fun v -> (v * 17) land 1) in
    let eval = mk_eval ctx (Some 1) in
    let config = { Sanchis.default_config with drift_limit } in
    let r =
      Sanchis.improve st ~spec:(default_spec ~remainder:1 [| 0; 1 |] 2) ~config ~eval
    in
    (r, eval st)
  in
  let r0, v0 = run (Some 0) in
  (* drift 0 stops at the first non-improving move but still never
     returns a worse solution than the start *)
  let st_fresh = State.create h ~k:2 ~assign:(fun v -> (v * 17) land 1) in
  let start = mk_eval ctx (Some 1) st_fresh in
  Alcotest.(check bool) "drift 0 not worse than start" true
    (Cost.compare_value v0 start <= 0);
  Alcotest.(check bool) "report matches state" true
    (Cost.compare_value r0.Sanchis.best v0 = 0)

let test_invalid_specs () =
  let h = circuit 1 in
  let st = State.create h ~k:2 ~assign:(fun _ -> 0) in
  let eval = mk_eval (ctx_for h) None in
  let lower, upper = free_windows 2 in
  Alcotest.check_raises "one block"
    (Invalid_argument "Sanchis.improve: fewer than two active blocks") (fun () ->
      ignore
        (Sanchis.improve st
           ~spec:{ Sanchis.active = [| 0 |]; remainder = None; lower; upper }
           ~config:Sanchis.default_config ~eval));
  Alcotest.check_raises "repeated"
    (Invalid_argument "Sanchis.improve: repeated active block") (fun () ->
      ignore
        (Sanchis.improve st
           ~spec:{ Sanchis.active = [| 0; 0 |]; remainder = None; lower; upper }
           ~config:Sanchis.default_config ~eval));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sanchis.improve: block out of range") (fun () ->
      ignore
        (Sanchis.improve st
           ~spec:{ Sanchis.active = [| 0; 9 |]; remainder = None; lower; upper }
           ~config:Sanchis.default_config ~eval))

(* Move accounting: [moves_applied] must count exactly the events the
   [sanchis.moves] counter ticks (every applied move, rewound or not)
   and [moves_retained] exactly the surviving prefix — the report used
   to conflate the two. *)
let test_report_move_accounting () =
  let module Obs = Fpart_obs.Metrics in
  let c_moves = Obs.counter "sanchis.moves" in
  let c_rewound = Obs.counter "sanchis.rewound_moves" in
  let h = circuit ~cells:80 37 in
  let ctx = ctx_for h in
  let st = State.create h ~k:2 ~assign:(fun v -> (v * 7) land 1) in
  let eval = mk_eval ctx (Some 1) in
  let m0 = Obs.counter_value c_moves and r0 = Obs.counter_value c_rewound in
  let r =
    Sanchis.improve st ~spec:(default_spec ~remainder:1 [| 0; 1 |] 2)
      ~config:Sanchis.default_config ~eval
  in
  let applied = Obs.counter_value c_moves - m0 in
  let rewound = Obs.counter_value c_rewound - r0 in
  Alcotest.(check int) "moves_applied equals the sanchis.moves counter" applied
    r.Sanchis.moves_applied;
  Alcotest.(check int) "moves_retained = applied - rewound"
    (applied - rewound) r.Sanchis.moves_retained;
  (* the terminating pass applies moves it then rewinds, so a run that
     moved anything must have applied strictly more than it retained *)
  Alcotest.(check bool) "some moves were rewound" true
    (r.Sanchis.moves_applied > r.Sanchis.moves_retained);
  Alcotest.(check bool) "retained non-negative" true (r.Sanchis.moves_retained >= 0)

(* Every gain the hook reports must agree with the reference oracle
   (the same cross-check --selfcheck paranoid wires in production). *)
let test_delta_gains_match_oracle () =
  let h = circuit ~cells:40 41 in
  let ctx = ctx_for h in
  let run ~pin =
    let st = State.create h ~k:2 ~assign:(fun v -> (v * 11) land 1) in
    let violations = ref 0 in
    let config =
      {
        Sanchis.default_config with
        gain_mode = (if pin then Sanchis.Pin_gain else Sanchis.Cut_gain);
        on_gain_update =
          Some
            (fun st ~cell ~target ~gain ->
              violations :=
                !violations
                + Fpart_check.Selfcheck.validate_gain st ~pin ~cell ~target
                    ~gain);
      }
    in
    ignore
      (Sanchis.improve st ~spec:(default_spec ~remainder:1 [| 0; 1 |] 2) ~config
         ~eval:(mk_eval ctx (Some 1)));
    !violations
  in
  Alcotest.(check int) "cut-gain deltas match the oracle" 0 (run ~pin:false);
  Alcotest.(check int) "pin-gain deltas match the oracle" 0 (run ~pin:true)

(* The reference for the incremental gains: after every applied move
   the hook sees every bucketed gain of every touched neighbour, and
   each must equal the from-scratch [State.cut_gain]/[State.pin_gain] —
   across gain modes and bucket disciplines. *)
let prop_delta_gains_match_state =
  QCheck.Test.make ~count:30
    ~name:"every reported delta gain equals the state's gain"
    QCheck.(
      quad (int_range 20 90) (int_range 2 4) (int_range 0 10_000)
        (pair bool bool))
    (fun (cells, k, seed, (pin, fifo)) ->
      (* [int_range] shrinks towards 0, out of its range *)
      QCheck.assume (cells >= 20 && k >= 2);
      let h = circuit ~cells seed in
      let ctx = ctx_for h in
      let remainder = k - 1 in
      let st = State.create h ~k ~assign:(fun v -> (v * 13) mod k) in
      let reference = if pin then State.pin_gain else State.cut_gain in
      let seen = ref 0 and mismatch = ref None in
      let config =
        {
          Sanchis.default_config with
          gain_mode = (if pin then Sanchis.Pin_gain else Sanchis.Cut_gain);
          bucket_discipline =
            (if fifo then Gainbucket.Bucket_array.Fifo
             else Gainbucket.Bucket_array.Lifo);
          max_passes = 3;
          on_gain_update =
            Some
              (fun st ~cell ~target ~gain ->
                incr seen;
                let expect = reference st cell target in
                if expect <> gain && !mismatch = None then
                  mismatch := Some (cell, target, gain, expect));
        }
      in
      ignore
        (Sanchis.improve st
           ~spec:(default_spec ~remainder (Array.init k Fun.id) k)
           ~config ~eval:(mk_eval ctx (Some remainder)));
      match !mismatch with
      | Some (cell, target, gain, expect) ->
        QCheck.Test.fail_reportf
          "cell %d towards block %d: bucket gain %d, state gain %d" cell target
          gain expect
      | None -> !seen > 0 || QCheck.Test.fail_report "the hook saw no gain")

let prop_value_monotone =
  QCheck.Test.make ~count:25 ~name:"improve never returns a worse solution"
    QCheck.(triple (int_range 20 100) (int_range 2 4) (int_range 0 10_000))
    (fun (cells, k, seed) ->
      let h = circuit ~cells seed in
      let ctx = ctx_for h in
      let st = State.create h ~k ~assign:(fun v -> v mod k) in
      let remainder = k - 1 in
      let eval = mk_eval ctx (Some remainder) in
      let before = eval st in
      let r =
        Sanchis.improve st
          ~spec:(default_spec ~remainder (Array.init k Fun.id) k)
          ~config:{ Sanchis.default_config with max_passes = 3 }
          ~eval
      in
      Cost.compare_value r.Sanchis.best before <= 0 && State.check st = Ok ())

let prop_state_matches_reported_best =
  QCheck.Test.make ~count:25 ~name:"final state evaluates to the reported best"
    QCheck.(pair (int_range 20 80) (int_range 0 10_000))
    (fun (cells, seed) ->
      let h = circuit ~cells seed in
      let ctx = ctx_for h in
      let st = State.create h ~k:2 ~assign:(fun v -> v land 1) in
      let eval = mk_eval ctx (Some 1) in
      let r =
        Sanchis.improve st
          ~spec:(default_spec ~remainder:1 [| 0; 1 |] 2)
          ~config:Sanchis.default_config ~eval
      in
      Cost.compare_value (eval st) r.Sanchis.best = 0)

let () =
  Alcotest.run "sanchis"
    [
      ( "unit",
        [
          Alcotest.test_case "never worse" `Quick test_never_worse_value;
          Alcotest.test_case "two cliques" `Quick test_matches_fm_on_two_cliques;
          Alcotest.test_case "f never drops" `Quick test_feasible_count_never_drops;
          Alcotest.test_case "respects windows" `Quick test_respects_windows;
          Alcotest.test_case "inactive untouched" `Quick test_inactive_blocks_untouched;
          Alcotest.test_case "multiblock improves" `Quick test_multiblock_improves_cut;
          Alcotest.test_case "stack restarts" `Quick test_stack_restarts_help_or_tie;
          Alcotest.test_case "pads cross closed windows" `Quick
            test_pads_move_through_closed_windows;
          Alcotest.test_case "pin-gain mode" `Quick test_pin_gain_mode;
          Alcotest.test_case "drift limit" `Quick test_drift_limit;
          Alcotest.test_case "invalid specs" `Quick test_invalid_specs;
          Alcotest.test_case "move accounting" `Quick test_report_move_accounting;
          Alcotest.test_case "delta gains vs oracle" `Quick
            test_delta_gains_match_oracle;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_delta_gains_match_state;
            prop_value_monotone;
            prop_state_matches_reported_best;
          ] );
    ]
