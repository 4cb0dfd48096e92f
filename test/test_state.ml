(* State: incremental k-way partition bookkeeping.  The key property is
   that every cached quantity (sizes, pins, pads, spans, cut, T_SUM)
   stays equal to a from-scratch recomputation under arbitrary move
   sequences — State.check does the recomputation. *)

module Hg = Hypergraph.Hgraph
module State = Partition.State

(* Reference circuit:

     pads : p0 p1
     cells: a b c d (unit size)
     nets : n0={p0,a} n1={a,b} n2={b,c,d} n3={d,p1}                  *)
let fixture () =
  let bld = Hg.Builder.create () in
  let a = Hg.Builder.add_cell bld ~name:"a" ~size:1 in
  let b = Hg.Builder.add_cell bld ~name:"b" ~size:1 in
  let c = Hg.Builder.add_cell bld ~name:"c" ~size:1 in
  let d = Hg.Builder.add_cell bld ~name:"d" ~size:1 in
  let p0 = Hg.Builder.add_pad bld ~name:"p0" in
  let p1 = Hg.Builder.add_pad bld ~name:"p1" in
  ignore (Hg.Builder.add_net bld ~name:"n0" [ p0; a ]);
  ignore (Hg.Builder.add_net bld ~name:"n1" [ a; b ]);
  ignore (Hg.Builder.add_net bld ~name:"n2" [ b; c; d ]);
  ignore (Hg.Builder.add_net bld ~name:"n3" [ d; p1 ]);
  (Hg.Builder.freeze bld, (a, b, c, d, p0, p1))

let test_initial_bookkeeping () =
  let h, (a, b, _, _, p0, _) = fixture () in
  (* blocks: {a,b,p0} = 0, {c,d,p1} = 1 *)
  let st =
    State.create h ~k:2 ~assign:(fun v -> if v = a || v = b || v = p0 then 0 else 1)
  in
  Alcotest.(check int) "size 0" 2 (State.size_of st 0);
  Alcotest.(check int) "size 1" 2 (State.size_of st 1);
  Alcotest.(check int) "pads 0" 1 (State.pads_of st 0);
  Alcotest.(check int) "pads 1" 1 (State.pads_of st 1);
  Alcotest.(check int) "cells 0" 3 (State.cells_of st 0);
  (* pins: block0 sees n0 (pad inside) and n2 (cut); block1 sees n2 and n3 *)
  Alcotest.(check int) "pins 0" 2 (State.pins_of st 0);
  Alcotest.(check int) "pins 1" 2 (State.pins_of st 1);
  Alcotest.(check int) "cut" 1 (State.cut_size st);
  Alcotest.(check int) "t_sum" 4 (State.total_pins st)

let test_pad_pin_model () =
  let h, _ = fixture () in
  (* everything in one block: no cut nets, but both pad nets pay a pin *)
  let st = State.create h ~k:1 ~assign:(fun _ -> 0) in
  Alcotest.(check int) "cut" 0 (State.cut_size st);
  Alcotest.(check int) "pins = pad nets" 2 (State.pins_of st 0)

let test_move_updates () =
  let h, (a, b, c, d, p0, p1) = fixture () in
  let st =
    State.create h ~k:2 ~assign:(fun v -> if v = a || v = b || v = p0 then 0 else 1)
  in
  State.move st b 1;
  (* now {a,p0} vs {b,c,d,p1}: only n1 is cut *)
  Alcotest.(check int) "cut after move" 1 (State.cut_size st);
  Alcotest.(check int) "size 0" 1 (State.size_of st 0);
  Alcotest.(check int) "size 1" 3 (State.size_of st 1);
  (* block0 pins: n0 (pad), n1 (cut) = 2; block1: n1 (cut), n3 (pad) = 2 *)
  Alcotest.(check int) "pins 0" 2 (State.pins_of st 0);
  Alcotest.(check int) "pins 1" 2 (State.pins_of st 1);
  (match State.check st with Ok () -> () | Error e -> Alcotest.fail e);
  ignore (c, d, p1)

let test_move_noop () =
  let h, (a, _, _, _, _, _) = fixture () in
  let st = State.create h ~k:2 ~assign:(fun v -> v land 1) in
  let cut = State.cut_size st in
  State.move st a (State.block_of st a);
  Alcotest.(check int) "noop keeps cut" cut (State.cut_size st)

let test_move_pad () =
  let h, (_, _, _, _, p0, _) = fixture () in
  let st = State.create h ~k:2 ~assign:(fun _ -> 0) in
  State.move st p0 1;
  (* n0 = {p0, a} becomes cut: block1 pays a pin (pad inside), block0
     pays one too (cut net) *)
  Alcotest.(check int) "cut" 1 (State.cut_size st);
  Alcotest.(check int) "pads moved" 1 (State.pads_of st 1);
  Alcotest.(check int) "size unchanged" 0 (State.size_of st 1);
  match State.check st with Ok () -> () | Error e -> Alcotest.fail e

let test_cut_gain_matches_move () =
  let h, (a, b, c, d, p0, p1) = fixture () in
  let st = State.create h ~k:2 ~assign:(fun v -> if v = a || v = p0 then 0 else 1) in
  List.iter
    (fun v ->
      let target = 1 - State.block_of st v in
      let predicted = State.cut_gain st v target in
      let before = State.cut_size st in
      State.move st v target;
      let actual = before - State.cut_size st in
      Alcotest.(check int) (Printf.sprintf "gain of node %d" v) predicted actual;
      State.move st v (1 - target))
    [ a; b; c; d; p0; p1 ]

let test_pin_gain_matches_move () =
  let h, (a, b, c, d, p0, p1) = fixture () in
  let st = State.create h ~k:2 ~assign:(fun v -> if v = a || v = p0 then 0 else 1) in
  List.iter
    (fun v ->
      let target = 1 - State.block_of st v in
      let predicted = State.pin_gain st v target in
      let before = State.total_pins st in
      State.move st v target;
      let actual = before - State.total_pins st in
      Alcotest.(check int) (Printf.sprintf "pin gain of node %d" v) predicted actual;
      State.move st v (1 - target))
    [ a; b; c; d; p0; p1 ]

let test_net_span_counts () =
  let h, (a, b, c, d, _, _) = fixture () in
  let st = State.create h ~k:4 ~assign:(fun _ -> 0) in
  State.move st b 1;
  State.move st c 2;
  State.move st d 3;
  (* n2 = {b,c,d} spans blocks 1,2,3 *)
  let n2 = 2 in
  Alcotest.(check int) "span" 3 (State.net_span st n2);
  Alcotest.(check int) "count in 1" 1 (State.net_count st n2 1);
  Alcotest.(check int) "count in 0" 0 (State.net_count st n2 0);
  ignore a

let test_copy_independent () =
  let h, (a, _, _, _, _, _) = fixture () in
  let st = State.create h ~k:2 ~assign:(fun _ -> 0) in
  let st2 = State.copy st in
  State.move st a 1;
  Alcotest.(check int) "copy untouched" 0 (State.block_of st2 a);
  match State.check st2 with Ok () -> () | Error e -> Alcotest.fail e

let test_assignment_roundtrip () =
  let h, (a, b, _, _, _, _) = fixture () in
  let st = State.create h ~k:3 ~assign:(fun _ -> 0) in
  State.move st a 1;
  State.move st b 2;
  let saved = State.assignment st in
  State.move st a 0;
  State.move st b 0;
  State.load_assignment st saved;
  Alcotest.(check int) "a restored" 1 (State.block_of st a);
  Alcotest.(check int) "b restored" 2 (State.block_of st b);
  match State.check st with Ok () -> () | Error e -> Alcotest.fail e

let test_nodes_of_block () =
  let h, (a, b, _, _, _, _) = fixture () in
  let st = State.create h ~k:2 ~assign:(fun v -> if v = a || v = b then 1 else 0) in
  Alcotest.(check (list int)) "block 1" [ a; b ] (State.nodes_of_block st 1)

let test_create_errors () =
  let h, _ = fixture () in
  Alcotest.check_raises "k < 1" (Invalid_argument "State.create: k < 1") (fun () ->
      ignore (State.create h ~k:0 ~assign:(fun _ -> 0)));
  (try
     ignore (State.create h ~k:2 ~assign:(fun _ -> 5));
     Alcotest.fail "expected out-of-range error"
   with Invalid_argument _ -> ());
  let st = State.create h ~k:2 ~assign:(fun _ -> 0) in
  Alcotest.check_raises "move out of range"
    (Invalid_argument "State.move: block out of range") (fun () -> State.move st 0 7)

(* The central property: random move sequences keep every cache exact. *)
let prop_incremental_exact =
  QCheck.Test.make ~count:60 ~name:"incremental caches match recomputation"
    QCheck.(triple (int_range 4 60) (int_range 2 6) (int_range 0 100_000))
    (fun (cells, k, seed) ->
      let spec = Netlist.Generator.default_spec ~name:"s" ~cells ~pads:3 ~seed in
      let h = Netlist.Generator.generate spec in
      let rng = Prng.Splitmix.create (seed + 1) in
      let st = State.create h ~k ~assign:(fun _ -> 0) in
      let n = Hg.num_nodes h in
      for _ = 1 to 120 do
        State.move st (Prng.Splitmix.int rng n) (Prng.Splitmix.int rng k)
      done;
      State.check st = Ok ())

let prop_gains_match_moves =
  QCheck.Test.make ~count:40 ~name:"cut_gain and pin_gain predict moves"
    QCheck.(pair (int_range 6 50) (int_range 0 10_000))
    (fun (cells, seed) ->
      let spec = Netlist.Generator.default_spec ~name:"s" ~cells ~pads:2 ~seed in
      let h = Netlist.Generator.generate spec in
      let rng = Prng.Splitmix.create (seed * 3) in
      let k = 3 in
      let st = State.create h ~k ~assign:(fun v -> v mod k) in
      let ok = ref true in
      for _ = 1 to 60 do
        let v = Prng.Splitmix.int rng (Hg.num_nodes h) in
        let b = Prng.Splitmix.int rng k in
        let cg = State.cut_gain st v b in
        let pg = State.pin_gain st v b in
        let pc = State.pin_change st v b in
        let cut0 = State.cut_size st and pins0 = State.total_pins st in
        let dest0 = State.pins_of st b in
        State.move st v b;
        if cut0 - State.cut_size st <> cg then ok := false;
        if pins0 - State.total_pins st <> pg then ok := false;
        if State.pins_of st b - dest0 <> pc then ok := false
      done;
      !ok)

let prop_block_sums_invariant =
  QCheck.Test.make ~count:40 ~name:"sizes/cells/pads sum to circuit totals"
    QCheck.(pair (int_range 4 60) (int_range 0 10_000))
    (fun (cells, seed) ->
      let spec = Netlist.Generator.default_spec ~name:"s" ~cells ~pads:4 ~seed in
      let h = Netlist.Generator.generate spec in
      let rng = Prng.Splitmix.create seed in
      let k = 4 in
      let st = State.create h ~k ~assign:(fun v -> v mod k) in
      for _ = 1 to 80 do
        State.move st (Prng.Splitmix.int rng (Hg.num_nodes h)) (Prng.Splitmix.int rng k)
      done;
      let sum f = List.fold_left (fun acc i -> acc + f i) 0 (List.init k Fun.id) in
      sum (State.size_of st) = Hg.total_size h
      && sum (State.cells_of st) = Hg.num_nodes h
      && sum (State.pads_of st) = Hg.num_pads h)

let () =
  Alcotest.run "state"
    [
      ( "unit",
        [
          Alcotest.test_case "initial bookkeeping" `Quick test_initial_bookkeeping;
          Alcotest.test_case "pad pin model" `Quick test_pad_pin_model;
          Alcotest.test_case "move updates" `Quick test_move_updates;
          Alcotest.test_case "move noop" `Quick test_move_noop;
          Alcotest.test_case "move pad" `Quick test_move_pad;
          Alcotest.test_case "cut_gain matches move" `Quick test_cut_gain_matches_move;
          Alcotest.test_case "pin_gain matches move" `Quick test_pin_gain_matches_move;
          Alcotest.test_case "net span" `Quick test_net_span_counts;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "assignment roundtrip" `Quick test_assignment_roundtrip;
          Alcotest.test_case "nodes_of_block" `Quick test_nodes_of_block;
          Alcotest.test_case "create errors" `Quick test_create_errors;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_incremental_exact; prop_gains_match_moves; prop_block_sums_invariant ]
      );
    ]
