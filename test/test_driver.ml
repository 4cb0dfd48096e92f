(* Driver: FPART (Algorithm 1) end to end, plus the k-way.x baseline. *)

module Hg = Hypergraph.Hgraph
module State = Partition.State
module Driver = Fpart.Driver
module Kwayx = Fpart.Kwayx

let circuit ?(cells = 300) ?(pads = 40) seed =
  Fpart_testgen.circuit ~name:"drv" ~cells ~pads seed

let check_partition h device delta k assignment =
  let st = State.create h ~k ~assign:(fun v -> assignment.(v)) in
  let s_max = Device.s_max device ~delta in
  for b = 0 to k - 1 do
    if State.size_of st b > s_max then
      Alcotest.failf "block %d size %d > %d" b (State.size_of st b) s_max;
    if State.pins_of st b > device.Device.t_max then
      Alcotest.failf "block %d pins %d > %d" b (State.pins_of st b) device.Device.t_max
  done;
  st

let test_end_to_end () =
  let h = circuit 42 in
  let r = Driver.run h Device.xc3020 in
  Alcotest.(check bool) "feasible" true r.Driver.feasible;
  Alcotest.(check bool) "k >= M" true (r.Driver.k >= r.Driver.m_lower);
  ignore (check_partition h Device.xc3020 r.Driver.delta r.Driver.k r.Driver.assignment)

let test_every_node_assigned () =
  let h = circuit ~cells:120 7 in
  let r = Driver.run h Device.xc3042 in
  Alcotest.(check int) "assignment length" (Hg.num_nodes h)
    (Array.length r.Driver.assignment);
  Array.iter
    (fun b -> if b < 0 || b >= r.Driver.k then Alcotest.fail "out-of-range block")
    r.Driver.assignment

let test_single_device () =
  let h = circuit ~cells:30 ~pads:8 3 in
  let r = Driver.run h Device.xc3090 in
  Alcotest.(check int) "one device" 1 r.Driver.k;
  Alcotest.(check bool) "feasible" true r.Driver.feasible;
  Alcotest.(check int) "no iterations" 0 r.Driver.iterations

let test_deterministic () =
  let h = circuit ~cells:150 9 in
  let r1 = Driver.run h Device.xc3020 in
  let r2 = Driver.run h Device.xc3020 in
  Alcotest.(check int) "same k" r1.Driver.k r2.Driver.k;
  Alcotest.(check (array int)) "same assignment" r1.Driver.assignment r2.Driver.assignment

let test_trace_structure () =
  let h = circuit ~cells:150 11 in
  let r = Driver.run h Device.xc3020 in
  let events = r.Driver.trace in
  let has_bipartition =
    List.exists (function Fpart.Trace.Bipartition _ -> true | _ -> false) events
  in
  let has_pair =
    List.exists
      (function
        | Fpart.Trace.Improve { kind = Fpart.Trace.Pair_latest; _ } -> true
        | _ -> false)
      events
  in
  let done_last =
    match List.rev events with Fpart.Trace.Done _ :: _ -> true | _ -> false
  in
  Alcotest.(check bool) "bipartition traced" true has_bipartition;
  Alcotest.(check bool) "pair pass traced" true has_pair;
  Alcotest.(check bool) "ends with Done" true done_last

let test_trace_schedule_kinds () =
  (* M <= N_small circuit: the all-blocks pass must appear *)
  let h = circuit ~cells:300 13 in
  let r = Driver.run h Device.xc3020 in
  let has k =
    List.exists
      (function Fpart.Trace.Improve { kind; _ } -> kind = k | _ -> false)
      r.Driver.trace
  in
  Alcotest.(check bool) "all-blocks pass" true (has Fpart.Trace.All_blocks);
  Alcotest.(check bool) "min-size pass" true (has Fpart.Trace.Min_size);
  Alcotest.(check bool) "min-io pass" true (has Fpart.Trace.Min_io);
  Alcotest.(check bool) "max-free pass" true (has Fpart.Trace.Max_free)

let test_final_state_matches () =
  let h = circuit ~cells:100 15 in
  let r = Driver.run h Device.xc3042 in
  let st = Driver.final_state r h in
  Alcotest.(check int) "cut consistent" r.Driver.cut (State.cut_size st);
  Alcotest.(check int) "pins consistent" r.Driver.total_pins (State.total_pins st)

let test_config_seed_changes_nothing_material () =
  (* different seeds may change tie-breaks but must stay feasible *)
  let h = circuit ~cells:150 17 in
  List.iter
    (fun seed ->
      let config = { Fpart.Config.default with seed } in
      let r = Driver.run ~config h Device.xc3020 in
      Alcotest.(check bool) "feasible" true r.Driver.feasible)
    [ 1; 2; 3 ]

let test_io_critical_circuit () =
  (* pads dominate: M comes from the pin bound *)
  let h = circuit ~cells:60 ~pads:200 19 in
  let r = Driver.run h Device.xc3020 in
  Alcotest.(check bool) "M from pins" true (r.Driver.m_lower >= 4);
  Alcotest.(check bool) "feasible" true r.Driver.feasible;
  ignore (check_partition h Device.xc3020 r.Driver.delta r.Driver.k r.Driver.assignment)

let test_kwayx_end_to_end () =
  let h = circuit ~cells:300 21 in
  let r = Kwayx.run h Device.xc3020 in
  Alcotest.(check bool) "feasible" true r.Kwayx.feasible;
  ignore (check_partition h Device.xc3020 0.9 r.Kwayx.k r.Kwayx.assignment)

let test_kwayx_single_device () =
  let h = circuit ~cells:30 23 in
  let r = Kwayx.run h Device.xc3090 in
  Alcotest.(check int) "one device" 1 r.Kwayx.k

let test_fpart_not_worse_than_kwayx () =
  (* the paper's core claim, on a batch of seeds *)
  List.iter
    (fun seed ->
      let h = circuit ~cells:250 ~pads:30 seed in
      let f = Driver.run h Device.xc3020 in
      let kw = Kwayx.run h Device.xc3020 in
      if f.Driver.k > kw.Kwayx.k then
        Alcotest.failf "seed %d: FPART %d > kwayx %d" seed f.Driver.k kw.Kwayx.k)
    [ 31; 32; 33 ]

let test_disconnected_circuit () =
  (* BLIF-sourced circuits can be disconnected; the driver must still
     partition every component *)
  let b = Hg.Builder.create () in
  let mk tag =
    let c = Array.init 20 (fun i -> Hg.Builder.add_cell b ~name:(Printf.sprintf "%s%d" tag i) ~size:1) in
    for i = 0 to 18 do
      ignore (Hg.Builder.add_net b ~name:(Printf.sprintf "%sn%d" tag i) [ c.(i); c.(i + 1) ])
    done;
    let p = Hg.Builder.add_pad b ~name:(tag ^ "p") in
    ignore (Hg.Builder.add_net b ~name:(tag ^ "np") [ p; c.(0) ])
  in
  mk "a";
  mk "b";
  mk "c";
  let h = Hg.Builder.freeze b in
  Alcotest.(check bool) "really disconnected" false
    (Hypergraph.Traversal.is_connected h);
  let tiny = { Device.dev_name = "T25"; family = Device.XC3000; s_ds = 25; t_max = 16 } in
  let config = { Fpart.Config.default with delta = Some 1.0 } in
  let r = Driver.run ~config h tiny in
  Alcotest.(check bool) "feasible" true r.Driver.feasible;
  Alcotest.(check bool) "k >= 3" true (r.Driver.k >= 3)

let test_cpu_time_positive () =
  let h = circuit ~cells:100 25 in
  let r = Driver.run h Device.xc3020 in
  Alcotest.(check bool) "cpu measured" true (r.Driver.cpu_seconds >= 0.0)

let prop_driver_valid_partition =
  QCheck.Test.make ~count:8 ~name:"FPART always returns a valid feasible partition"
    QCheck.(pair (int_range 60 250) (int_range 0 10_000))
    (fun (cells, seed) ->
      let h = circuit ~cells ~pads:(max 4 (cells / 10)) seed in
      let r = Driver.run h Device.xc3042 in
      let st = Driver.final_state r h in
      let s_max = Device.s_max Device.xc3042 ~delta:r.Driver.delta in
      let ok = ref r.Driver.feasible in
      for b = 0 to r.Driver.k - 1 do
        if State.size_of st b > s_max || State.pins_of st b > 96 then ok := false
      done;
      !ok && r.Driver.k >= r.Driver.m_lower)

let () =
  Alcotest.run "driver"
    [
      ( "fpart",
        [
          Alcotest.test_case "end to end" `Quick test_end_to_end;
          Alcotest.test_case "all assigned" `Quick test_every_node_assigned;
          Alcotest.test_case "single device" `Quick test_single_device;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "trace structure" `Quick test_trace_structure;
          Alcotest.test_case "trace schedule kinds" `Quick test_trace_schedule_kinds;
          Alcotest.test_case "final state matches" `Quick test_final_state_matches;
          Alcotest.test_case "seeds stay feasible" `Quick test_config_seed_changes_nothing_material;
          Alcotest.test_case "io-critical" `Quick test_io_critical_circuit;
          Alcotest.test_case "disconnected circuit" `Quick test_disconnected_circuit;
          Alcotest.test_case "cpu time" `Quick test_cpu_time_positive;
        ] );
      ( "kwayx",
        [
          Alcotest.test_case "end to end" `Quick test_kwayx_end_to_end;
          Alcotest.test_case "single device" `Quick test_kwayx_single_device;
          Alcotest.test_case "fpart <= kwayx" `Quick test_fpart_not_worse_than_kwayx;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest [ prop_driver_valid_partition ] );
    ]
