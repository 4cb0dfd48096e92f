(* Device: the Xilinx catalog and the lower bound M.  The golden cases
   check every M value printed in the paper's Tables 2-5 against our
   Device.lower_bound on the published Table 1 characteristics — this
   pins down the [S_MAX = floor(S_ds * delta)] interpretation. *)

let test_catalog () =
  Alcotest.(check int) "xc3020 s_ds" 64 Device.xc3020.Device.s_ds;
  Alcotest.(check int) "xc3020 t_max" 64 Device.xc3020.Device.t_max;
  Alcotest.(check int) "xc3042 s_ds" 144 Device.xc3042.Device.s_ds;
  Alcotest.(check int) "xc3042 t_max" 96 Device.xc3042.Device.t_max;
  Alcotest.(check int) "xc3090 s_ds" 320 Device.xc3090.Device.s_ds;
  Alcotest.(check int) "xc3090 t_max" 144 Device.xc3090.Device.t_max;
  Alcotest.(check int) "xc2064 s_ds" 64 Device.xc2064.Device.s_ds;
  Alcotest.(check int) "xc2064 t_max" 58 Device.xc2064.Device.t_max

let test_find () =
  (match Device.find "xc3042" with
  | Some d -> Alcotest.(check string) "case-insensitive" "XC3042" d.Device.dev_name
  | None -> Alcotest.fail "xc3042 not found");
  Alcotest.(check bool) "unknown" true (Device.find "XC4005" = None)

let test_s_max () =
  Alcotest.(check int) "derated 3020" 57 (Device.s_max Device.xc3020 ~delta:0.9);
  Alcotest.(check int) "derated 3042" 129 (Device.s_max Device.xc3042 ~delta:0.9);
  Alcotest.(check int) "derated 3090" 288 (Device.s_max Device.xc3090 ~delta:0.9);
  Alcotest.(check int) "full 2064" 64 (Device.s_max Device.xc2064 ~delta:1.0);
  Alcotest.check_raises "delta 0" (Invalid_argument "Device.s_max: delta out of (0,1]")
    (fun () -> ignore (Device.s_max Device.xc3020 ~delta:0.0));
  (* NaN fails every comparison, so a range test written as
     [delta <= 0 || delta > 1] would let it through *)
  Alcotest.check_raises "delta nan" (Invalid_argument "Device.s_max: delta out of (0,1]")
    (fun () -> ignore (Device.s_max Device.xc3020 ~delta:Float.nan));
  Alcotest.check_raises "lower bound, delta nan"
    (Invalid_argument "Device.lower_bound: delta out of (0,1]")
    (fun () ->
      ignore
        (Device.lower_bound Device.xc3020 ~delta:Float.nan ~total_size:100
           ~total_pads:10))

let test_paper_delta () =
  Alcotest.(check (float 0.0)) "xc3000" 0.9 (Device.paper_delta Device.xc3020);
  Alcotest.(check (float 0.0)) "xc2000" 1.0 (Device.paper_delta Device.xc2064)

let test_feasible () =
  Alcotest.(check bool) "fits" true
    (Device.feasible Device.xc3020 ~delta:0.9 ~size:57 ~pins:64);
  Alcotest.(check bool) "size over" false
    (Device.feasible Device.xc3020 ~delta:0.9 ~size:58 ~pins:10);
  Alcotest.(check bool) "pins over" false
    (Device.feasible Device.xc3020 ~delta:0.9 ~size:10 ~pins:65)

(* The paper's M column, per device table, on Table 1 data. *)
let golden_m device delta expectations () =
  List.iter
    (fun (name, expected) ->
      match Netlist.Mcnc.find name with
      | None -> Alcotest.failf "unknown circuit %s" name
      | Some c ->
        let total_size = Netlist.Mcnc.clbs c device.Device.family in
        let m =
          Device.lower_bound device ~delta ~total_size ~total_pads:c.Netlist.Mcnc.iobs
        in
        Alcotest.(check int) (name ^ " M") expected m)
    expectations

let table2_m =
  golden_m Device.xc3020 0.9
    [
      ("c3540", 5); ("c5315", 7); ("c6288", 15); ("c7552", 9); ("s5378", 7);
      ("s9234", 8); ("s13207", 16); ("s15850", 15); ("s38417", 39); ("s38584", 51);
    ]

let table3_m =
  golden_m Device.xc3042 0.9
    [
      ("c3540", 3); ("c5315", 4); ("c6288", 7); ("c7552", 4); ("s5378", 3);
      ("s9234", 4); ("s13207", 8); ("s15850", 7); ("s38417", 18); ("s38584", 23);
    ]

let table4_m =
  golden_m Device.xc3090 0.9
    [
      ("c3540", 1); ("c5315", 3); ("c6288", 3); ("c7552", 3); ("s5378", 2);
      ("s9234", 2); ("s13207", 4); ("s15850", 3); ("s38417", 8); ("s38584", 11);
    ]

let table5_m =
  golden_m Device.xc2064 1.0
    [ ("c3540", 6); ("c5315", 9); ("c7552", 10); ("c6288", 14) ]

let test_io_critical () =
  (* c5315 on XC3020: 301 pads vs 377 CLBs -> ceil(377/57)=7 vs
     ceil(301/64)=5: size-critical *)
  Alcotest.(check bool) "c5315 xc3020 size-critical" false
    (Device.io_critical Device.xc3020 ~delta:0.9 ~total_size:377 ~total_pads:301);
  (* tiny logic with many pads is I/O-critical *)
  Alcotest.(check bool) "pad-dominated" true
    (Device.io_critical Device.xc3020 ~delta:0.9 ~total_size:30 ~total_pads:640)

let prop_lower_bound_sane =
  QCheck.Test.make ~count:200 ~name:"M >= 1 and covers both resources"
    QCheck.(pair (int_range 1 5000) (int_range 1 2000))
    (fun (size, pads) ->
      let d = Device.xc3042 in
      let m = Device.lower_bound d ~delta:0.9 ~total_size:size ~total_pads:pads in
      (* the logic term uses the real derated capacity S_ds * delta *)
      let s_cap = float_of_int d.Device.s_ds *. 0.9 in
      m >= 1
      && float_of_int m *. s_cap >= float_of_int size -. 1e-6
      && m * d.Device.t_max >= pads)

let () =
  Alcotest.run "device"
    [
      ( "unit",
        [
          Alcotest.test_case "catalog" `Quick test_catalog;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "s_max" `Quick test_s_max;
          Alcotest.test_case "paper delta" `Quick test_paper_delta;
          Alcotest.test_case "feasible" `Quick test_feasible;
          Alcotest.test_case "io critical" `Quick test_io_critical;
        ] );
      ( "golden-M",
        [
          Alcotest.test_case "table2 (XC3020)" `Quick table2_m;
          Alcotest.test_case "table3 (XC3042)" `Quick table3_m;
          Alcotest.test_case "table4 (XC3090)" `Quick table4_m;
          Alcotest.test_case "table5 (XC2064)" `Quick table5_m;
        ] );
      ("property", List.map QCheck_alcotest.to_alcotest [ prop_lower_bound_sane ]);
    ]
