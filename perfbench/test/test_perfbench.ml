(* Tests of the benchmark's own helpers. *)

module P = Perfbench
module Json = Fpart_obs.Json

let flt = Alcotest.float 1e-12

let test_percentile () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Alcotest.check flt "p50 is the 3rd of 5" 3.0 (P.percentile xs 0.5);
  Alcotest.check flt "p20 is the 1st" 1.0 (P.percentile xs 0.2);
  Alcotest.check flt "p21 is the 2nd" 2.0 (P.percentile xs 0.21);
  Alcotest.check flt "p0 is the minimum" 1.0 (P.percentile xs 0.0);
  Alcotest.check flt "p100 is the maximum" 5.0 (P.percentile xs 1.0);
  Alcotest.check flt "one sample" 7.0 (P.percentile [ 7.0 ] 0.95);
  let thirty = List.init 30 (fun i -> float_of_int (i + 1)) in
  Alcotest.check flt "0.1 x 30 names the 3rd" 3.0 (P.percentile thirty 0.1);
  Alcotest.check_raises "no samples"
    (Invalid_argument "Perfbench.percentile: no samples") (fun () ->
      ignore (P.percentile [] 0.5))

let test_median () =
  Alcotest.check flt "odd count: the middle" 3.0 (P.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check flt "even count: mean of the two middle" 2.5
    (P.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check flt "two samples: their mean" 7.0 (P.median [ 8.0; 6.0 ]);
  Alcotest.check flt "per-item medians, summed" 11.0
    (P.sum_of_medians [ [ 1.0; 9.0; 2.0 ]; [ 8.0; 10.0 ] ]);
  Alcotest.check flt "no items" 0.0 (P.sum_of_medians []);
  Alcotest.check_raises "no samples" (Invalid_argument "Perfbench.median: no samples")
    (fun () -> ignore (P.median []))

let test_reportable () =
  Alcotest.(check bool) "p95 of 200" true (P.reportable 200 0.95);
  Alcotest.(check bool) "p95 of 199" false (P.reportable 199 0.95);
  Alcotest.(check bool) "p95 of 20" false (P.reportable 20 0.95);
  Alcotest.(check bool) "p99 of 1000" true (P.reportable 1000 0.99);
  Alcotest.(check bool) "p99 of 999" false (P.reportable 999 0.99)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (P.valid_name n))
    [ "wall_s"; "fpart.iteration_self_s"; "rent20k-mlevel"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (P.valid_name n))
    [ ""; "_hidden"; ".dot"; "-dash"; "wall s"; "p95/ms"; "caf\xc3\xa9"; String.make 65 'a' ]

(* bench.solve (10 ms, 1 Mw) holds two improve.pass spans: 6 ms with a
   1 ms child, and 3 ms.  Non-span records are ignored. *)
let test_layers () =
  let span ~id ~parent ~name ~ms ~alloc =
    Json.Obj
      [
        ("type", Json.Str "span");
        ("name", Json.Str name);
        ("dur_ms", Json.Float ms);
        ("id", Json.Int id);
        ("parent", Json.Int parent);
        ("alloc_w", Json.Float alloc);
      ]
  in
  let records =
    [
      span ~id:3 ~parent:2 ~name:"driver.iteration" ~ms:1.0 ~alloc:50_000.0;
      span ~id:2 ~parent:1 ~name:"improve.pass" ~ms:6.0 ~alloc:400_000.0;
      Json.Obj [ ("type", Json.Str "schedule"); ("span", Json.Int 2); ("moves", Json.Int 9) ];
      span ~id:4 ~parent:1 ~name:"improve.pass" ~ms:3.0 ~alloc:100_000.0;
      Json.Obj [ ("type", Json.Str "counter"); ("heap_w", Json.Int 1) ];
      span ~id:1 ~parent:0 ~name:"bench.solve" ~ms:10.0 ~alloc:1_000_000.0;
    ]
  in
  let l = P.layer (P.layers records) in
  let solve = l "bench.solve" and pass = l "improve.pass" and absent = l "mlevel.coarsen" in
  Alcotest.(check int) "one solve" 1 solve.P.calls;
  Alcotest.check flt "solve total" 0.010 solve.P.total_s;
  Alcotest.check flt "solve self = 10 - 6 - 3 ms" 0.001 solve.P.self_s;
  Alcotest.check flt "solve self alloc = 1 - 0.4 - 0.1 Mw" 0.5 solve.P.self_alloc_mw;
  Alcotest.check flt "solve total alloc" 1.0 solve.P.total_alloc_mw;
  Alcotest.(check int) "two passes" 2 pass.P.calls;
  Alcotest.check flt "pass total" 0.009 pass.P.total_s;
  Alcotest.check flt "pass self = (6 - 1) + 3 ms" 0.008 pass.P.self_s;
  Alcotest.check flt "pass self alloc = (0.4 - 0.05) + 0.1 Mw" 0.45 pass.P.self_alloc_mw;
  Alcotest.(check int) "absent span: no calls" 0 absent.P.calls;
  Alcotest.check flt "absent span: no time" 0.0 absent.P.self_s

let test_result_line () =
  let wall = { P.name = "wall_s"; value = 1.25; unit_ = "s" } in
  let line =
    P.result_line ~correct:true ~attempted:12 ~failed:0
      [ wall; { P.name = "devices"; value = 179.0; unit_ = "devices" } ]
  in
  (match Json.of_string line with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check (list string))
      "exactly the four keys"
      [ "correct"; "attempted"; "failed"; "metrics" ]
      (match j with Json.Obj fields -> List.map fst fields | _ -> []);
    Alcotest.(check bool)
      "value and unit" true
      (Option.bind (Json.member "metrics" j) (Json.member "wall_s")
      = Some (Json.Obj [ ("value", Json.Float 1.25); ("unit", Json.Str "s") ])));
  let rejected metrics =
    match P.result_line ~correct:true ~attempted:1 ~failed:0 metrics with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "invalid name" true (rejected [ { wall with P.name = "wall s" } ]);
  Alcotest.(check bool) "repeated name" true (rejected [ wall; wall ]);
  Alcotest.(check bool) "nan" true (rejected [ { wall with P.value = Float.nan } ])

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "median and per-item sums" `Quick test_median;
          Alcotest.test_case "p95 needs ten samples beyond" `Quick test_reportable;
          Alcotest.test_case "metric-name charset" `Quick test_names;
          Alcotest.test_case "self time and allocation" `Quick test_layers;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
