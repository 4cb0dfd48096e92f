(* The telemetry exposition layer: every page Expose.render emits must
   survive its own strict Prometheus text-format parser with the
   registry invariants intact (unique families, cumulative buckets,
   _count = +Inf bucket = sum of the bucket deltas), the sliding
   histogram window must keep quantiles current while the lifetime
   aggregates stay monotone, and Recorder.reset must start a fresh
   measurement epoch (a long-lived daemon's p95 must not aggregate
   forever). *)

module Metrics = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder
module Expose = Fpart_obs.Expose
module Json = Fpart_obs.Json

let setup () =
  Metrics.set_enabled true;
  Metrics.reset ();
  Expose.clear_gauges ()

let parse_ok text =
  match Expose.parse text with
  | Ok fams -> fams
  | Error e -> Alcotest.failf "render does not strict-parse: %s\n%s" e text

(* ------------------------------------------------------------------ *)
(* rendering *)

let test_counter_and_gauge () =
  setup ();
  let c = Metrics.counter "exp.alpha" in
  Metrics.add c 41;
  Metrics.incr c;
  Expose.set_gauge "exp.depth" ~help:"test gauge" (fun () -> 2.5);
  let fams = parse_ok (Expose.render ()) in
  Alcotest.(check (option (float 1e-9)))
    "counter value" (Some 42.0)
    (Expose.find fams "fpart_exp_alpha_total");
  Alcotest.(check (option (float 1e-9)))
    "gauge value" (Some 2.5)
    (Expose.find fams "fpart_exp_depth");
  Expose.remove_gauge "exp.depth";
  let fams = parse_ok (Expose.render ()) in
  Alcotest.(check (option (float 1e-9)))
    "gauge removed" None
    (Expose.find fams "fpart_exp_depth")

let test_histogram_family () =
  setup ();
  let h = Metrics.histogram "exp.lat_ms" in
  List.iter (Metrics.observe h) [ 0.1; 0.3; 3.0; 40.0; 20000.0; 99999.0 ];
  let fams = parse_ok (Expose.render ()) in
  let name = "fpart_exp_lat_ms" in
  Alcotest.(check (option (float 1e-9)))
    "_count is the observation count" (Some 6.0)
    (Expose.hist_count fams name);
  (match Expose.hist_sum fams name with
  | Some s -> Alcotest.(check (float 1e-6)) "_sum" 120042.4 s
  | None -> Alcotest.fail "missing _sum");
  let series = Expose.buckets fams name in
  Alcotest.(check int)
    "full ladder + Inf"
    (Array.length Metrics.bucket_bounds + 1)
    (List.length series);
  (match List.rev series with
  | (le, total) :: _ ->
    Alcotest.(check bool) "last bucket is +Inf" true (le = infinity);
    Alcotest.(check (float 1e-9)) "+Inf bucket = count" 6.0 total
  | [] -> Alcotest.fail "no buckets");
  (* cumulative and non-decreasing *)
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets" true (mono series)

let test_engine_agnostic_names () =
  (* the exposition layer never names engines: whatever instrument
     names exist, the same mapping applies *)
  Alcotest.(check string) "dots" "fpart_serve_latency_cold_ms"
    (Expose.metric_name "serve.latency.cold_ms");
  Alcotest.(check string) "slashes and dashes" "fpart_mlevel_v_cycle"
    (Expose.metric_name "mlevel/v-cycle")

(* ------------------------------------------------------------------ *)
(* sliding window vs lifetime aggregates *)

let test_window_eviction () =
  setup ();
  let h = Metrics.histogram "exp.window" in
  for _ = 1 to 5000 do
    Metrics.observe h 1.0
  done;
  Alcotest.(check int) "lifetime count" 5000 (Metrics.count h);
  Alcotest.(check int) "window is bounded" Metrics.window_capacity
    (Metrics.window_count h);
  Alcotest.(check (float 1e-9)) "p50 before shift" 1.0 (Metrics.quantile h 0.5);
  (* a daemon whose latency jumps: the window must follow, the
     lifetime aggregates must keep counting *)
  for _ = 1 to Metrics.window_capacity do
    Metrics.observe h 9.0
  done;
  Alcotest.(check (float 1e-9)) "p50 tracks recent behaviour" 9.0
    (Metrics.quantile h 0.5);
  Alcotest.(check int) "lifetime count keeps growing"
    (5000 + Metrics.window_capacity)
    (Metrics.count h);
  Alcotest.(check (float 1e-3)) "lifetime sum includes evicted samples"
    (5000.0 +. (9.0 *. float_of_int Metrics.window_capacity))
    (Metrics.hist_sum h);
  let total = Array.fold_left ( + ) 0 (Metrics.bucket_totals h) in
  Alcotest.(check int) "bucket totals cover every observation"
    (5000 + Metrics.window_capacity) total

let test_snapshot_merge_with_eviction () =
  setup ();
  let h = Metrics.histogram "exp.merge" in
  let n = Metrics.window_capacity + 500 in
  for i = 1 to n do
    Metrics.observe h (float_of_int (i mod 7))
  done;
  let sum_before = Metrics.hist_sum h in
  let snap = Metrics.snapshot_and_reset () in
  Alcotest.(check int) "reset cleared the cell" 0 (Metrics.count h);
  Metrics.merge snap;
  Alcotest.(check int) "merge restores the lifetime count" n (Metrics.count h);
  Alcotest.(check (float 1e-6)) "merge restores the lifetime sum" sum_before
    (Metrics.hist_sum h);
  Alcotest.(check int) "window refilled to capacity" Metrics.window_capacity
    (Metrics.window_count h)

let test_recorder_reset_clears_histograms () =
  setup ();
  let h = Metrics.histogram "exp.epoch" in
  Metrics.observe h 5.0;
  Recorder.set_request (Some "r000009");
  Recorder.reset ();
  Alcotest.(check int) "reset starts a fresh epoch" 0 (Metrics.count h);
  Alcotest.(check bool) "request attribution cleared" true
    (Recorder.current_request () = None);
  let fams = parse_ok (Expose.render ()) in
  Alcotest.(check (option (float 1e-9)))
    "idle histogram is not exposed" None
    (Expose.hist_count fams "fpart_exp_epoch")

let test_request_stamp_on_records () =
  setup ();
  let sink, recorded = Fpart_obs.Sink.memory () in
  Fpart_obs.Sink.set sink;
  Recorder.with_request (Some "r000042") (fun () ->
      let sp = Recorder.span_begin "exp.work" in
      Recorder.event [ ("type", Json.Str "trace"); ("event", Json.Str "x") ];
      Recorder.span_end sp ~attrs:[]);
  Fpart_obs.Sink.set Fpart_obs.Sink.null;
  let stamped =
    List.filter
      (fun j -> Json.member "req" j = Some (Json.Str "r000042"))
      (recorded ())
  in
  Alcotest.(check int) "span and event both stamped" 2 (List.length stamped);
  Alcotest.(check bool) "stamp does not outlive with_request" true
    (Recorder.current_request () = None);
  Recorder.reset ()

(* ------------------------------------------------------------------ *)
(* strict parser rejections *)

let rejects name text =
  match Expose.parse text with
  | Ok _ -> Alcotest.failf "%s: parser accepted invalid exposition" name
  | Error _ -> ()

let test_parser_rejections () =
  rejects "sample before TYPE" "fpart_x_total 1\n";
  rejects "duplicate family"
    "# TYPE fpart_x_total counter\nfpart_x_total 1\n# TYPE fpart_x_total \
     counter\nfpart_x_total 2\n";
  rejects "negative counter" "# TYPE fpart_x_total counter\nfpart_x_total -1\n";
  rejects "bad metric name" "# TYPE fpart-x counter\nfpart-x 1\n";
  rejects "unsorted labels"
    "# TYPE fpart_h histogram\nfpart_h_bucket{le=\"1\",a=\"b\"} \
     1\nfpart_h_bucket{le=\"+Inf\"} 1\nfpart_h_sum 1\nfpart_h_count 1\n";
  rejects "non-cumulative buckets"
    "# TYPE fpart_h histogram\nfpart_h_bucket{le=\"1\"} \
     3\nfpart_h_bucket{le=\"2\"} 2\nfpart_h_bucket{le=\"+Inf\"} \
     3\nfpart_h_sum 1\nfpart_h_count 3\n";
  rejects "missing +Inf bucket"
    "# TYPE fpart_h histogram\nfpart_h_bucket{le=\"1\"} 1\nfpart_h_sum \
     1\nfpart_h_count 1\n";
  rejects "count disagrees with +Inf bucket"
    "# TYPE fpart_h histogram\nfpart_h_bucket{le=\"1\"} \
     1\nfpart_h_bucket{le=\"+Inf\"} 2\nfpart_h_sum 1\nfpart_h_count 3\n";
  rejects "garbage line" "# TYPE fpart_x counter\nfpart_x one\n"

let test_consumer_helpers () =
  let series = [ (1.0, 2.0); (5.0, 8.0); (infinity, 10.0) ] in
  Alcotest.(check (float 1e-9)) "p50 lands in the second bucket" 5.0
    (Expose.quantile_of_buckets ~p:0.5 series);
  Alcotest.(check (float 1e-9)) "p95 saturates to the last finite bound" 5.0
    (Expose.quantile_of_buckets ~p:0.95 series);
  Alcotest.(check bool) "empty series has no quantile" true
    (Float.is_nan (Expose.quantile_of_buckets ~p:0.5 []))

(* ------------------------------------------------------------------ *)
(* property: any instrument activity renders a strict-parser-valid page *)

let activity_gen =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (oneof
         [
           map (fun i -> `Count ("exp.prop.c" ^ string_of_int (i mod 4)))
             (int_range 0 100);
           map2
             (fun i v -> `Observe ("exp.prop.h" ^ string_of_int (i mod 3), v))
             (int_range 0 100)
             (float_range 0.0 50_000.0);
           map (fun v -> `Gauge v) (float_range (-5.0) 5.0);
         ]))

let prop_render_parses =
  QCheck.Test.make ~count:60 ~name:"every rendered page strict-parses"
    (QCheck.make activity_gen) (fun ops ->
      setup ();
      List.iter
        (function
          | `Count n -> Metrics.incr (Metrics.counter n)
          | `Observe (n, v) -> Metrics.observe (Metrics.histogram n) v
          | `Gauge v -> Expose.set_gauge "exp.prop.g" ~help:"prop" (fun () -> v))
        ops;
      let fams = parse_ok (Expose.render ()) in
      (* unique family names *)
      let names = List.map (fun f -> f.Expose.f_name) fams in
      let uniq = List.sort_uniq compare names in
      List.length names = List.length uniq
      && List.sort compare names = names
      && List.for_all
           (fun (f : Expose.family) ->
             f.f_type <> "histogram"
             ||
             (* _count = +Inf bucket = sum of the bucket deltas *)
             let series = Expose.buckets fams f.f_name in
             let count =
               Option.value ~default:nan (Expose.hist_count fams f.f_name)
             in
             let inf_total =
               match List.rev series with (_, t) :: _ -> t | [] -> nan
             in
             let deltas =
               List.fold_left
                 (fun (prev, acc) (_, c) -> (c, acc +. (c -. prev)))
                 (0.0, 0.0) series
               |> snd
             in
             count = inf_total && Float.abs (deltas -. count) < 1e-6)
           fams)

let () =
  Alcotest.run "expose"
    [
      ( "render",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_counter_and_gauge;
          Alcotest.test_case "histogram family shape" `Quick
            test_histogram_family;
          Alcotest.test_case "metric name mapping" `Quick
            test_engine_agnostic_names;
        ] );
      ( "window",
        [
          Alcotest.test_case "quantiles slide, aggregates accumulate" `Quick
            test_window_eviction;
          Alcotest.test_case "snapshot/merge survives eviction" `Quick
            test_snapshot_merge_with_eviction;
          Alcotest.test_case "Recorder.reset starts a fresh epoch" `Quick
            test_recorder_reset_clears_histograms;
          Alcotest.test_case "request id stamps records" `Quick
            test_request_stamp_on_records;
        ] );
      ( "parser",
        [
          Alcotest.test_case "rejections" `Quick test_parser_rejections;
          Alcotest.test_case "consumer helpers" `Quick test_consumer_helpers;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_render_parses ]);
    ]
