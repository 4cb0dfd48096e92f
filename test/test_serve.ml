(* The partition service: wire protocol round-trips, the engine's
   crash/cache behaviour (a bad request must never take the daemon
   down, a repeated workload must come back bit-identical from the
   cache), and the ECO warm-start contract (a Warm outcome is a
   feasible partition whose reported cost matches an oracle
   recomputation). *)

module Hg = Hypergraph.Hgraph
module State = Partition.State
module Cost = Partition.Cost
module Tg = Fpart_testgen
module Protocol = Serve.Protocol
module Engine = Serve.Engine
module Eco = Serve.Eco

let request ?(id = "r") ?(netlist = Protocol.Generate { spec = "60x8"; gen_seed = 5 })
    ?(device = "XC3042") ?delta ?(runs = 1) ?seed ?max_passes ?refiner ?timeout_s
    ?eco ?inject () =
  {
    Protocol.id;
    netlist;
    device;
    delta;
    runs;
    seed;
    max_passes;
    refiner;
    timeout_s;
    eco;
    inject;
  }

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_response_roundtrip () =
  let ok =
    {
      Protocol.resp_id = "a1";
      outcome =
        Ok
          {
            Protocol.k = 3;
            feasible = true;
            cut = 17;
            total_pins = 120;
            m_lower = 2;
            wall_ms = 4.25;
            cache = "miss";
            mode = "cold";
            netlist_digest = "0123456789abcdef0123456789abcdef";
            config_digest = "fedcba9876543210fedcba9876543210";
            partition = "CIRCUIT t\nDELTA 0.9\n0 a\n";
          };
    }
  in
  (match Protocol.response_of_line (Protocol.response_to_line ok) with
  | Ok r -> Alcotest.(check bool) "success round-trips" true (r = ok)
  | Error e -> Alcotest.failf "parse: %s" e);
  let err = { Protocol.resp_id = "a2"; outcome = Error "no such device" } in
  match Protocol.response_of_line (Protocol.response_to_line err) with
  | Ok r -> Alcotest.(check bool) "error round-trips" true (r = err)
  | Error e -> Alcotest.failf "parse: %s" e

let test_op_of_line () =
  (match Protocol.op_of_line "{\"op\":\"ping\"}" with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping not parsed");
  (match Protocol.op_of_line "{\"op\":\"shutdown\"}" with
  | Ok Protocol.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown not parsed");
  (match
     Protocol.op_of_line
       "{\"id\":\"x\",\"netlist\":{\"generate\":\"40x6\",\"seed\":3},\"device\":\"XC2064\",\"runs\":2}"
   with
  | Ok (Protocol.Partition r) ->
    Alcotest.(check string) "id" "x" r.Protocol.id;
    Alcotest.(check int) "runs" 2 r.Protocol.runs;
    (match r.Protocol.netlist with
    | Protocol.Generate { spec; gen_seed } ->
      Alcotest.(check string) "spec" "40x6" spec;
      Alcotest.(check int) "gen seed" 3 gen_seed
    | _ -> Alcotest.fail "expected a generate source")
  | Ok _ -> Alcotest.fail "expected a partition request"
  | Error e -> Alcotest.failf "parse: %s" e);
  (* a filling ratio outside (0, 1] is a request error, not a crash in
     the worker *)
  List.iter
    (fun delta ->
      match
        Protocol.op_of_line
          (Printf.sprintf
             "{\"id\":\"d\",\"netlist\":{\"generate\":\"40x6\"},\"device\":\"XC2064\",\"delta\":%s}"
             delta)
      with
      | Error e ->
        Alcotest.(check string) ("delta " ^ delta)
          "request d: \"delta\" must be in (0, 1]" e
      | Ok _ -> Alcotest.failf "delta %s accepted" delta)
    [ "0"; "1.5"; "-0.5" ];
  (* so is a time limit that no solve can meet *)
  List.iter
    (fun limit ->
      match
        Protocol.op_of_line
          (Printf.sprintf
             "{\"id\":\"t\",\"netlist\":{\"generate\":\"40x6\"},\"device\":\"XC2064\",\"timeout_s\":%s}"
             limit)
      with
      | Error e ->
        Alcotest.(check string) ("timeout_s " ^ limit)
          "request t: \"timeout_s\" must be > 0" e
      | Ok _ -> Alcotest.failf "timeout_s %s accepted" limit)
    [ "0"; "-1" ];
  match Protocol.op_of_line "{\"op\":\"partition\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed line accepted"

(* ------------------------------------------------------------------ *)
(* Engine *)

let with_engine ?(jobs = 1) f =
  let e = Engine.create ~jobs () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> f e)

let success = function
  | { Protocol.outcome = Ok s; _ } -> s
  | { Protocol.resp_id; outcome = Error e } ->
    Alcotest.failf "request %s failed: %s" resp_id e

let test_engine_survives_bad_requests () =
  with_engine (fun e ->
      let reqs =
        [
          request ~id:"good" ();
          request ~id:"boom" ~inject:"crash" ();
          request ~id:"nodev" ~device:"XC9999" ();
          request ~id:"again" ();
        ]
      in
      match Engine.handle_requests e reqs with
      | [ good; boom; nodev; again ] ->
        let g = success good in
        Alcotest.(check bool) "good feasible" true g.Protocol.feasible;
        (match boom.Protocol.outcome with
        | Error msg ->
          Alcotest.(check bool) "crash reported, not raised" true
            (String.length msg > 0)
        | Ok _ -> Alcotest.fail "injected crash returned Ok");
        (match nodev.Protocol.outcome with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unknown device accepted");
        let a = success again in
        Alcotest.(check int) "engine kept serving" g.Protocol.k a.Protocol.k;
        Alcotest.(check int) "served counts all four" 4 (Engine.served e)
      | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs))

let test_unknown_refiner_rejected () =
  with_engine (fun e ->
      let reqs =
        [
          request ~id:"flow" ~refiner:"flow" ();
          request ~id:"bogus" ~refiner:"bogus" ();
          request ~id:"after" ();
        ]
      in
      match Engine.handle_requests e reqs with
      | [ flow; bogus; after ] ->
        List.iter
          (fun (name, r) ->
            Alcotest.(check (result reject string))
              (name ^ " is a typed error")
              (Error (Printf.sprintf "unknown refiner %S" name))
              r.Protocol.outcome)
          [ ("flow", flow); ("bogus", bogus) ];
        Alcotest.(check bool) "next request still answered" true
          (success after).Protocol.feasible
      | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs))

(* A server-side path that names a directory is a typed error for the
   netlist and for the ECO delta alike, and the batch goes on. *)
let test_directory_paths_rejected () =
  let dir = Filename.current_dir_name in
  let eco =
    { Protocol.eco_delta = Protocol.Src_path dir; eco_partfile = Protocol.Src_text "" }
  in
  with_engine (fun e ->
      match
        Engine.handle_requests e
          [
            request ~id:"dir" ~netlist:(Protocol.Path dir) ();
            request ~id:"eco" ~eco ();
            request ~id:"after" ();
          ]
      with
      | [ netlist; delta; after ] ->
        Alcotest.(check (result reject string)) "netlist path"
          (Error (Printf.sprintf "cannot parse %s: Is a directory" dir))
          netlist.Protocol.outcome;
        Alcotest.(check (result reject string)) "eco delta path"
          (Error (Printf.sprintf "eco delta %s: Is a directory" dir))
          delta.Protocol.outcome;
        Alcotest.(check bool) "next request still answered" true
          (success after).Protocol.feasible
      | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs))

let test_cache_hit_bit_identical () =
  with_engine (fun e ->
      let cold = success (List.hd (Engine.handle_requests e [ request () ])) in
      Alcotest.(check string) "first sight misses" "miss" cold.Protocol.cache;
      let warm = success (List.hd (Engine.handle_requests e [ request () ])) in
      Alcotest.(check string) "second sight hits" "hit" warm.Protocol.cache;
      Alcotest.(check string) "bit-identical partition" cold.Protocol.partition
        warm.Protocol.partition;
      Alcotest.(check int) "same cut" cold.Protocol.cut warm.Protocol.cut;
      Alcotest.(check bool) "one hit counted" true (Engine.cache_hits e >= 1);
      (* same workload inside one batch: the duplicate must replay, not
         recompute *)
      let rs = Engine.handle_requests e [ request ~id:"d1" ~seed:4 ();
                                          request ~id:"d2" ~seed:4 () ] in
      match List.map success rs with
      | [ d1; d2 ] ->
        Alcotest.(check string) "intra-batch duplicate hits" "hit" d2.Protocol.cache;
        Alcotest.(check string) "intra-batch duplicate identical"
          d1.Protocol.partition d2.Protocol.partition
      | _ -> Alcotest.fail "expected 2 responses")

let test_all_crash_batch_then_recovery () =
  with_engine (fun e ->
      let crash id = request ~id ~inject:"crash" () in
      let rs = Engine.handle_requests e [ crash "c1"; crash "c2"; crash "c3" ] in
      Alcotest.(check int) "three responses" 3 (List.length rs);
      List.iter
        (fun r ->
          match r.Protocol.outcome with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "crash slot returned Ok")
        rs;
      let after = success (List.hd (Engine.handle_requests e [ request () ])) in
      Alcotest.(check bool) "next request still answered" true
        after.Protocol.feasible)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_timed_out what (r : Protocol.response) =
  match r.Protocol.outcome with
  | Error e ->
    Alcotest.(check bool) (what ^ " names the overrun") true
      (contains ~sub:"timed out" e)
  | Ok _ -> Alcotest.failf "%s ignored its time limit" what

(* One limit rule for every request: its own [timeout_s], whatever its
   [runs], ECO requests included.  An overrun is an error, never a
   partial answer, and is never cached, so the same workload sent
   without a limit computes afresh. *)
let test_request_time_limit () =
  with_engine (fun e ->
      let limited runs = request ~id:"lim" ~runs ~timeout_s:1e-9 () in
      (match Engine.handle_requests e [ limited 1; limited 2 ] with
      | [ one; two ] ->
        check_timed_out "runs 1" one;
        check_timed_out "runs 2" two
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
      let cold =
        match Engine.handle_requests e [ request ~runs:1 (); request ~runs:2 () ] with
        | [ one; two ] ->
          Alcotest.(check string) "runs 1 overrun not cached" "miss"
            (success one).Protocol.cache;
          Alcotest.(check string) "runs 2 overrun not cached" "miss"
            (success two).Protocol.cache;
          success one
        | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)
      in
      let eco =
        {
          Protocol.eco_delta =
            Protocol.Src_text
              "remove node gen_c0\nadd cell eco_cell 1\nadd net eco_net eco_cell gen_c1\n";
          eco_partfile = Protocol.Src_text cold.Protocol.partition;
        }
      in
      (match Engine.handle_requests e [ request ~eco ~timeout_s:1e-9 (); request ~eco () ] with
      | [ lim; free ] ->
        check_timed_out "ECO" lim;
        Alcotest.(check string) "unlimited ECO warm-starts" "warm"
          (success free).Protocol.mode
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
      (* a limited duplicate inside one batch does not stand in for an
         unlimited one *)
      match
        Engine.handle_requests e
          [ request ~seed:7 ~timeout_s:1e-9 (); request ~seed:7 () ]
      with
      | [ lim; free ] ->
        check_timed_out "limited duplicate" lim;
        Alcotest.(check string) "unlimited occurrence computes" "miss"
          (success free).Protocol.cache
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs))

(* The engine default ([--timeout]) is the limit of every request that
   sets none, whatever its [runs]. *)
let test_engine_time_limit () =
  let e = Engine.create ~timeout_s:1e-9 ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      match Engine.handle_requests e [ request ~runs:1 (); request ~runs:2 () ] with
      | [ one; two ] ->
        check_timed_out "runs 1" one;
        check_timed_out "runs 2" two
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs))

(* 200x24/XC2064 at seed 5: a workload where the best of three seeds
   beats the first, so [runs] changes the answer. *)
let multi_spec = "200x24"
let multi_netlist = Protocol.Generate { spec = multi_spec; gen_seed = 5 }

(* A multi-start request is one solve of all its seeds: the answer is
   bit-identical to [Driver.run_best] on the same workload. *)
let test_multi_start_matches_run_best () =
  let name, hg =
    match Netlist.Load.generate multi_spec ~seed:5 with
    | Ok g -> g
    | Error e -> Alcotest.failf "generate: %s" e
  in
  let device = Device.xc2064 in
  let config = { Fpart.Config.default with Fpart.Config.seed = 5 } in
  let best = Fpart.Driver.run_best ~config ~runs:3 hg device in
  let first = Fpart.Driver.run_best ~config ~runs:1 hg device in
  Alcotest.(check bool) "best of three differs from the first seed" true
    (best.Fpart.Driver.cut <> first.Fpart.Driver.cut);
  let expected =
    Netlist.Partfile.to_string
      (Netlist.Partfile.of_assignment hg ~circuit:name
         ~delta:(Fpart.Config.delta_for config device)
         ~block_devices:(Array.make best.Fpart.Driver.k device.Device.dev_name)
         ~assignment:best.Fpart.Driver.assignment)
  in
  with_engine (fun e ->
      let req = request ~netlist:multi_netlist ~device:"XC2064" ~seed:5 ~runs:3 () in
      let s = success (List.hd (Engine.handle_requests e [ req ])) in
      Alcotest.(check int) "same k" best.Fpart.Driver.k s.Protocol.k;
      Alcotest.(check int) "same cut" best.Fpart.Driver.cut s.Protocol.cut;
      Alcotest.(check int) "same total pins" best.Fpart.Driver.total_pins
        s.Protocol.total_pins;
      Alcotest.(check string) "same partition" expected s.Protocol.partition)

(* A multi-start request that crashes fails as a whole, with the same
   typed error as a single-start one, and the engine goes on serving. *)
let test_multi_start_crash_is_error () =
  with_engine (fun e ->
      match
        Engine.handle_requests e
          [ request ~id:"boom" ~runs:2 ~inject:"crash" (); request ~id:"after" ~runs:2 () ]
      with
      | [ boom; after ] ->
        (match boom.Protocol.outcome with
        | Error msg ->
          Alcotest.(check bool) "typed as a failed partitioning" true
            (String.starts_with ~prefix:"partitioning failed: " msg);
          Alcotest.(check bool) "names the crash" true
            (contains ~sub:"injected crash" msg)
        | Ok _ -> Alcotest.fail "crashed multi-start request returned Ok");
        Alcotest.(check bool) "next multi-start request answered" true
          (success after).Protocol.feasible
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs))

(* Each request is one slot of the batch fan-out, so the answers do not
   depend on how many domains run the slots. *)
let test_batch_answers_jobs_independent () =
  let reqs =
    [
      request ~id:"a" ~netlist:multi_netlist ~device:"XC2064" ~seed:5 ~runs:3 ();
      request ~id:"b" ~seed:2 ();
      request ~id:"c" ~netlist:multi_netlist ~device:"XC3020" ~runs:2 ();
      request ~id:"d" ~runs:3 ~seed:9 ();
    ]
  in
  let answers jobs =
    with_engine ~jobs (fun e ->
        List.map
          (fun r ->
            let s = success r in
            (s.Protocol.k, s.Protocol.cut, s.Protocol.partition))
          (Engine.handle_requests e reqs))
  in
  Alcotest.(check (list (triple int int string))) "jobs 1 and jobs 2 agree"
    (answers 1) (answers 2)

(* ------------------------------------------------------------------ *)
(* ECO warm start *)

(* Random-but-valid edit of a generated circuit: remove one cell, add
   one cell wired to a survivor. *)
let random_delta hg seed =
  let n = Hg.num_nodes hg in
  let rng = Prng.Splitmix.create seed in
  let pick () = Prng.Splitmix.int rng n in
  let rec cell tries =
    let v = pick () in
    if (not (Hg.is_pad hg v)) && tries < 50 then v
    else if tries >= 50 then 0
    else cell (tries + 1)
  in
  let removed = cell 0 in
  let rec survivor tries =
    let v = cell 0 in
    if v <> removed || tries > 50 then v else survivor (tries + 1)
  in
  let anchor = survivor 0 in
  {
    Netlist.Delta.empty with
    Netlist.Delta.remove_nodes = [ Hg.name hg removed ];
    add_cells = [ { Netlist.Delta.cell_name = "eco_new"; size = 1; flops = 0 } ];
    add_nets =
      [
        {
          Netlist.Delta.net_name = "eco_net";
          pins = [ "eco_new"; Hg.name hg anchor ];
        };
      ];
  }

let prop_eco_warm_is_feasible_and_consistent =
  QCheck.Test.make ~count:15
    ~name:"ECO Warm outcome is feasible and matches an oracle recount"
    QCheck.(pair (int_range 60 160) (int_range 0 1000))
    (fun (cells, seed) ->
      let hg = Tg.circuit ~name:"eco" ~cells ~pads:(max 4 (cells / 12)) seed in
      let device = Device.xc3042 in
      let config = Fpart.Config.default in
      let cold = Fpart.Driver.run ~config hg device in
      let pf =
        Netlist.Partfile.of_assignment hg ~circuit:"eco" ~delta:cold.Fpart.Driver.delta
          ~block_devices:(Array.make cold.Fpart.Driver.k device.Device.dev_name)
          ~assignment:cold.Fpart.Driver.assignment
      in
      let d = random_delta hg (seed + 1) in
      match Netlist.Delta.apply d hg with
      | Error e -> QCheck.Test.fail_reportf "delta apply: %s" e
      | Ok hg' -> (
        match Eco.relegalize ~config ~device ~partfile:pf hg' with
        | Error e -> QCheck.Test.fail_reportf "relegalize: %s" e
        | Ok (Eco.Cold_needed _) -> true (* honest fallback is always legal *)
        | Ok (Eco.Warm { assignment; k; cut; total_pins; m_lower = _; projection = _ }) ->
          let st = State.create hg' ~k ~assign:(fun v -> assignment.(v)) in
          let ctx =
            Cost.context_of device
              ~delta:(Option.value config.Fpart.Config.delta ~default:0.9)
              hg'
          in
          (match Cost.classify ctx st with
          | Cost.Feasible -> ()
          | _ -> QCheck.Test.fail_reportf "Warm outcome is not feasible");
          cut = State.cut_size st && total_pins = State.total_pins st))

let test_eco_warm_beats_cold_via_engine () =
  (* differential: the same delta'd workload served cold and via the
     ECO path must both be feasible, and the ECO response must say so *)
  let hg = Tg.circuit ~name:"ecoe" ~cells:140 ~pads:12 3 in
  let device = Device.xc3042 in
  let cold = Fpart.Driver.run hg device in
  let pf =
    Netlist.Partfile.of_assignment hg ~circuit:"ecoe" ~delta:cold.Fpart.Driver.delta
      ~block_devices:(Array.make cold.Fpart.Driver.k device.Device.dev_name)
      ~assignment:cold.Fpart.Driver.assignment
  in
  let d = random_delta hg 17 in
  match Netlist.Delta.apply d hg with
  | Error e -> Alcotest.failf "delta apply: %s" e
  | Ok hg' -> (
    let config = Fpart.Config.default in
    match Eco.relegalize ~config ~device ~partfile:pf hg' with
    | Error e -> Alcotest.failf "relegalize: %s" e
    | Ok (Eco.Cold_needed reason) ->
      Alcotest.failf "small edit should warm-start (got fallback: %s)" reason
    | Ok (Eco.Warm { k; projection; _ }) ->
      Alcotest.(check bool) "k unchanged or close" true
        (abs (k - cold.Fpart.Driver.k) <= 1);
      Alcotest.(check bool) "projection mostly matched" true
        (projection.Eco.matched > projection.Eco.stale))

(* ------------------------------------------------------------------ *)
(* telemetry plane: stats/health ops, cache accounting, access log and
   request-id stamping *)

module Server = Serve.Server
module Json = Fpart_obs.Json
module Sink = Fpart_obs.Sink

let json_of_line line =
  match Json.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable response line: %s" e

let test_stats_and_health_ops () =
  with_engine (fun e ->
      ignore (Engine.handle_requests e [ request () ]);
      (match Server.react e "{\"op\":\"health\"}" with
      | Server.Lines [ line ] ->
        let j = json_of_line line in
        Alcotest.(check bool) "health status ok" true
          (Json.member "status" j = Some (Json.Str "ok"));
        Alcotest.(check bool) "health reports served" true
          (Json.member "served" j = Some (Json.Int 1))
      | _ -> Alcotest.fail "health did not answer one line");
      match Server.react e "{\"op\":\"stats\"}" with
      | Server.Lines [ line ] -> (
        let j = json_of_line line in
        Alcotest.(check bool) "stats op tag" true
          (Json.member "op" j = Some (Json.Str "stats"));
        match Json.member "cache" j with
        | Some cache ->
          Alcotest.(check bool) "one cached entry" true
            (Json.member "entries" cache = Some (Json.Int 1));
          (match Json.member "bytes_est" cache with
          | Some (Json.Int b) ->
            Alcotest.(check bool) "cache bytes estimated" true (b > 0)
          | _ -> Alcotest.fail "stats cache has no bytes_est")
        | None -> Alcotest.fail "stats without a cache object")
      | _ -> Alcotest.fail "stats did not answer one line")

let test_cache_warning_fires_once () =
  let warnings = ref [] in
  let e =
    Engine.create ~cache_warn_mb:0.000001
      ~warn:(fun m -> warnings := m :: !warnings)
      ~jobs:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      ignore (Engine.handle_requests e [ request () ]);
      Alcotest.(check int) "one entry" 1 (Engine.cache_entries e);
      Alcotest.(check bool) "bytes estimated" true
        (Engine.cache_bytes_est e > 0);
      Alcotest.(check int) "warning fired" 1 (List.length !warnings);
      (* growth continues, the warning does not repeat *)
      ignore (Engine.handle_requests e [ request ~seed:9 () ]);
      Alcotest.(check int) "two entries" 2 (Engine.cache_entries e);
      Alcotest.(check int) "warning is one-shot" 1 (List.length !warnings))

(* The acceptance pair: the same engine-minted request id must appear
   in the access-log record and as the ["req"] attr on the recorder
   spans serving that request. *)
let test_access_log_and_request_stamp () =
  Fpart_obs.Metrics.set_enabled true;
  let sink, recorded = Sink.memory () in
  Sink.set sink;
  let logs = ref [] in
  let e = Engine.create ~access:(fun j -> logs := j :: !logs) ~jobs:1 () in
  Fun.protect
    ~finally:(fun () ->
      Engine.shutdown e;
      Sink.set Sink.null;
      Fpart_obs.Recorder.reset ())
    (fun () ->
      ignore
        (Engine.handle_requests e
           [ request ~id:"a" (); request ~id:"dup" (); request ~id:"bad" ~device:"XC9999" () ]);
      let logs = List.rev !logs in
      Alcotest.(check int) "one access record per request" 3 (List.length logs);
      let field k j =
        match Json.member k j with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.failf "access record missing %s" k
      in
      (* records emit at completion time (a prepare failure logs before
         the batch fan-out finishes), so find them by client id *)
      let by_id id =
        match List.find_opt (fun j -> field "id" j = id) logs with
        | Some j -> j
        | None -> Alcotest.failf "no access record for %s" id
      in
      let a = by_id "a" and dup = by_id "dup" and bad = by_id "bad" in
      Alcotest.(check string) "rids are minted in request order" "r000001"
        (field "rid" a);
      Alcotest.(check string) "client id preserved" "a" (field "id" a);
      Alcotest.(check string) "cold mode" "cold" (field "mode" a);
      Alcotest.(check string) "duplicate replays as hit" "hit" (field "mode" dup);
      Alcotest.(check string) "errors are logged too" "error" (field "status" bad);
      Alcotest.(check bool) "ok record carries cut and k" true
        (Json.member "cut" a <> None && Json.member "k" a <> None);
      (* the same rid stamps the recorder spans of that request *)
      let spans_of rid =
        List.filter
          (fun j ->
            Json.member "req" j = Some (Json.Str rid)
            && Json.member "type" j = Some (Json.Str "span"))
          (recorded ())
      in
      Alcotest.(check bool) "request a's spans carry its rid" true
        (List.length (spans_of (field "rid" a)) >= 1);
      Alcotest.(check bool) "request dup's spans carry its rid" true
        (List.length (spans_of (field "rid" dup)) >= 1))

(* A crashed request still closes its [serve.request] span, with the
   request's id and the error, before the batch slot reports it. *)
let test_crashed_request_keeps_span () =
  Fpart_obs.Metrics.set_enabled true;
  let sink, recorded = Sink.memory () in
  Sink.set sink;
  let e = Engine.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () ->
      Engine.shutdown e;
      Sink.set Sink.null;
      Fpart_obs.Recorder.reset ())
    (fun () ->
      ignore (Engine.handle_requests e [ request ~id:"boom" ~inject:"crash" () ]);
      let is_request_span j =
        Json.member "type" j = Some (Json.Str "span")
        && Json.member "name" j = Some (Json.Str "serve.request")
      in
      match List.filter is_request_span (recorded ()) with
      | [ Json.Obj fields ] ->
        Alcotest.(check bool) "carries the request id" true
          (List.mem ("id", Json.Str "boom") fields);
        Alcotest.(check bool) "carries the error" true
          (List.assoc_opt "error" fields
          = Some (Json.Str (Printexc.to_string (Failure "injected crash"))))
      | spans ->
        Alcotest.failf "expected one serve.request span, got %d" (List.length spans))

(* A crash inside an ECO's cold fallback closes both the [serve.eco]
   span and the [serve.request] span it opened, each with the request's
   id and the error.  The partfile names no node of the circuit, so the
   ECO falls back to a cold solve, where [inject:"crash"] raises. *)
let test_crashed_eco_keeps_spans () =
  let foreign =
    let b = Hg.Builder.create () in
    let x = Hg.Builder.add_cell b ~name:"foreign_x" ~size:1 in
    let y = Hg.Builder.add_cell b ~name:"foreign_y" ~size:1 in
    ignore (Hg.Builder.add_net b ~name:"foreign_n" [ x; y ]);
    Hg.Builder.freeze b
  in
  let partfile =
    Netlist.Partfile.of_assignment foreign ~circuit:"foreign" ~delta:0.9
      ~block_devices:[| "XC3042" |] ~assignment:[| 0; 0 |]
  in
  let eco =
    {
      Protocol.eco_delta = Protocol.Src_text "";
      eco_partfile = Protocol.Src_text (Netlist.Partfile.to_string partfile);
    }
  in
  Fpart_obs.Metrics.set_enabled true;
  let sink, recorded = Sink.memory () in
  Sink.set sink;
  let e = Engine.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () ->
      Engine.shutdown e;
      Sink.set Sink.null;
      Fpart_obs.Recorder.reset ())
    (fun () ->
      (match Engine.handle_requests e [ request ~id:"boom" ~inject:"crash" ~eco () ] with
      | [ { Protocol.outcome = Error _; _ } ] -> ()
      | [ _ ] -> Alcotest.fail "crashed ECO answered a partition"
      | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
      let error = Json.Str (Printexc.to_string (Failure "injected crash")) in
      List.iter
        (fun name ->
          let is_span j =
            Json.member "type" j = Some (Json.Str "span")
            && Json.member "name" j = Some (Json.Str name)
          in
          match List.filter is_span (recorded ()) with
          | [ Json.Obj fields ] ->
            Alcotest.(check bool) (name ^ " carries the request id") true
              (List.mem ("id", Json.Str "boom") fields);
            Alcotest.(check bool) (name ^ " carries the error") true
              (List.assoc_opt "error" fields = Some error)
          | spans -> Alcotest.failf "expected one %s span, got %d" name (List.length spans))
        [ "serve.eco"; "serve.request" ])

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "op parsing" `Quick test_op_of_line;
        ] );
      ( "engine",
        [
          Alcotest.test_case "bad requests never kill the engine" `Quick
            test_engine_survives_bad_requests;
          Alcotest.test_case "cache hit is bit-identical" `Quick
            test_cache_hit_bit_identical;
          Alcotest.test_case "all-crash batch then recovery" `Quick
            test_all_crash_batch_then_recovery;
          Alcotest.test_case "directory paths are errors" `Quick
            test_directory_paths_rejected;
          Alcotest.test_case "unknown refiner is an error" `Quick
            test_unknown_refiner_rejected;
          Alcotest.test_case "request time limit" `Quick test_request_time_limit;
          Alcotest.test_case "engine time limit" `Quick test_engine_time_limit;
          Alcotest.test_case "multi-start matches run_best" `Quick
            test_multi_start_matches_run_best;
          Alcotest.test_case "multi-start crash is a typed error" `Quick
            test_multi_start_crash_is_error;
          Alcotest.test_case "batch answers do not depend on jobs" `Quick
            test_batch_answers_jobs_independent;
        ] );
      ( "eco",
        [
          Alcotest.test_case "stats and health ops" `Quick
            test_stats_and_health_ops;
          Alcotest.test_case "cache warning fires once" `Quick
            test_cache_warning_fires_once;
          Alcotest.test_case "access log and request stamp agree" `Quick
            test_access_log_and_request_stamp;
          Alcotest.test_case "crashed request keeps its span" `Quick
            test_crashed_request_keeps_span;
          Alcotest.test_case "crashed ECO keeps its spans" `Quick
            test_crashed_eco_keeps_spans;
          Alcotest.test_case "warm start on a small edit" `Quick
            test_eco_warm_beats_cold_via_engine;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_eco_warm_is_feasible_and_consistent ] );
    ]
