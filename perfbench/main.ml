(* The FPART benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A workload is a list of items, each one timed call on inputs generated
   from the seed: one partition, or one client session on serve-eco.  The
   items run round-robin with observability off until S seconds have
   passed, the first round always complete.  A workload's time is the sum
   over its items of each item's median sample.  With --trace 1 one more
   round runs with the flight recorder and resource sampling on, then
   probes of single public functions on the workload's own inputs, and
   the per-layer metrics come from those two traces.

   Every returned partition is recomputed by Fpart_check.Oracle, every
   sample must reproduce its item's first sample, and any failure makes
   the result line say correct:false and the exit code 1.
   perfbench/README.md describes the workloads and the metrics. *)

module Hg = Hypergraph.Hgraph
module Json = Fpart_obs.Json
module Metrics = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder
module Resource = Fpart_obs.Resource
module Sink = Fpart_obs.Sink
module Inspect = Fpart_obs.Inspect
module Oracle = Fpart_check.Oracle
module Protocol = Serve.Protocol
module P = Perfbench

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Seed 1 runs FPART with its default seed, the one run_experiments
   uses, so mcnc-table2 at seed 1 is the Table-2 FPART column. *)
let fpart_config seed =
  let d = Fpart.Config.default in
  { d with Fpart.Config.seed = d.Fpart.Config.seed + seed - 1; jobs = 1 }

let with_span name f =
  let sp = Recorder.span_begin name in
  Fun.protect ~finally:(fun () -> Recorder.span_end sp ~attrs:[]) f

let blif ~name hg = Netlist.Blif.to_string (Netlist.Blif.of_hypergraph ~name hg)

let parse text =
  match Netlist.Blif.parse_string text with
  | Ok m -> m.Netlist.Blif.graph
  | Error e -> failwith e

(* {1 Returned partitions} *)

type part = {
  label : string;
  hg : Hg.t;
  device : Device.t;
  delta : float;
  k : int;
  m_lower : int;
  cut : int;
  feasible : bool;
  assignment : int array;
  hit : bool;  (* a cache replay: checked, but left out of the quality sums *)
}

let part_of_driver ~label hg device (r : Fpart.Driver.result) =
  {
    label;
    hg;
    device;
    delta = r.Fpart.Driver.delta;
    k = r.Fpart.Driver.k;
    m_lower = r.Fpart.Driver.m_lower;
    cut = r.Fpart.Driver.cut;
    feasible = r.Fpart.Driver.feasible;
    assignment = r.Fpart.Driver.assignment;
    hit = false;
  }

(* A served partition is known only by its partfile: re-parse it against
   the client's own copy of the netlist. *)
let part_of_success ~label hg device (s : Protocol.success) =
  let ( let* ) = Result.bind in
  let* pf = Netlist.Partfile.parse_string s.Protocol.partition in
  let* assignment, k = Netlist.Partfile.apply pf hg in
  if k <> s.Protocol.k then
    Error
      (Printf.sprintf "the partfile has %d blocks, the response says k = %d" k
         s.Protocol.k)
  else
    Ok
      {
        label;
        hg;
        device;
        delta = pf.Netlist.Partfile.delta;
        k;
        m_lower = s.Protocol.m_lower;
        cut = s.Protocol.cut;
        feasible = s.Protocol.feasible;
        assignment;
        hit = s.Protocol.cache = "hit";
      }

(* Everything a partition claims, recomputed from scratch: every block
   fits the device at the delta used, the cut is the reported one, every
   block index is in range, M is the lower bound and k >= M. *)
let check p =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let n = Hg.num_nodes p.hg in
  if p.k < 1 then fail "k = %d" p.k
  else if Array.length p.assignment <> n then
    fail "the assignment covers %d of %d nodes" (Array.length p.assignment) n
  else if Array.exists (fun b -> b < 0 || b >= p.k) p.assignment then
    fail "a block index is outside 0..%d" (p.k - 1)
  else begin
    let o = Oracle.recompute p.hg ~k:p.k ~assign:(Array.get p.assignment) in
    let s_max = Device.s_max p.device ~delta:p.delta in
    let t_max = p.device.Device.t_max in
    let f_max =
      Option.value ~default:max_int (Device.ff_max p.device ~delta:p.delta)
    in
    for b = 0 to p.k - 1 do
      let size = o.Oracle.sizes.(b)
      and pins = o.Oracle.pins.(b)
      and flops = o.Oracle.flops.(b) in
      if size > s_max then fail "block %d holds %d cells > %d" b size s_max;
      if pins > t_max then fail "block %d has %d pins > %d" b pins t_max;
      if flops > f_max then fail "block %d has %d flip-flops > %d" b flops f_max
    done;
    if o.Oracle.cut <> p.cut then
      fail "reported cut %d, recomputed %d" p.cut o.Oracle.cut
  end;
  let m =
    Device.lower_bound p.device ~delta:p.delta ~total_size:(Hg.total_size p.hg)
      ~total_pads:(Hg.num_pads p.hg)
  in
  if m <> p.m_lower then fail "reported M = %d, recomputed %d" p.m_lower m;
  if p.k < m then fail "k = %d is below the lower bound %d" p.k m;
  if not p.feasible then fail "reported infeasible";
  List.rev !errors

(* {1 Items} *)

type kind = Cold | Warm | Hit

type sample = {
  wall : float;  (* seconds inside the timed calls *)
  cpu : float;  (* user + system seconds inside the same calls *)
  ops : (part, string) result list;  (* one per partition or request *)
  latencies : (kind * float) list;  (* serve-eco: ms per request *)
}

type clock = { mutable wall_s : float; mutable cpu_s : float }

let new_clock () = { wall_s = 0.0; cpu_s = 0.0 }

(* Runs [f] inside the timed section; returns its value and its wall
   seconds. *)
let timed clk f =
  let c0 = cpu_now () and t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  clk.wall_s <- clk.wall_s +. dt;
  clk.cpu_s <- clk.cpu_s +. (cpu_now () -. c0);
  (x, dt)

let attempt label f =
  match f () with
  | Ok _ as ok -> ok
  | Error e -> Error (label ^ ": " ^ e)
  | exception e -> Error (label ^ ": " ^ Printexc.to_string e)

let solved clk op = { wall = clk.wall_s; cpu = clk.cpu_s; ops = [ op ]; latencies = [] }

type item = {
  name : string;
  text : string;  (* the input netlist as BLIF *)
  input : Hg.t;
  device : Device.t;
  run : unit -> sample;  (* one timed call on the input *)
}

type prepared = {
  items : item list;
  fingerprint : string;  (* digest of every generated input *)
}

let digest_of texts = Digest.to_hex (Digest.string (String.concat "\n" texts))

(* {1 Workloads} *)

(* The ten Table-1 circuits are fixed; the seed reaches FPART only. *)
let mcnc_table2 seed =
  let config = fpart_config seed and device = Device.xc3020 in
  let item c =
    let name = c.Netlist.Mcnc.circuit_name in
    let hg = Netlist.Mcnc.surrogate c Device.XC3000 in
    let run () =
      let clk = new_clock () in
      solved clk
        (attempt name (fun () ->
             let r, _ =
               timed clk (fun () ->
                   with_span "bench.solve" (fun () ->
                       Fpart.Driver.run ~config hg device))
             in
             Ok (part_of_driver ~label:name hg device r)))
    in
    { name; text = blif ~name hg; input = hg; device; run }
  in
  let items = List.map item Netlist.Mcnc.all in
  { items; fingerprint = digest_of (List.map (fun i -> i.text) items) }

let flat config hg device = Fpart.Driver.run ~config hg device

let mlevel config hg device =
  (Mlevel.Engine.run ~base:config hg device).Mlevel.Engine.res

(* Rent-rule circuits as BLIF text: an item parses its text and
   partitions the parsed graph. *)
let rent ~circuits ~cells ~device ~solve seed =
  let config = fpart_config seed and rng = Prng.Splitmix.create seed in
  let item i =
    let name = Printf.sprintf "rent%d" i in
    let text =
      blif ~name
        (Netlist.Generator.generate
           (Netlist.Generator.rent_spec ~name ~cells
              ~seed:(Prng.Splitmix.int rng 0x3FFFFFFF)))
    in
    let run () =
      let clk = new_clock () in
      solved clk
        (attempt name (fun () ->
             match
               fst
                 (timed clk (fun () ->
                      with_span "netlist.parse" (fun () ->
                          Netlist.Blif.parse_string text)))
             with
             | Error e -> Error ("parse: " ^ e)
             | Ok m ->
               let hg = m.Netlist.Blif.graph in
               let r, _ =
                 timed clk (fun () ->
                     with_span "bench.solve" (fun () -> solve config hg device))
               in
               Ok (part_of_driver ~label:name hg device r)))
    in
    { name; text; input = parse text; device; run }
  in
  let items = List.init circuits item in
  { items; fingerprint = digest_of (List.map (fun i -> i.text) items) }

let serve_circuits = 12
let serve_repeats = 10
let serve_device = Device.xc3042

let request_line ~device ~config_seed ~id ?eco text =
  let eco =
    match eco with
    | None -> []
    | Some (delta, partfile) ->
      [
        ( "eco",
          Json.Obj
            [
              ("delta", Json.Obj [ ("text", Json.Str delta) ]);
              ("partfile", Json.Obj [ ("text", Json.Str partfile) ]);
            ] );
      ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Str id);
          ("netlist", Json.Obj [ ("blif", Json.Str text) ]);
          ("device", Json.Str device.Device.dev_name);
          ("seed", Json.Int config_seed);
        ]
       @ eco))

(* An ECO edit: remove one cell, add one on a new net with two others. *)
let eco_delta rng hg j =
  let cells =
    Array.of_list
      (Hg.fold_nodes (fun acc v -> if Hg.is_pad hg v then acc else v :: acc) [] hg)
  in
  let rec draw avoid =
    let v = Prng.Splitmix.choose rng cells in
    if List.mem v avoid then draw avoid else v
  in
  let removed = draw [] in
  let a = draw [ removed ] in
  let b = draw [ removed; a ] in
  let cell = Printf.sprintf "eco_cell%d" j in
  {
    Netlist.Delta.empty with
    Netlist.Delta.remove_nodes = [ Hg.name hg removed ];
    add_cells = [ { Netlist.Delta.cell_name = cell; size = 1; flops = 0 } ];
    add_nets =
      [
        {
          Netlist.Delta.net_name = Printf.sprintf "eco_net%d" j;
          pins = [ cell; Hg.name hg a; Hg.name hg b ];
        };
      ];
  }

(* [n] ECO edits of [hg]: each delta as text, and the edited graph. *)
let draw_ecos rng hg n =
  Array.init n (fun j ->
      let d = eco_delta rng hg j in
      match Netlist.Delta.apply d hg with
      | Ok hg' -> (Netlist.Delta.to_string d, hg')
      | Error e -> failwith e)

(* One closed-loop client session on a fresh engine: a cold request for
   [text], then per ECO edit a repeat of it (a cache hit) and an ECO
   request carrying the cold partfile and the delta (a warm start).
   Only [Server.react] is timed; [hg] is the client's own parse. *)
let session ~config_seed ~device ~name ~text ~hg ~ecos =
  let cold_line = request_line ~device ~config_seed ~id:name text in
  fun () ->
    let engine = Serve.Engine.create ~jobs:1 () in
    Fun.protect ~finally:(fun () -> Serve.Engine.shutdown engine) @@ fun () ->
    let clk = new_clock () in
    let ops = ref [] and latencies = ref [] in
    let send line =
      let reaction, dt =
        timed clk (fun () ->
            with_span "bench.react" (fun () -> Serve.Server.react engine line))
      in
      match reaction with
      | Serve.Server.Lines [ l ] -> (
        match Protocol.response_of_line l with
        | Error e -> Error e
        | Ok { Protocol.outcome = Error e; _ } -> Error ("error response: " ^ e)
        | Ok { Protocol.outcome = Ok s; _ } ->
          let kind =
            if s.Protocol.cache = "hit" then Hit
            else if s.Protocol.mode = "warm" then Warm
            else Cold
          in
          latencies := (kind, 1000.0 *. dt) :: !latencies;
          Ok s)
      | _ -> Error "expected one response line"
    in
    let request label hg line =
      let r =
        attempt label (fun () ->
            Result.bind (send line) (fun s ->
                Result.map
                  (fun p -> (p, s.Protocol.partition))
                  (part_of_success ~label hg device s)))
      in
      ops := Result.map fst r :: !ops;
      r
    in
    let cold = request (name ^ "/cold") hg cold_line in
    Array.iteri
      (fun j (delta, hg') ->
        ignore (request (Printf.sprintf "%s/hit%d" name j) hg cold_line);
        let label = Printf.sprintf "%s/eco%d" name j in
        match cold with
        | Ok (_, partfile) ->
          ignore
            (request label hg'
               (request_line ~device ~config_seed ~id:label ~eco:(delta, partfile)
                  text))
        | Error _ -> ops := Error (label ^ ": no cold partition to edit") :: !ops)
      ecos;
    {
      wall = clk.wall_s;
      cpu = clk.cpu_s;
      ops = List.rev !ops;
      latencies = List.rev !latencies;
    }

(* Per item, one session on a generated circuit of about 600 cells. *)
let serve_eco seed =
  let config_seed = (fpart_config seed).Fpart.Config.seed in
  let rng = Prng.Splitmix.create seed in
  let item i =
    let name = Printf.sprintf "eco%02d" i in
    let cells = Prng.Splitmix.int_in rng 560 640 in
    let pads = Prng.Splitmix.int_in rng 48 72 in
    let text =
      blif ~name
        (Netlist.Generator.generate
           (Netlist.Generator.default_spec ~name ~cells ~pads
              ~seed:(Prng.Splitmix.int rng 0x3FFFFFFF)))
    in
    let hg = parse text in
    let ecos = draw_ecos rng hg serve_repeats in
    ( {
        name;
        text;
        input = hg;
        device = serve_device;
        run = session ~config_seed ~device:serve_device ~name ~text ~hg ~ecos;
      },
      String.concat "\n" (text :: Array.to_list (Array.map fst ecos)) )
  in
  let items = List.init serve_circuits item in
  { items = List.map fst items; fingerprint = digest_of (List.map snd items) }

let workloads =
  [
    ("mcnc-table2", mcnc_table2);
    ("rent5k-flat", rent ~circuits:3 ~cells:5_000 ~device:Device.xc3090 ~solve:flat);
    ("rent20k-mlevel", rent ~circuits:2 ~cells:20_000 ~device:Device.v1250 ~solve:mlevel);
    ("serve-eco", serve_eco);
  ]

(* {1 Measuring} *)

(* The always-on counters every sample must reproduce exactly, traced or
   not. *)
let counter_names =
  [
    "driver.iterations";
    "sanchis.improve_calls";
    "sanchis.passes";
    "sanchis.moves";
    "sanchis.rewound_moves";
    "bucket.updates";
    "bucket.scanned_cells";
    "mlevel.levels";
    "serve.requests";
    "serve.cache_hits";
    "serve.eco_warm";
    "serve.eco_fallback";
  ]

let read_counters () =
  List.map (fun name -> Metrics.counter_value (Metrics.counter name)) counter_names

(* The counters' growth over [f ()]. *)
let counting f =
  let before = read_counters () in
  let x = f () in
  (x, List.combine counter_names (List.map2 ( - ) (read_counters ()) before))

type measured = { out : sample; counts : (string * int) list }

(* One sample of [item]; the previous sample's garbage is collected
   first, outside the timed section. *)
let measure item =
  Gc.full_major ();
  let out, counts = counting item.run in
  { out; counts }

(* Runs the items round-robin until [seconds] have passed; returns each
   item's samples in order. *)
let sample_for seconds items =
  let items = Array.of_list items in
  let n = Array.length items in
  let samples = Array.make n [] in
  let t0 = now () in
  let rec go i =
    if now () -. t0 < seconds then begin
      samples.(i) <- measure items.(i) :: samples.(i);
      go ((i + 1) mod n)
    end
  in
  go 0;
  Array.to_list (Array.map List.rev samples)

let parts ms = List.concat_map (fun m -> List.filter_map Result.to_option m.out.ops) ms

(* Sum over partitions, cache replays left out. *)
let total f ms = List.fold_left (fun acc p -> if p.hit then acc else acc + f p) 0 (parts ms)

let signature m =
  ( List.map
      (function Ok p -> Some (p.k, p.m_lower, p.cut) | Error _ -> None)
      m.out.ops,
    m.counts )

(* Runs [f] with the flight recorder and resource sampling on, recording
   into memory; returns its value and the records. *)
let traced f =
  let sink, records = Sink.memory () in
  Sink.set sink;
  Metrics.set_enabled true;
  Resource.set_enabled true;
  let x =
    Fun.protect f ~finally:(fun () ->
        Resource.set_enabled false;
        Metrics.set_enabled false;
        Sink.close_current ())
  in
  (x, records ())

let probe_ecos = 3

type probed = {
  p_ops : (part, string) result list;  (* the probes' partitions, for the checks *)
  levels : int;  (* of the multilevel probe *)
  coarsen_ratio : float;
  serve_counts : (string * int) list;  (* counter growth over the session probe *)
}

(* Direct calls into single public functions on the workload's own
   inputs, each under its own span: the parse and the digest of every
   input, five partition states at the largest final k, and, on the
   smallest input, one multilevel run and one client session of a cold,
   [probe_ecos] hit and [probe_ecos] ECO requests.  So every layer is
   measured on every workload. *)
let probes ~seed items largest =
  let config = fpart_config seed in
  let parsed =
    List.map
      (fun it ->
        attempt (it.name ^ "/parse probe") (fun () ->
            match with_span "probe.parse" (fun () -> Netlist.Blif.parse_string it.text) with
            | Error e -> Error e
            | Ok m ->
              ignore (with_span "probe.digest" (fun () -> Hg.digest m.Netlist.Blif.graph));
              Ok ()))
      items
  in
  Option.iter
    (fun part ->
      for _ = 1 to 5 do
        ignore
          (with_span "probe.state_create" (fun () ->
               Partition.State.create part.hg ~k:part.k
                 ~assign:(Array.get part.assignment)))
      done)
    largest;
  let s =
    List.fold_left
      (fun a b -> if Hg.num_nodes b.input < Hg.num_nodes a.input then b else a)
      (List.hd items) items
  in
  let levels = ref 0 and coarsen_ratio = ref 0.0 in
  let mlevel_op =
    attempt (s.name ^ "/mlevel probe") (fun () ->
        let r =
          with_span "probe.mlevel" (fun () ->
              Mlevel.Engine.run ~base:config s.input s.device)
        in
        levels := r.Mlevel.Engine.levels;
        coarsen_ratio := r.Mlevel.Engine.coarsen_ratio;
        Ok (part_of_driver ~label:(s.name ^ "/mlevel probe") s.input s.device r.Mlevel.Engine.res))
  in
  let hg = parse s.text in
  let served, serve_counts =
    counting (fun () ->
        with_span "probe.serve"
          (session ~config_seed:config.Fpart.Config.seed ~device:s.device
             ~name:(s.name ^ "-probe") ~text:s.text ~hg
             ~ecos:(draw_ecos (Prng.Splitmix.create seed) hg probe_ecos)))
  in
  {
    p_ops =
      List.filter_map
        (function Error e -> Some (Error e) | Ok () -> None)
        parsed
      @ (mlevel_op :: served.ops);
    levels = !levels;
    coarsen_ratio = !coarsen_ratio;
    serve_counts;
  }

(* {1 Metrics} *)

let metric name unit_ value = { P.name; value; unit_ }

(* Per-kind request latencies pooled over the samples; a p95 only with
   ten samples beyond it. *)
let latency_metrics samples =
  let all = List.concat_map (fun m -> m.out.latencies) samples in
  List.concat_map
    (fun (kind, name) ->
      match List.filter_map (fun (k, ms) -> if k = kind then Some ms else None) all with
      | [] -> []
      | xs ->
        let n = List.length xs in
        [
          metric (name ^ "_samples") "count" (float_of_int n);
          metric (name ^ "_p50_ms") "ms" (P.median xs);
        ]
        @
        if P.reportable n 0.95 then
          [ metric (name ^ "_p95_ms") "ms" (P.percentile xs 0.95) ]
        else [])
    [ (Cold, "cold"); (Warm, "warm"); (Hit, "hit") ]

(* Span names reported in seconds with their allocation in megawords:
   (metric prefix, span name, self or inclusive).  The first three come
   from the traced round, the rest from the probes. *)
let round_spans =
  [
    ("fpart.run_self", "driver.run", `Self);
    ("fpart.iteration_self", "driver.iteration", `Self);
    ("sanchis.self", "improve.pass", `Self);
  ]

let probe_spans =
  [
    ("mlevel.run_self", "mlevel.run", `Self);
    ("mlevel.coarsen", "mlevel.coarsen", `Total);
    ("mlevel.initial", "mlevel.initial", `Total);
    ("mlevel.uncoarsen_self", "mlevel.uncoarsen", `Self);
    ("mlevel.refine", "mlevel.refine", `Total);
    ("serve.protocol_self", "bench.react", `Self);
    ("serve.prepare_self", "serve.batch", `Self);
    ("serve.eco", "serve.eco", `Total);
    ("serve.cold", "serve.request", `Total);
  ]

let per_layer ~wall_s ~round ~round_records ~probed ~probe_records =
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let span_metrics records spans =
    let l = P.layer (P.layers records) in
    List.concat_map
      (fun (prefix, span, which) ->
        let x = l span in
        let s, mw =
          match which with
          | `Self -> (x.P.self_s, x.P.self_alloc_mw)
          | `Total -> (x.P.total_s, x.P.total_alloc_mw)
        in
        [ metric (prefix ^ "_s") "s" s; metric (prefix ^ "_alloc_mw") "Mw" mw ])
      spans
  in
  let probe = P.layer (P.layers probe_records) in
  let per_call_ms name =
    let x = probe name in
    ratio (1000.0 *. x.P.total_s) (float_of_int x.P.calls)
  in
  let per_call_mw name =
    let x = probe name in
    ratio x.P.self_alloc_mw (float_of_int x.P.calls)
  in
  let count name =
    float_of_int (List.fold_left (fun acc m -> acc + List.assoc name m.counts) 0 round)
  in
  let serve_count name = float_of_int (List.assoc name probed.serve_counts) in
  let conv = Inspect.convergence (Inspect.of_records round_records) in
  let improves = float_of_int (List.length conv) in
  let idle = List.length (List.filter (fun r -> r.Inspect.c_retained = 0) conv) in
  let improve_moves = List.fold_left (fun acc r -> acc + r.Inspect.c_moves) 0 conv in
  let traced_wall = List.fold_left (fun acc m -> acc +. m.out.wall) 0.0 round in
  span_metrics round_records round_spans
  @ span_metrics probe_records probe_spans
  @ [
      metric "netlist.parse_ms" "ms" (per_call_ms "probe.parse");
      metric "netlist.parse_alloc_mw" "Mw" (per_call_mw "probe.parse");
      metric "hypergraph.digest_ms" "ms" (per_call_ms "probe.digest");
      metric "partition.state_create_ms" "ms" (per_call_ms "probe.state_create");
      metric "partition.state_alloc_mw" "Mw" (per_call_mw "probe.state_create");
      metric "fpart.iterations" "count" (count "driver.iterations");
      metric "fpart.improve_calls" "count" improves;
      metric "fpart.improve_idle_ratio" "ratio" (ratio (float_of_int idle) improves);
      metric "fpart.devices_over_bound" "devices"
        (float_of_int (total (fun p -> p.k - p.m_lower) round));
      metric "sanchis.moves" "count" (count "sanchis.moves");
      metric "sanchis.passes" "count" (count "sanchis.passes");
      metric "sanchis.retained_ratio" "ratio"
        (1.0 -. ratio (count "sanchis.rewound_moves") (count "sanchis.moves"));
      metric "sanchis.moves_per_s" "1/s"
        (ratio (float_of_int improve_moves)
           (P.layer (P.layers round_records) "improve.pass").P.self_s);
      metric "gainbucket.updates" "count" (count "bucket.updates");
      metric "gainbucket.scanned_cells" "count" (count "bucket.scanned_cells");
      metric "mlevel.levels" "count" (float_of_int probed.levels);
      metric "mlevel.coarsen_ratio" "ratio" probed.coarsen_ratio;
      metric "serve.cache_hit_ratio" "ratio"
        (ratio (serve_count "serve.cache_hits") (serve_count "serve.requests"));
      metric "serve.warm_ratio" "ratio"
        (ratio (serve_count "serve.eco_warm")
           (serve_count "serve.eco_warm" +. serve_count "serve.eco_fallback"));
      metric "obs.traced_wall_s" "s" traced_wall;
      metric "obs.trace_overhead" "ratio" ((traced_wall /. wall_s) -. 1.0);
    ]

let largest ms =
  List.fold_left
    (fun best p ->
      match best with
      | Some b when Hg.num_nodes b.hg >= Hg.num_nodes p.hg -> best
      | _ -> Some p)
    None (parts ms)

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N the seed every input derives from (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long the untraced samples run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let setup =
    match List.assoc_opt !workload workloads with
    | Some setup when !trace = 0 || !trace = 1 -> setup
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let tracing = !trace = 1 in
  Fpart_obs.Clock.set_source now;
  Resource.set_os_source (fun () ->
      let t = Unix.times () in
      {
        Resource.os_maxrss_kb = Resource.throttled_maxrss_kb ();
        os_utime_s = t.Unix.tms_utime;
        os_stime_s = t.Unix.tms_stime;
      });
  let problems = ref [] in
  let fail msg = problems := msg :: !problems in
  let setup_times = ref [] and fingerprints = ref [] in
  let set_up () =
    Gc.full_major ();
    let t0 = now () in
    let p = setup !seed in
    setup_times := (now () -. t0) :: !setup_times;
    fingerprints := p.fingerprint :: !fingerprints;
    p
  in
  let p = set_up () in
  let t0 = now () in
  let first_round = List.map measure p.items in
  (* The peak is read after one set-up and one round, the same work on
     every run however many samples fit: later samples and repeated
     set-ups only fragment the heap further.  Then set-up runs at least
     five times in all and for at least a second, so that the median of
     even a short one is steady; the traced run reports neither and sets
     up once. *)
  let peak_rss_mb = float_of_int (Resource.proc_status_maxrss_kb ()) /. 1024.0 in
  let untraced =
    List.map2 List.cons first_round (sample_for (!seconds -. (now () -. t0)) p.items)
  in
  if not tracing then
    while List.length !setup_times < 5 || List.fold_left ( +. ) 0.0 !setup_times < 1.0 do
      ignore (set_up ())
    done;
  if List.length (List.sort_uniq compare !fingerprints) > 1 then
    fail "set-up is not deterministic: its inputs differ between repetitions";
  let firsts = List.map List.hd untraced in
  let wall_s = P.sum_of_medians (List.map (List.map (fun m -> m.out.wall)) untraced) in
  let traced_run =
    if not tracing then None
    else begin
      Recorder.set_epoch ();
      let round, round_records = traced (fun () -> List.map measure p.items) in
      let probed, probe_records =
        traced (fun () -> probes ~seed:!seed p.items (largest firsts))
      in
      Some (round, round_records, probed, probe_records)
    end
  in
  let ops =
    List.concat_map (fun m -> m.out.ops) (List.concat untraced)
    @
    match traced_run with
    | None -> []
    | Some (round, _, probed, _) ->
      List.concat_map (fun m -> m.out.ops) round @ probed.p_ops
  in
  let attempted = List.length ops in
  List.iter
    (function
      | Error e -> fail e
      | Ok part -> (
        match check part with
        | [] -> ()
        | errors -> fail (part.label ^ ": " ^ String.concat "; " errors)
        | exception e -> fail (part.label ^ ": " ^ Printexc.to_string e)))
    ops;
  let reruns =
    match traced_run with
    | None -> untraced
    | Some (round, _, _, _) -> List.map2 (fun ms m -> ms @ [ m ]) untraced round
  in
  List.iter2
    (fun it ms ->
      let first = List.hd ms in
      List.iteri
        (fun i m ->
          if signature m <> signature first then
            fail
              (Printf.sprintf
                 "%s: sample %d differs from sample 1 in its partitions or layer counts"
                 it.name (i + 1)))
        ms)
    p.items reruns;
  let devices = total (fun part -> part.k) firsts
  and bound = total (fun part -> part.m_lower) firsts in
  if !workload = "mcnc-table2" && !seed = 1 && (devices <> 179 || bound <> 172) then
    fail
      (Printf.sprintf
         "mcnc-table2 at seed 1: sum k = %d and sum M = %d, Table 2 has 179 and 172"
         devices bound);
  let failed = List.length !problems in
  let error_rate =
    metric "error_rate" "ratio" (float_of_int failed /. float_of_int (max 1 attempted))
  in
  let metrics, extras =
    match traced_run with
    | Some (round, round_records, probed, probe_records) ->
      (per_layer ~wall_s ~round ~round_records ~probed ~probe_records, [ error_rate ])
    | None ->
      ( [
          metric "wall_s" "s" wall_s;
          metric "cpu_s" "s"
            (P.sum_of_medians (List.map (List.map (fun m -> m.out.cpu)) untraced));
          metric "peak_rss_mb" "MB" peak_rss_mb;
          metric "setup_s" "s" (P.median !setup_times);
          metric "devices" "devices" (float_of_int devices);
          metric "cut_nets" "nets" (float_of_int (total (fun part -> part.cut) firsts));
        ],
        [
          metric "devices_over_bound" "devices" (float_of_int (devices - bound));
          metric "lower_bound" "devices" (float_of_int bound);
          error_rate;
        ]
        @ latency_metrics (List.concat untraced) )
  in
  let counts = List.map List.length untraced in
  Printf.printf "# %s, seed %d: %d item(s), %d to %d untraced samples each%s\n"
    !workload !seed (List.length counts)
    (List.fold_left min max_int counts)
    (List.fold_left max 0 counts)
    (if tracing then ", then a traced round and the probes" else "");
  List.iter
    (fun m -> Printf.printf "%-34s %16.6g %s\n" m.P.name m.P.value m.P.unit_)
    (metrics @ extras);
  List.iter (fun e -> prerr_endline ("perfbench: FAILED " ^ e)) (List.rev !problems);
  print_endline (P.result_line ~correct:(failed = 0) ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)

let () = main ()
