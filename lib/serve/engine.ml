module Hg = Hypergraph.Hgraph
module Json = Fpart_obs.Json
module Metrics = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder

module Expose = Fpart_obs.Expose

let c_requests = Metrics.counter "serve.requests"
let c_cache_hits = Metrics.counter "serve.cache_hits"
let c_errors = Metrics.counter "serve.errors"
let c_eco_warm = Metrics.counter "serve.eco_warm"
let c_eco_fallback = Metrics.counter "serve.eco_fallback"
let c_cache_warnings = Metrics.counter "serve.cache.warnings"
let h_cold = Metrics.histogram "serve.latency.cold_ms"
let h_warm = Metrics.histogram "serve.latency.warm_ms"

let now = Unix.gettimeofday

type t = {
  pool : Fpart_exec.Pool.t;
  cache : Cache.t;
  jobs : int;
  timeout_s : float option;
  mutable served : int;
  mutable next_rid : int;  (* request-id mint, monotone per engine *)
  t0 : float;  (* creation time, for uptime reporting *)
  access : (Json.t -> unit) option;  (* access-log record consumer *)
  warn : string -> unit;
  cache_warn_mb : float option;
  mutable cache_warned : bool;  (* the size warning fires once *)
}

let create ?timeout_s ?cache_warn_mb ?(warn = fun _ -> ()) ?access ~jobs () =
  let t =
    {
      pool = Fpart_exec.Pool.create ~jobs;
      cache = Cache.create ();
      jobs;
      timeout_s;
      served = 0;
      next_rid = 0;
      t0 = now ();
      access;
      warn;
      cache_warn_mb;
      cache_warned = false;
    }
  in
  (* Cache visibility gauges: sampled at scrape time, so a daemon's
     /metrics always shows the current size of the unbounded result
     cache.  [set_gauge] replaces, so the newest engine owns the
     names (tests create many short-lived engines). *)
  Expose.set_gauge "serve.cache.entries"
    ~help:"Entries in the digest-keyed result cache." (fun () ->
      float_of_int (Cache.size t.cache));
  Expose.set_gauge "serve.cache.bytes_est"
    ~help:"Estimated retained bytes of the result cache." (fun () ->
      float_of_int (Cache.bytes_est t.cache));
  Expose.set_gauge "serve.cache.hit_ratio"
    ~help:"Cache hits / lookups since engine start." (fun () ->
      let hits = Cache.hits t.cache and misses = Cache.misses t.cache in
      if hits + misses = 0 then 0.0
      else float_of_int hits /. float_of_int (hits + misses));
  t

let mint_rid t =
  t.next_rid <- t.next_rid + 1;
  Printf.sprintf "r%06d" t.next_rid

let jobs t = t.jobs

let served t = t.served

let cache_hits t = Cache.hits t.cache

let shutdown t = Fpart_exec.Pool.shutdown t.pool

(* --- request preparation ------------------------------------------- *)

type prepared = {
  p_req : Protocol.request;
  p_rid : string;  (* engine-minted request id, stamped on spans *)
  p_name : string;  (* circuit name, for the result partfile *)
  p_hg : Hg.t;  (* delta already applied for ECO requests *)
  p_device : Device.t;
  p_config : Fpart.Config.t;
  p_net_digest : string;
  p_cfg_digest : string;
  p_key : string;
  p_partfile : Netlist.Partfile.t option;  (* ECO: stale partition *)
}

let ( let* ) = Result.bind

let load_netlist = function
  | Protocol.Path path ->
    Result.map_error (Printf.sprintf "cannot parse %s: %s" path) (Netlist.Load.file path)
  | Protocol.Inline_blif text ->
    let* m = Netlist.Blif.parse_string text in
    Ok (m.Netlist.Blif.model_name, m.Netlist.Blif.graph)
  | Protocol.Inline_xnf text ->
    let* d = Netlist.Xnf.parse_string text in
    Ok (d.Netlist.Xnf.design_name, d.Netlist.Xnf.graph)
  | Protocol.Generate { spec; gen_seed } ->
    Result.map_error (Printf.sprintf "bad generate spec (%s)")
      (Netlist.Load.generate spec ~seed:gen_seed)

let config_of_request (req : Protocol.request) =
  let c = { Fpart.Config.default with delta = req.delta; runs = req.runs } in
  let c =
    match req.seed with Some s -> { c with Fpart.Config.seed = s } | None -> c
  in
  let* c =
    match req.max_passes with
    | Some m when m >= 1 -> Ok { c with Fpart.Config.max_passes = m }
    | Some _ -> Error "\"max_passes\" must be >= 1"
    | None -> Ok c
  in
  match req.refiner with
  | None -> Ok c
  | Some r -> (
    match Fpart.Config.refiner_of_string r with
    | Some r -> Ok { c with Fpart.Config.refiner = r }
    | None -> Error (Printf.sprintf "unknown refiner %S" r))

let read_source what = function
  | Protocol.Src_text text -> Ok text
  | Protocol.Src_path path ->
    Result.map_error (Printf.sprintf "%s %s: %s" what path) (Netlist.Textfile.read path)

let prepare ~rid (req : Protocol.request) =
  let* device =
    match Device.find req.device with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "unknown device %S" req.device)
  in
  let* name, hg = load_netlist req.netlist in
  let* config = config_of_request req in
  let* hg, partfile =
    match req.eco with
    | None -> Ok (hg, None)
    | Some eco ->
      let* dtext = read_source "eco delta" eco.Protocol.eco_delta in
      let* d =
        match Netlist.Delta.parse_string dtext with
        | Ok d -> Ok d
        | Error e -> Error ("eco delta: " ^ e)
      in
      let* hg =
        match Netlist.Delta.apply d hg with
        | Ok hg -> Ok hg
        | Error e -> Error ("eco delta: " ^ e)
      in
      let* ptext = read_source "eco partfile" eco.Protocol.eco_partfile in
      let* pf =
        match Netlist.Partfile.parse_string ptext with
        | Ok pf -> Ok pf
        | Error e -> Error ("eco partfile: " ^ e)
      in
      Ok (hg, Some pf)
  in
  let net_digest = Hg.digest hg in
  let cfg_digest = Fpart.Config.digest config in
  Ok
    {
      p_req = req;
      p_rid = rid;
      p_name = name;
      p_hg = hg;
      p_device = device;
      p_config = config;
      p_net_digest = net_digest;
      p_cfg_digest = cfg_digest;
      p_key =
        Cache.key ~netlist_digest:net_digest
          ~device:device.Device.dev_name ~config_digest:cfg_digest;
      p_partfile = partfile;
    }

(* --- execution ----------------------------------------------------- *)

let success_of_result p ~mode ~cache ~wall_ms ~k ~assignment ~feasible ~cut
    ~total_pins ~m_lower =
  let delta = Fpart.Config.delta_for p.p_config p.p_device in
  let* pf =
    Netlist.Partfile.of_assignment_checked p.p_hg ~circuit:p.p_name ~delta
      ~block_devices:(Array.make k p.p_device.Device.dev_name)
      ~assignment
  in
  Ok
    {
      Protocol.k;
      feasible;
      cut;
      total_pins;
      m_lower;
      wall_ms;
      cache;
      mode;
      netlist_digest = p.p_net_digest;
      config_digest = p.p_cfg_digest;
      partition = Netlist.Partfile.to_string pf;
    }

(* [in_span name p f] runs [f] inside the recorder span [name], closed
   with the request's id and the attributes [f] returns.  A raise
   closes the span with an [error] attribute and goes on into the
   batch slot, so the trace keeps a record of a crashed request. *)
let in_span name p f =
  let id = ("id", Json.Str p.p_req.Protocol.id) in
  let sp = Recorder.span_begin name in
  match f () with
  | result, attrs ->
    Recorder.span_end sp ~attrs:(id :: attrs);
    result
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Recorder.span_end sp ~attrs:[ id; ("error", Json.Str (Printexc.to_string e)) ];
    Printexc.raise_with_backtrace e bt

(* The cold solve of one request.  A request carrying [inject:"crash"]
   raises here, inside its batch slot, exactly like a real bug in the
   partitioning engine would. *)
let run_cold p ~cache_tag =
  let req = p.p_req in
  let t0 = now () in
  in_span "serve.request" p @@ fun () ->
  (match req.Protocol.inject with
  | Some "crash" -> failwith "injected crash"
  | Some other -> failwith (Printf.sprintf "unknown inject %S" other)
  | None -> ());
  let r = Solve.run p.p_config p.p_hg p.p_device in
  let wall_ms = (now () -. t0) *. 1000.0 in
  Metrics.observe h_cold wall_ms;
  ( success_of_result p ~mode:"cold" ~cache:cache_tag ~wall_ms ~k:r.Fpart.Driver.k
      ~assignment:r.Fpart.Driver.assignment ~feasible:r.Fpart.Driver.feasible
      ~cut:r.Fpart.Driver.cut ~total_pins:r.Fpart.Driver.total_pins
      ~m_lower:r.Fpart.Driver.m_lower,
    [ ("mode", Json.Str "cold"); ("runs", Json.Int req.Protocol.runs) ] )

let run_eco p partfile =
  in_span "serve.eco" p @@ fun () ->
  let t0 = now () in
  let outcome =
    Eco.relegalize ~config:p.p_config ~device:p.p_device ~partfile p.p_hg
  in
  match outcome with
  | Error e -> (Error e, [ ("error", Json.Str e) ])
  | Ok (Eco.Warm { assignment; k; cut; total_pins; m_lower; projection }) ->
    Metrics.incr c_eco_warm;
    let wall_ms = (now () -. t0) *. 1000.0 in
    Metrics.observe h_warm wall_ms;
    ( success_of_result p ~mode:"warm" ~cache:"bypass" ~wall_ms ~k ~assignment
        ~feasible:true ~cut ~total_pins ~m_lower,
      [
        ("mode", Json.Str "warm");
        ("matched", Json.Int projection.Eco.matched);
        ("stale", Json.Int projection.Eco.stale);
        ("filled", Json.Int projection.Eco.filled);
        ("start_violations", Json.Int projection.Eco.start_violations);
      ] )
  | Ok (Eco.Cold_needed reason) -> (
    Metrics.incr c_eco_fallback;
    match run_cold p ~cache_tag:"bypass" with
    | Ok s ->
      (Ok { s with Protocol.mode = "cold-fallback" },
       [ ("mode", Json.Str "cold-fallback"); ("reason", Json.Str reason) ])
    | Error e -> (Error e, [ ("error", Json.Str e) ]))

(* The one time limit of a request: its own [timeout_s], else the
   engine's default. *)
let limit_of t p =
  match p.p_req.Protocol.timeout_s with Some _ as l -> l | None -> t.timeout_s

(* The body of one batch slot, run on a pool domain.  Setting the
   request id here stamps the engine's own spans and convergence events
   with the request they serve, across the capture/merge boundary.  The
   limit is cooperative: domains cannot be cancelled, so an overrun is
   detected when the solve returns, and its answer is dropped (an error
   is reported as it is). *)
let run_job t p =
  Recorder.with_request (Some p.p_rid) @@ fun () ->
  let t0 = now () in
  let outcome =
    match p.p_partfile with
    | Some partfile -> run_eco p partfile
    | None -> run_cold p ~cache_tag:"miss"
  in
  let elapsed_s = now () -. t0 in
  match (outcome, limit_of t p) with
  | Ok _, Some limit_s when elapsed_s > limit_s ->
    Error
      (Printf.sprintf "partitioning failed: timed out: %.3gs (limit %gs)"
         elapsed_s limit_s)
  | _ -> outcome

(* --- batch handling ------------------------------------------------ *)

type slot = Done of Protocol.response | Job of prepared

(* ECO and fault-injected requests bypass the cache and deduplication. *)
let cacheable p = p.p_partfile = None && p.p_req.Protocol.inject = None

(* One structured access-log record per answered request: the rid ties
   the line to every recorder span/event stamped while serving it, so a
   slow request found in the log can be carved out of the trace. *)
let access_record ~rid (req : Protocol.request) outcome =
  let base =
    [
      ("type", Json.Str "access");
      ("ts", Json.Float (now ()));
      ("rid", Json.Str rid);
      ("id", Json.Str req.Protocol.id);
      ("op", Json.Str "partition");
    ]
  in
  let fields =
    match outcome with
    | Ok (s : Protocol.success) ->
      base
      @ [
          ("status", Json.Str "ok");
          ( "mode",
            Json.Str
              (if s.Protocol.cache = "hit" then "hit" else s.Protocol.mode) );
          ("cache", Json.Str s.Protocol.cache);
          ("wall_ms", Json.Float s.Protocol.wall_ms);
          ("cut", Json.Int s.Protocol.cut);
          ("k", Json.Int s.Protocol.k);
          ("netlist_digest", Json.Str s.Protocol.netlist_digest);
          ("config_digest", Json.Str s.Protocol.config_digest);
        ]
    | Error e -> base @ [ ("status", Json.Str "error"); ("error", Json.Str e) ]
  in
  Json.Obj fields

let respond t ~rid (req : Protocol.request) outcome =
  (match outcome with Error _ -> Metrics.incr c_errors | Ok _ -> ());
  (match t.access with
  | Some emit -> emit (access_record ~rid req outcome)
  | None -> ());
  Done { Protocol.resp_id = req.Protocol.id; outcome }

let check_cache_size t =
  match t.cache_warn_mb with
  | Some mb
    when (not t.cache_warned)
         && float_of_int (Cache.bytes_est t.cache) > mb *. 1024.0 *. 1024.0 ->
    t.cache_warned <- true;
    Metrics.incr c_cache_warnings;
    t.warn
      (Printf.sprintf
         "result cache estimated at %.1f MiB (%d entries) exceeds \
          --cache-warn-mb %g; the cache is unbounded — restart the daemon to \
          clear it"
         (float_of_int (Cache.bytes_est t.cache) /. (1024.0 *. 1024.0))
         (Cache.size t.cache) mb)
  | _ -> ()

let handle_requests t reqs =
  let sp = Recorder.span_begin "serve.batch" in
  let slots =
    List.map
      (fun (req : Protocol.request) ->
        Metrics.incr c_requests;
        t.served <- t.served + 1;
        let rid = mint_rid t in
        Recorder.with_request (Some rid) @@ fun () ->
        match prepare ~rid req with
        | Error e -> respond t ~rid req (Error e)
        | Ok p when not (cacheable p) -> Job p
        | Ok p -> (
          let csp = Recorder.span_begin "serve.cache_hit" in
          let hit = Cache.find t.cache p.p_key in
          if hit <> None then Metrics.incr c_cache_hits;
          Recorder.span_end csp
            ~attrs:
              [ ("id", Json.Str req.Protocol.id); ("hit", Json.Bool (hit <> None)) ];
          match hit with
          | Some s -> respond t ~rid req (Ok { s with Protocol.cache = "hit" })
          | None -> Job p))
      reqs
    |> Array.of_list
  in
  (* Every uncached request is one slot of one fan-out, so a crash or an
     overrun costs only its own answer.  A cacheable workload repeated
     inside the batch under the same limit runs once; the later
     occurrences replay the first one's answer. *)
  let dedup_key p = (p.p_key, limit_of t p) in
  let seen = Hashtbl.create 16 in
  let jobs = ref [] and dups = ref [] in
  Array.iteri
    (fun i -> function
      | Done _ -> ()
      | Job p when cacheable p && Hashtbl.mem seen (dedup_key p) ->
        dups := (i, p) :: !dups
      | Job p ->
        if cacheable p then Hashtbl.add seen (dedup_key p) ();
        jobs := (i, p) :: !jobs)
    slots;
  let jobs = List.rev !jobs in
  let results =
    Fpart_exec.Batch.run ~pool:t.pool ~f:(fun (_, p) -> run_job t p) jobs
  in
  let outcomes = Hashtbl.create 16 in
  List.iter2
    (fun (i, p) result ->
      let outcome =
        match result with
        | Ok outcome -> outcome
        | Error e ->
          Error ("partitioning failed: " ^ Fpart_exec.Batch.error_to_string e)
      in
      if cacheable p then begin
        Hashtbl.replace outcomes (dedup_key p) outcome;
        Result.iter (Cache.add t.cache p.p_key) outcome
      end;
      slots.(i) <- respond t ~rid:p.p_rid p.p_req outcome)
    jobs results;
  List.iter
    (fun (i, p) ->
      (* through the cache first, so the replay counts as a hit *)
      let outcome =
        match Cache.find t.cache p.p_key with
        | Some s ->
          Metrics.incr c_cache_hits;
          Ok { s with Protocol.cache = "hit" }
        | None -> Hashtbl.find outcomes (dedup_key p)
      in
      slots.(i) <- respond t ~rid:p.p_rid p.p_req outcome)
    (List.rev !dups);
  let responses =
    Array.to_list slots
    |> List.map (function
         | Done r -> r
         | Job _ -> assert false)
  in
  check_cache_size t;
  Recorder.span_end sp
    ~attrs:
      [
        ("requests", Json.Int (List.length reqs));
        ("cache_hits", Json.Int (Cache.hits t.cache));
      ];
  responses

(* --- introspection ------------------------------------------------- *)

let cache_entries t = Cache.size t.cache

let cache_bytes_est t = Cache.bytes_est t.cache

let hist_json h =
  let n = Metrics.count h in
  if n = 0 then Json.Obj [ ("count", Json.Int 0) ]
  else
    Json.Obj
      [
        ("count", Json.Int n);
        ("mean", Json.Float (Metrics.hist_mean h));
        ("p50", Json.Float (Metrics.quantile h 0.5));
        ("p95", Json.Float (Metrics.quantile h 0.95));
        ("max", Json.Float (Metrics.hist_max h));
      ]

let cache_json t =
  let hits = Cache.hits t.cache and misses = Cache.misses t.cache in
  Json.Obj
    [
      ("entries", Json.Int (Cache.size t.cache));
      ("bytes_est", Json.Int (Cache.bytes_est t.cache));
      ("hits", Json.Int hits);
      ("misses", Json.Int misses);
      ( "hit_ratio",
        Json.Float
          (if hits + misses = 0 then 0.0
           else float_of_int hits /. float_of_int (hits + misses)) );
    ]

let stats_json t =
  Json.Obj
    [
      ("op", Json.Str "stats");
      ("uptime_s", Json.Float (now () -. t.t0));
      ("jobs", Json.Int t.jobs);
      ("served", Json.Int t.served);
      ("errors", Json.Int (Metrics.counter_value c_errors));
      ("eco_warm", Json.Int (Metrics.counter_value c_eco_warm));
      ("eco_fallback", Json.Int (Metrics.counter_value c_eco_fallback));
      ("cache", cache_json t);
      ( "latency_ms",
        Json.Obj [ ("cold", hist_json h_cold); ("warm", hist_json h_warm) ] );
    ]

let health_json t =
  Json.Obj
    [
      ("op", Json.Str "health");
      ("status", Json.Str "ok");
      ("uptime_s", Json.Float (now () -. t.t0));
      ("jobs", Json.Int t.jobs);
      ("served", Json.Int t.served);
    ]

let ledger_rows t =
  let row name value unit_ higher_better =
    { Fpart_obs.Ledger.name = "serve/latency-table/" ^ name; value; unit_; higher_better }
  in
  let quantile_rows name h =
    if Metrics.count h = 0 then []
    else
      [
        row (name ^ "-p50-ms") (Metrics.quantile h 0.5) "ms" false;
        row (name ^ "-p95-ms") (Metrics.quantile h 0.95) "ms" false;
      ]
  in
  [
    row "requests" (float_of_int t.served) "requests" true;
    row "cache-hits" (float_of_int (Cache.hits t.cache)) "hits" true;
  ]
  @ quantile_rows "cold" h_cold
  @ quantile_rows "warm" h_warm
