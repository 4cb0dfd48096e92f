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

let cache_misses t = Cache.misses t.cache

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
    if not (Sys.file_exists path) then
      Error (Printf.sprintf "%s: no such file" path)
    else Netlist.Load.file path
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
    if not (Sys.file_exists path) then
      Error (Printf.sprintf "%s %s: no such file" what path)
    else begin
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      Ok text
    end

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

(* The per-seed runner, with the fault-injection hook: a request
   carrying [inject:"crash"] raises inside its isolation boundary
   (Batch slot or run_best_isolated seed), exactly like a real bug in
   the partitioning engine would. *)
let runner ~rid (req : Protocol.request) config hg device =
  (* the per-seed body runs on a pool worker domain: setting the
     request id here stamps the engine's own spans and convergence
     events with the request they serve, across the capture/merge
     boundary *)
  Recorder.with_request (Some rid) @@ fun () ->
  (match req.Protocol.inject with
  | Some "crash" -> failwith "injected crash"
  | Some other -> failwith (Printf.sprintf "unknown inject %S" other)
  | None -> ());
  Fpart.Driver.run ~config hg device

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

let success_of_driver p ~mode ~cache ~wall_ms (r : Fpart.Driver.result) =
  success_of_result p ~mode ~cache ~wall_ms ~k:r.Fpart.Driver.k
    ~assignment:r.Fpart.Driver.assignment ~feasible:r.Fpart.Driver.feasible
    ~cut:r.Fpart.Driver.cut ~total_pins:r.Fpart.Driver.total_pins
    ~m_lower:r.Fpart.Driver.m_lower

(* Cold path for one request, scheduled on [pool] when the request is a
   multi-start portfolio ([pool = Some _]) or run inline inside a Batch
   worker slot ([pool = None], isolation provided by the Batch). *)
let run_cold ?pool p ~cache_tag =
  Recorder.with_request (Some p.p_rid) @@ fun () ->
  let req = p.p_req in
  let t0 = now () in
  let sp = Recorder.span_begin "serve.request" in
  let finish outcome attrs =
    Recorder.span_end sp
      ~attrs:(("id", Json.Str req.Protocol.id) :: attrs);
    outcome
  in
  match pool with
  | Some pool -> (
    match
      Fpart.Driver.run_best_isolated ~config:p.p_config ~pool
        ?timeout_s:req.Protocol.timeout_s
        ~run_one:(runner ~rid:p.p_rid req) ~runs:req.Protocol.runs p.p_hg
        p.p_device
    with
    | Ok r ->
      let wall_ms = (now () -. t0) *. 1000.0 in
      Metrics.observe h_cold wall_ms;
      finish
        (success_of_driver p ~mode:"cold" ~cache:cache_tag ~wall_ms r)
        [ ("mode", Json.Str "cold"); ("runs", Json.Int req.Protocol.runs) ]
    | Error e -> finish (Error e) [ ("error", Json.Str e) ])
  | None ->
    (* inside a Batch worker: crashes propagate to the slot *)
    let r = runner ~rid:p.p_rid req p.p_config p.p_hg p.p_device in
    let wall_ms = (now () -. t0) *. 1000.0 in
    Metrics.observe h_cold wall_ms;
    finish
      (success_of_driver p ~mode:"cold" ~cache:cache_tag ~wall_ms r)
      [ ("mode", Json.Str "cold") ]

let run_eco t p partfile =
  Recorder.with_request (Some p.p_rid) @@ fun () ->
  let sp = Recorder.span_begin "serve.eco" in
  let t0 = now () in
  let outcome =
    Eco.relegalize ~config:p.p_config ~device:p.p_device ~partfile p.p_hg
  in
  let result, attrs =
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
      match run_cold ~pool:t.pool p ~cache_tag:"bypass" with
      | Ok s ->
        (Ok { s with Protocol.mode = "cold-fallback" },
         [ ("mode", Json.Str "cold-fallback"); ("reason", Json.Str reason) ])
      | Error e -> (Error e, [ ("error", Json.Str e) ]))
  in
  Recorder.span_end sp
    ~attrs:(("id", Json.Str p.p_req.Protocol.id) :: attrs);
  result

(* --- batch handling ------------------------------------------------ *)

type slot =
  | Done of Protocol.response
  | Eco_job of prepared
  | Multi_job of prepared  (* runs > 1: portfolio sharded across domains *)
  | Single_job of prepared  (* runs = 1: batched under exception isolation *)

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
        | Ok p ->
          if p.p_partfile <> None then Eco_job p
          else if req.Protocol.inject <> None then
            (* fault injection must reach the isolation boundary *)
            if req.Protocol.runs > 1 then Multi_job p else Single_job p
          else begin
            let hit =
              let csp = Recorder.span_begin "serve.cache_hit" in
              let hit = Cache.find t.cache p.p_key in
              (match hit with
              | Some _ ->
                Metrics.incr c_cache_hits;
                Recorder.span_end csp
                  ~attrs:
                    [ ("id", Json.Str req.Protocol.id); ("hit", Json.Bool true) ]
              | None ->
                Recorder.span_end csp
                  ~attrs:
                    [ ("id", Json.Str req.Protocol.id); ("hit", Json.Bool false) ]);
              hit
            in
            match hit with
            | Some s ->
              respond t ~rid req (Ok { s with Protocol.cache = "hit" })
            | None ->
              if req.Protocol.runs > 1 then Multi_job p else Single_job p
          end)
      reqs
    |> Array.of_list
  in
  (* batched single-start jobs: one Batch fan-out, per-slot isolation *)
  let singles = ref [] in
  Array.iteri
    (fun i slot -> match slot with Single_job p -> singles := (i, p) :: !singles | _ -> ())
    slots;
  let singles = List.rev !singles in
  if singles <> [] then begin
    (* intra-batch dedup: a workload repeated inside one batch runs
       once; later occurrences are cache replays of the first result *)
    let seen = Hashtbl.create 16 in
    let to_run =
      List.filter
        (fun (_, p) ->
          p.p_req.Protocol.inject <> None
          ||
          if Hashtbl.mem seen p.p_key then false
          else begin
            Hashtbl.add seen p.p_key ();
            true
          end)
        singles
    in
    let outcomes = Hashtbl.create 16 in
    let results =
      Fpart_exec.Batch.run ?timeout_s:t.timeout_s ~pool:t.pool
        ~f:(fun (_, p) -> run_cold p ~cache_tag:"miss")
        to_run
    in
    List.iter2
      (fun (i, p) result ->
        let outcome =
          match result with
          | Ok (Ok s) ->
            if p.p_req.Protocol.inject = None then Cache.add t.cache p.p_key s;
            Ok s
          | Ok (Error e) -> Error e
          | Error e ->
            Error
              (Printf.sprintf "partitioning failed: %s"
                 (Fpart_exec.Batch.error_to_string e))
        in
        if p.p_req.Protocol.inject = None then
          Hashtbl.replace outcomes p.p_key outcome;
        slots.(i) <- respond t ~rid:p.p_rid p.p_req outcome)
      to_run results;
    List.iter
      (fun (i, p) ->
        match slots.(i) with
        | Single_job _ ->
          (* a deduped duplicate: replay the first occurrence's result *)
          let outcome =
            match Cache.find t.cache p.p_key with
            | Some s ->
              Metrics.incr c_cache_hits;
              Ok { s with Protocol.cache = "hit" }
            | None -> (
              match Hashtbl.find_opt outcomes p.p_key with
              | Some o -> o
              | None -> Error "duplicate of a request that produced no result")
          in
          slots.(i) <- respond t ~rid:p.p_rid p.p_req outcome
        | _ -> ())
      singles
  end;
  (* multi-start and ECO jobs: sequential, each using the whole pool *)
  Array.iteri
    (fun i slot ->
      match slot with
      | Multi_job p ->
        (* re-probe: an identical request earlier in this batch may
           have populated the cache since the prepare pass *)
        let outcome =
          match
            if p.p_req.Protocol.inject = None then Cache.find t.cache p.p_key
            else None
          with
          | Some s ->
            Metrics.incr c_cache_hits;
            Ok { s with Protocol.cache = "hit" }
          | None ->
            let outcome = run_cold ~pool:t.pool p ~cache_tag:"miss" in
            (match outcome with
            | Ok s when p.p_req.Protocol.inject = None ->
              Cache.add t.cache p.p_key s
            | _ -> ());
            outcome
        in
        slots.(i) <- respond t ~rid:p.p_rid p.p_req outcome
      | Eco_job p ->
        let partfile = Option.get p.p_partfile in
        slots.(i) <- respond t ~rid:p.p_rid p.p_req (run_eco t p partfile)
      | _ -> ())
    slots;
  let responses =
    Array.to_list slots
    |> List.map (function
         | Done r -> r
         | _ -> assert false)
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
