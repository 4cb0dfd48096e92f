module Json = Fpart_obs.Json

type netlist_src =
  | Path of string
  | Inline_blif of string
  | Inline_xnf of string
  | Generate of {
      spec : string;
      gen_seed : int;
    }

type source = Src_path of string | Src_text of string

type eco = {
  eco_delta : source;
  eco_partfile : source;
}

type request = {
  id : string;
  netlist : netlist_src;
  device : string;
  delta : float option;
  runs : int;
  seed : int option;
  max_passes : int option;
  refiner : string option;
  timeout_s : float option;
  eco : eco option;
  inject : string option;
}

type op =
  | Partition of request
  | Batch of request list
  | Ping
  | Stats
  | Health
  | Shutdown

(* --- decoding ------------------------------------------------------ *)

let jfloat = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let opt_member key proj j =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match proj v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S has the wrong type" key))

let ( let* ) = Result.bind

let netlist_of_json j =
  match Json.member "netlist" j with
  | None -> Error "missing field \"netlist\""
  | Some n -> (
    let keys =
      List.filter_map
        (fun k -> Option.map (fun v -> (k, v)) (Json.member k n))
        [ "path"; "blif"; "xnf"; "generate" ]
    in
    match keys with
    | [ ("path", v) ] -> (
      match Json.str v with
      | Some p -> Ok (Path p)
      | None -> Error "netlist.path must be a string")
    | [ ("blif", v) ] -> (
      match Json.str v with
      | Some t -> Ok (Inline_blif t)
      | None -> Error "netlist.blif must be a string")
    | [ ("xnf", v) ] -> (
      match Json.str v with
      | Some t -> Ok (Inline_xnf t)
      | None -> Error "netlist.xnf must be a string")
    | [ ("generate", v) ] -> (
      match Json.str v with
      | Some spec ->
        let gen_seed =
          match Json.member "seed" n with Some s -> Option.value ~default:1 (Json.int s) | None -> 1
        in
        Ok (Generate { spec; gen_seed })
      | None -> Error "netlist.generate must be a string")
    | [] -> Error "netlist needs one of: path, blif, xnf, generate"
    | _ -> Error "netlist must carry exactly one of: path, blif, xnf, generate")

let source_of_json what j =
  match (Json.member "path" j, Json.member "text" j) with
  | Some p, None -> (
    match Json.str p with
    | Some p -> Ok (Src_path p)
    | None -> Error (what ^ ".path must be a string"))
  | None, Some t -> (
    match Json.str t with
    | Some t -> Ok (Src_text t)
    | None -> Error (what ^ ".text must be a string"))
  | _ -> Error (what ^ " needs exactly one of: path, text")

let eco_of_json j =
  match Json.member "eco" j with
  | None | Some Json.Null -> Ok None
  | Some e ->
    let* eco_delta =
      match Json.member "delta" e with
      | None -> Error "eco needs a \"delta\" object"
      | Some d -> source_of_json "eco.delta" d
    in
    let* eco_partfile =
      match Json.member "partfile" e with
      | None -> Error "eco needs a \"partfile\" object"
      | Some p -> source_of_json "eco.partfile" p
    in
    Ok (Some { eco_delta; eco_partfile })

let request_of_json j =
  let* id =
    match Json.member "id" j with
    | Some v -> (
      match Json.str v with
      | Some s when s <> "" -> Ok s
      | _ -> Error "\"id\" must be a non-empty string")
    | None -> Error "missing field \"id\""
  in
  let fail msg = Error (Printf.sprintf "request %s: %s" id msg) in
  let lift = function Ok v -> Ok v | Error e -> fail e in
  let* netlist = lift (netlist_of_json j) in
  let* device =
    match Json.member "device" j with
    | Some v -> (
      match Json.str v with
      | Some s -> Ok s
      | None -> fail "\"device\" must be a string")
    | None -> fail "missing field \"device\""
  in
  let* delta = lift (opt_member "delta" jfloat j) in
  let* () =
    match delta with
    | Some d when not (d > 0.0 && d <= 1.0) -> fail "\"delta\" must be in (0, 1]"
    | Some _ | None -> Ok ()
  in
  let* runs = lift (opt_member "runs" Json.int j) in
  let runs = Option.value ~default:1 runs in
  let* () = if runs >= 1 then Ok () else fail "\"runs\" must be >= 1" in
  let* seed = lift (opt_member "seed" Json.int j) in
  let* max_passes = lift (opt_member "max_passes" Json.int j) in
  let* refiner = lift (opt_member "refiner" Json.str j) in
  let* timeout_s = lift (opt_member "timeout_s" jfloat j) in
  let* () =
    match timeout_s with
    | Some t when not (t > 0.0) -> fail "\"timeout_s\" must be > 0"
    | Some _ | None -> Ok ()
  in
  let* eco = lift (eco_of_json j) in
  let* inject = lift (opt_member "inject" Json.str j) in
  Ok
    {
      id;
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

let op_of_line line =
  match Json.of_string line with
  | Error e -> Error ("malformed request line: " ^ e)
  | Ok j -> (
    match Json.member "op" j with
    | Some op -> (
      match Json.str op with
      | Some "ping" -> Ok Ping
      | Some "stats" -> Ok Stats
      | Some "health" -> Ok Health
      | Some "shutdown" -> Ok Shutdown
      | Some "batch" -> (
        match Json.member "requests" j with
        | Some (Json.List rs) ->
          let rec go acc = function
            | [] -> Ok (Batch (List.rev acc))
            | r :: rest -> (
              match request_of_json r with
              | Ok r -> go (r :: acc) rest
              | Error e -> Error e)
          in
          go [] rs
        | _ -> Error "batch needs a \"requests\" array")
      | Some other -> Error (Printf.sprintf "unknown op %S" other)
      | None -> Error "\"op\" must be a string")
    | None -> (
      match request_of_json j with
      | Ok r -> Ok (Partition r)
      | Error e -> Error e))

(* --- encoding ------------------------------------------------------ *)

type success = {
  k : int;
  feasible : bool;
  cut : int;
  total_pins : int;
  m_lower : int;
  wall_ms : float;
  cache : string;
  mode : string;
  netlist_digest : string;
  config_digest : string;
  partition : string;
}

type response = {
  resp_id : string;
  outcome : (success, string) result;
}

let response_to_line r =
  let fields =
    match r.outcome with
    | Ok s ->
      [
        ("id", Json.Str r.resp_id);
        ("status", Json.Str "ok");
        ("k", Json.Int s.k);
        ("feasible", Json.Bool s.feasible);
        ("cut", Json.Int s.cut);
        ("total_pins", Json.Int s.total_pins);
        ("m_lower", Json.Int s.m_lower);
        ("wall_ms", Json.Float s.wall_ms);
        ("cache", Json.Str s.cache);
        ("mode", Json.Str s.mode);
        ("netlist_digest", Json.Str s.netlist_digest);
        ("config_digest", Json.Str s.config_digest);
        ("partition", Json.Str s.partition);
      ]
    | Error e ->
      [
        ("id", Json.Str r.resp_id);
        ("status", Json.Str "error");
        ("error", Json.Str e);
      ]
  in
  Json.to_string (Json.Obj fields)

let pong_line = Json.to_string (Json.Obj [ ("op", Json.Str "pong") ])

let bye_line ~served =
  Json.to_string
    (Json.Obj [ ("op", Json.Str "bye"); ("served", Json.Int served) ])

let response_of_line line =
  match Json.of_string line with
  | Error e -> Error ("malformed response line: " ^ e)
  | Ok j -> (
    let id =
      match Json.member "id" j with
      | Some v -> Option.value ~default:"" (Json.str v)
      | None -> ""
    in
    match Json.member "status" j with
    | Some (Json.Str "error") ->
      let e =
        match Json.member "error" j with
        | Some v -> Option.value ~default:"" (Json.str v)
        | None -> ""
      in
      Ok { resp_id = id; outcome = Error e }
    | Some (Json.Str "ok") ->
      let int k = match Json.member k j with Some v -> Json.int v | None -> None in
      let str k = match Json.member k j with Some v -> Json.str v | None -> None in
      let flt k = match Json.member k j with Some v -> jfloat v | None -> None in
      let bool k =
        match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None
      in
      let all =
        match
          ( int "k", bool "feasible", int "cut", int "total_pins",
            int "m_lower", flt "wall_ms", str "cache", str "mode",
            str "netlist_digest", str "config_digest", str "partition" )
        with
        | ( Some k, Some feasible, Some cut, Some total_pins, Some m_lower,
            Some wall_ms, Some cache, Some mode, Some netlist_digest,
            Some config_digest, Some partition ) ->
          Some
            {
              k;
              feasible;
              cut;
              total_pins;
              m_lower;
              wall_ms;
              cache;
              mode;
              netlist_digest;
              config_digest;
              partition;
            }
        | _ -> None
      in
      (match all with
      | Some s -> Ok { resp_id = id; outcome = Ok s }
      | None -> Error "ok response missing fields")
    | _ -> Error "response line without a status")
