type t = { emit : Json.t -> unit; close : unit -> unit }

let null = { emit = ignore; close = ignore }

(* Shared write-error guard for channel-backed sinks: the first
   [Sys_error] is reported once on stderr and the sink goes inert, so a
   full disk or a closed descriptor degrades a traced run instead of
   killing it — and instead of silently swallowing every record. *)
let guarded ~what oc ~write ~close_channel =
  let failed = ref false in
  let protect op =
    if not !failed then
      try op () with
      | Sys_error msg ->
        failed := true;
        prerr_endline (Printf.sprintf "fpart_obs: %s sink error: %s (further records dropped)" what msg)
  in
  {
    emit = (fun j -> protect (fun () -> write j));
    close =
      (fun () ->
        protect (fun () -> flush oc);
        if oc != stdout && oc != stderr then
          try close_out oc
          with Sys_error msg ->
            if not !failed then
              prerr_endline
                (Printf.sprintf "fpart_obs: %s sink error on close: %s" what msg);
        ignore close_channel);
  }

let jsonl oc =
  guarded ~what:"jsonl" oc ~close_channel:true ~write:(fun j ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* {2 Chrome Trace Event export}

   One streaming JSON object [{"traceEvents":[...]}], loadable by
   chrome://tracing and Perfetto.  Recorder span records (carrying
   [t_ms]/[dur_ms]/[track]) become complete ["X"] phase events on
   pid 1 with the domain track as tid; recorder resource records
   ([{"type":"counter",...}]) become counter ["C"] events named
   "memory" whose numeric args Perfetto plots as heap/RSS tracks;
   every other record (trace events, pass/schedule telemetry) becomes
   an instant ["i"] event at its emission time.  The remaining record
   fields — including the recorder's [id]/[parent] span ids — ride in
   ["args"], so offline tooling can rebuild the span tree from the
   chrome file too.  [close] appends thread-name metadata for every
   track seen and terminates the object, so the finished file parses
   as strict JSON. *)

let chrome oc =
  let count = ref 0 in
  let tracks = ref [] in
  let fget k fields = List.assoc_opt k fields in
  let num = function
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  let intv = function Some (Json.Int i) -> i | _ -> 0 in
  let write_event ev =
    output_string oc (if !count = 0 then "{\"traceEvents\":[\n" else ",\n");
    output_string oc (Json.to_string ev);
    incr count
  in
  let event_of j =
    match j with
    | Json.Obj fields ->
      let ty =
        match fget "type" fields with Some (Json.Str s) -> s | _ -> "record"
      in
      let track = intv (fget "track" fields) in
      if not (List.mem track !tracks) then tracks := track :: !tracks;
      let ts = 1000.0 *. num (fget "t_ms" fields) in
      (* [ts]/[dur]/[tid] and the event name carry the positional
         fields; everything else rides in [args] so a reader (e.g.
         [Inspect.load_file]) can rebuild the original records. *)
      if ty = "span" then
        let name =
          match fget "name" fields with Some (Json.Str s) -> s | _ -> "span"
        in
        let args =
          Json.Obj
            (List.filter
               (fun (k, _) ->
                 not
                   (List.mem k [ "type"; "name"; "dur_ms"; "t_ms"; "track" ]))
               fields)
        in
        Json.Obj
          [
            ("name", Json.Str name);
            ("cat", Json.Str "fpart");
            ("ph", Json.Str "X");
            ("ts", Json.Float ts);
            ("dur", Json.Float (1000.0 *. num (fget "dur_ms" fields)));
            ("pid", Json.Int 1);
            ("tid", Json.Int track);
            ("args", args);
          ]
      else if ty = "counter" then
        (* Recorder resource records become counter ("C") events: the
           numeric args define the counter series Perfetto plots.  The
           [span] back-reference is dropped from args (it would plot as
           a bogus series); the loader reconstructs a span-less counter
           record, which [Inspect.validate] accepts. *)
        let args =
          Json.Obj
            (List.filter
               (fun (k, _) -> not (List.mem k [ "t_ms"; "track"; "span" ]))
               fields)
        in
        Json.Obj
          [
            ("name", Json.Str "memory");
            ("cat", Json.Str "fpart");
            ("ph", Json.Str "C");
            ("ts", Json.Float ts);
            ("pid", Json.Int 1);
            ("tid", Json.Int track);
            ("args", args);
          ]
      else
        let args =
          Json.Obj
            (List.filter (fun (k, _) -> k <> "t_ms" && k <> "track") fields)
        in
        let name =
          match fget "event" fields with Some (Json.Str s) -> ty ^ "." ^ s | _ -> ty
        in
        Json.Obj
          [
            ("name", Json.Str name);
            ("cat", Json.Str "fpart");
            ("ph", Json.Str "i");
            ("ts", Json.Float ts);
            ("pid", Json.Int 1);
            ("tid", Json.Int track);
            ("s", Json.Str "t");
            ("args", args);
          ]
    | j ->
      Json.Obj
        [
          ("name", Json.Str "record");
          ("cat", Json.Str "fpart");
          ("ph", Json.Str "i");
          ("ts", Json.Float 0.0);
          ("pid", Json.Int 1);
          ("tid", Json.Int 0);
          ("s", Json.Str "t");
          ("args", j);
        ]
  in
  let metadata () =
    List.iter
      (fun track ->
        write_event
          (Json.Obj
             [
               ("name", Json.Str "thread_name");
               ("ph", Json.Str "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int track);
               ( "args",
                 Json.Obj
                   [
                     ( "name",
                       Json.Str
                         (if track = 0 then "domain 0 (main)"
                          else Printf.sprintf "domain %d" track) );
                   ] );
             ]))
      (List.sort compare !tracks)
  in
  let base =
    guarded ~what:"chrome" oc ~close_channel:true ~write:(fun j ->
        write_event (event_of j))
  in
  {
    emit = base.emit;
    close =
      (fun () ->
        (try
           metadata ();
           output_string oc
             (if !count = 0 then "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n"
              else "\n],\"displayTimeUnit\":\"ms\"}\n")
         with Sys_error _ -> ());
        base.close ());
  }

(* key=value one-liners; nested values fall back to compact JSON. *)
let pretty ppf =
  let pp_field ppf (k, v) =
    match v with
    | Json.Str s -> Format.fprintf ppf "%s=%s" k s
    | Json.Float f -> Format.fprintf ppf "%s=%.3f" k f
    | v -> Format.fprintf ppf "%s=%s" k (Json.to_string v)
  in
  {
    emit =
      (fun j ->
        match j with
        | Json.Obj fields ->
          Format.fprintf ppf "%a@."
            (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_field)
            fields
        | j -> Format.fprintf ppf "%s@." (Json.to_string j));
    close = (fun () -> Format.pp_print_flush ppf ());
  }

let tee sinks =
  {
    emit = (fun j -> List.iter (fun s -> s.emit j) sinks);
    close = (fun () -> List.iter (fun s -> s.close ()) sinks);
  }

let filtered ~keep s =
  { emit = (fun j -> if keep j then s.emit j); close = s.close }

let memory () =
  let acc = ref [] in
  ( { emit = (fun j -> acc := j :: !acc); close = ignore },
    fun () -> List.rev !acc )

let current = ref null

(* Individual sinks are not thread-safe (they write to channels or
   formatters), so the process-wide emission point serializes records
   from concurrent domains. *)
let emit_mutex = Mutex.create ()
let set s = Mutex.protect emit_mutex (fun () -> current := s)
let emit j = Mutex.protect emit_mutex (fun () -> !current.emit j)

let close_current () =
  Mutex.protect emit_mutex (fun () ->
      !current.close ();
      current := null)
