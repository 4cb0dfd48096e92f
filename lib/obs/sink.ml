type t = { emit : Json.t -> unit; close : unit -> unit }

let null = { emit = ignore; close = ignore }

(* Shared write-error guard for channel-backed sinks: the first
   [Sys_error] is reported once on stderr and the sink goes inert, so a
   full disk or a closed descriptor degrades a traced run instead of
   killing it — and instead of silently swallowing every record. *)
let guarded ~what oc ~write =
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
                (Printf.sprintf "fpart_obs: %s sink error on close: %s" what msg));
  }

let jsonl oc =
  guarded ~what:"jsonl" oc ~write:(fun j ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* {2 Chrome Trace Event export}

   One streaming JSON object [{"traceEvents":[...]}], loadable by
   chrome://tracing and Perfetto.  Recorder span records (carrying
   [t_ms]/[dur_ms]/[track]) become complete ["X"] phase events on
   pid 1 with the domain track as tid; a span that carries the resource
   peaks [heap_w]/[rss_kb] is followed by a counter ["C"] event named
   "memory" at the span's end, whose numeric args Perfetto plots as
   heap/RSS tracks; every other record ([pass] telemetry and the like)
   becomes an instant ["i"] event at its emission time.  The remaining
   record fields, including the recorder's [id]/[parent] span ids,
   ride in ["args"], so offline tooling can rebuild the span tree from
   the chrome file too.  [close] appends thread-name metadata for every
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
  let write_record j =
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
      if ty = "span" then begin
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
        let dur = 1000.0 *. num (fget "dur_ms" fields) in
        write_event
          (Json.Obj
             [
               ("name", Json.Str name);
               ("cat", Json.Str "fpart");
               ("ph", Json.Str "X");
               ("ts", Json.Float ts);
               ("dur", Json.Float dur);
               ("pid", Json.Int 1);
               ("tid", Json.Int track);
               ("args", args);
             ]);
        match (fget "heap_w" fields, fget "rss_kb" fields) with
        | Some heap_w, Some rss_kb ->
          write_event
            (Json.Obj
               [
                 ("name", Json.Str "memory");
                 ("cat", Json.Str "fpart");
                 ("ph", Json.Str "C");
                 ("ts", Json.Float (ts +. dur));
                 ("pid", Json.Int 1);
                 ("tid", Json.Int track);
                 ("args", Json.Obj [ ("heap_w", heap_w); ("rss_kb", rss_kb) ]);
               ])
        | _ -> ()
      end
      else
        let args =
          Json.Obj
            (List.filter (fun (k, _) -> k <> "t_ms" && k <> "track") fields)
        in
        write_event
          (Json.Obj
             [
               ("name", Json.Str ty);
               ("cat", Json.Str "fpart");
               ("ph", Json.Str "i");
               ("ts", Json.Float ts);
               ("pid", Json.Int 1);
               ("tid", Json.Int track);
               ("s", Json.Str "t");
               ("args", args);
             ])
    | j ->
      write_event
        (Json.Obj
           [
             ("name", Json.Str "record");
             ("cat", Json.Str "fpart");
             ("ph", Json.Str "i");
             ("ts", Json.Float 0.0);
             ("pid", Json.Int 1);
             ("tid", Json.Int 0);
             ("s", Json.Str "t");
             ("args", j);
           ])
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
    guarded ~what:"chrome" oc ~write:write_record
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

let memory () =
  let acc = ref [] in
  ( { emit = (fun j -> acc := j :: !acc); close = ignore },
    fun () -> List.rev !acc )

let current = ref null

(* Individual sinks are not thread-safe (they write to channels), so the process-wide emission point serializes records
   from concurrent domains. *)
let emit_mutex = Mutex.create ()
let set s = Mutex.protect emit_mutex (fun () -> current := s)
let emit j = Mutex.protect emit_mutex (fun () -> !current.emit j)

let close_current () =
  Mutex.protect emit_mutex (fun () ->
      !current.close ();
      current := null)
