(* Flight recorder: hierarchical spans on a per-domain span stack.

   Each domain keeps its own stack, id counter and entry buffer in
   domain-local storage, so recording never synchronizes on the hot
   path (the single process-wide lock is only taken when an entry
   reaches {!Sink.emit}).  Determinism across [--jobs] comes from the
   capture/merge protocol: {!Fpart_exec.Pool} wraps every task in
   {!capture}, which buffers the task's entries under task-local ids
   starting at 1, and the caller {!merge}s the snapshots back in task
   index order.  Because local ids are dense and allocated in span
   begin order, the rebase in [merge] reproduces exactly the id stream
   a sequential run would have allocated — a [--jobs 4] trace differs
   from a [--jobs 1] trace only in [track] (domain) values and
   timestamps, never in ids, parents or record order. *)

type entry =
  | Espan of {
      id : int;
      parent : int;  (* 0 = root of its capture (or of the process) *)
      track : int;
      name : string;
      t_ms : float;
      dur_ms : float;
      attrs : (string * Json.t) list;
    }
  | Eblob of { span : int; track : int; t_ms : float; fields : (string * Json.t) list }

type dstate = {
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable next_id : int;
  mutable buffering : bool;
  mutable buf : entry list;  (* reversed emission order *)
  mutable request : string option;  (* request id stamped on records *)
}

let dstate_key : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { stack = []; next_id = 1; buffering = false; buf = []; request = None })

let dstate () = Domain.DLS.get dstate_key
let track () = (Domain.self () :> int)

(* {2 Request attribution}

   A service mints one id per request and sets it on every domain that
   works on the request's behalf (the caller around cache/ECO handling,
   the worker inside its task closure).  While set, every span record
   and telemetry event closed on that domain carries a ["req"] field,
   so one slow request can be carved out of a live daemon's trace and
   its convergence events joined to the access-log line with the same
   id. *)

let set_request r = (dstate ()).request <- r
let current_request () = (dstate ()).request

let with_request r f =
  let d = dstate () in
  let saved = d.request in
  d.request <- r;
  Fun.protect ~finally:(fun () -> d.request <- saved) f

let req_attrs d attrs =
  match d.request with
  | None -> attrs
  | Some r -> ("req", Json.Str r) :: attrs

(* {2 Epoch}

   Timestamps are milliseconds since the first recorded instant (or
   since {!set_epoch}), so they survive a [Clock] source whose origin
   is arbitrary (monotonic clocks count from boot).  The unsynchronized
   read can at worst see a stale [None] and fall through to the
   mutex. *)

let epoch_mutex = Mutex.create ()
let epoch = ref None

let rel_ms t =
  let e =
    match !epoch with
    | Some e -> e
    | None ->
      Mutex.protect epoch_mutex (fun () ->
          match !epoch with
          | Some e -> e
          | None ->
            epoch := Some t;
            t)
  in
  (t -. e) *. 1000.0

let set_epoch () =
  Mutex.protect epoch_mutex (fun () -> epoch := Some (Clock.now ()))

(* {2 Emission} *)

let entry_to_json = function
  | Espan { id; parent; track; name; t_ms; dur_ms; attrs } ->
    Json.Obj
      (("type", Json.Str "span")
      :: ("name", Json.Str name)
      :: ("dur_ms", Json.Float dur_ms)
      :: ("id", Json.Int id)
      :: ("parent", Json.Int parent)
      :: ("track", Json.Int track)
      :: ("t_ms", Json.Float t_ms)
      :: attrs)
  | Eblob { span; track; t_ms; fields } ->
    Json.Obj
      (fields
      @ [
          ("span", Json.Int span);
          ("track", Json.Int track);
          ("t_ms", Json.Float t_ms);
        ])

let push_entry d e =
  if d.buffering then d.buf <- e :: d.buf else Sink.emit (entry_to_json e)

(* {2 Spans} *)

type span = {
  s_id : int;
  s_parent : int;
  s_name : string;
  s_t0 : float;
  s_r0 : Resource.sample option;  (* resource reading at begin, when on *)
}

let disabled =
  { s_id = 0; s_parent = 0; s_name = ""; s_t0 = 0.0; s_r0 = None }

let span_begin name =
  if not (Metrics.enabled ()) then disabled
  else begin
    let d = dstate () in
    let id = d.next_id in
    d.next_id <- id + 1;
    let parent = match d.stack with [] -> 0 | p :: _ -> p in
    d.stack <- id :: d.stack;
    let r0 = if Resource.enabled () then Some (Resource.sample ()) else None in
    { s_id = id; s_parent = parent; s_name = name; s_t0 = Clock.now (); s_r0 = r0 }
  end

let span_end s ~attrs =
  if s.s_id <> 0 then begin
    let d = dstate () in
    (match d.stack with
    | id :: rest when id = s.s_id -> d.stack <- rest
    | stack ->
      (* unbalanced end (an exception unwound past children): drop the
         stray ids above [s] as well, so later spans do not inherit a
         dead parent.  A double end ([s] not on the stack) is a no-op. *)
      if List.mem s.s_id stack then begin
        let rec drop = function
          | [] -> []
          | id :: rest -> if id = s.s_id then rest else drop rest
        in
        d.stack <- drop stack
      end);
    let t1 = Clock.now () in
    let dur_ms = (t1 -. s.s_t0) *. 1000.0 in
    Metrics.observe (Metrics.histogram s.s_name) dur_ms;
    (* Resource deltas are sampled on the same domain as the begin
       sample, so flows are differences of this domain's counters (plus
       the worker flows it adopted at pool joins in between) — they
       ride through capture/merge as ordinary span attrs. *)
    let res =
      match s.s_r0 with
      | Some r0 when Resource.enabled () ->
        Some (Resource.delta ~before:r0 ~after:(Resource.sample ()))
      | _ -> None
    in
    let attrs =
      match res with
      | None -> attrs
      | Some dl -> attrs @ Resource.delta_fields dl
    in
    let attrs = req_attrs d attrs in
    push_entry d
      (Espan
         {
           id = s.s_id;
           parent = s.s_parent;
           track = track ();
           name = s.s_name;
           t_ms = rel_ms s.s_t0;
           dur_ms;
           attrs;
         })
  end

let current_id () =
  match (dstate ()).stack with [] -> 0 | id :: _ -> id

let event fields =
  let d = dstate () in
  push_entry d
    (Eblob
       {
         span = current_id ();
         track = track ();
         t_ms = rel_ms (Clock.now ());
         fields = req_attrs d fields;
       })

(* {2 Capture / merge} *)

type snapshot = entry list  (* emission order *)

let empty_snapshot = []

let capture f =
  if not (Metrics.enabled ()) then (f (), empty_snapshot)
  else begin
    let d = dstate () in
    let saved_stack = d.stack
    and saved_next = d.next_id
    and saved_buffering = d.buffering
    and saved_buf = d.buf in
    d.stack <- [];
    d.next_id <- 1;
    d.buffering <- true;
    d.buf <- [];
    let restore () =
      let entries = List.rev d.buf in
      d.stack <- saved_stack;
      d.next_id <- saved_next;
      d.buffering <- saved_buffering;
      d.buf <- saved_buf;
      entries
    in
    match f () with
    | v -> (v, restore ())
    | exception e ->
      ignore (restore ());
      raise e
  end

let merge entries =
  match entries with
  | [] -> ()
  | entries ->
    let d = dstate () in
    (* Captured span ids are dense 1..n in begin order (nested merges
       inside the capture draw from the same counter), so rebasing on
       the caller's counter reproduces the sequential allocation. *)
    let n =
      List.fold_left
        (fun acc e -> match e with Espan _ -> acc + 1 | Eblob _ -> acc)
        0 entries
    in
    let base = d.next_id - 1 in
    d.next_id <- d.next_id + n;
    let reparent = match d.stack with [] -> 0 | p :: _ -> p in
    let remap id = if id = 0 then reparent else id + base in
    List.iter
      (fun e ->
        push_entry d
          (match e with
          | Espan s -> Espan { s with id = s.id + base; parent = remap s.parent }
          | Eblob b -> Eblob { b with span = remap b.span }))
      entries

let reset () =
  let d = dstate () in
  d.stack <- [];
  d.next_id <- 1;
  d.buffering <- false;
  d.buf <- [];
  d.request <- None;
  (* A recorder reset is a measurement-epoch boundary (daemon restart,
     bench repeat, test isolation): the span-duration histograms and
     counters the spans fed must restart with it, or a long-lived
     process's quantiles and exposition counters would aggregate
     across epochs forever. *)
  Metrics.reset ();
  Mutex.protect epoch_mutex (fun () -> epoch := None)
