(* Fpart_obs: JSON round-trips, metrics registry semantics, and the
   driver instrumentation contract (one improve.pass span per Improve
   event, carrying its outcome). *)

module Json = Fpart_obs.Json
module Metrics = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder
module Sink = Fpart_obs.Sink

let with_obs f =
  (* capture records in memory with the layer enabled, then restore the
     disabled default whatever happens *)
  let sink, drain = Sink.memory () in
  Metrics.reset ();
  Fpart_obs.Recorder.reset ();
  Metrics.set_enabled true;
  Sink.set sink;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Sink.set Sink.null;
      Metrics.reset ();
      Fpart_obs.Recorder.reset ())
    (fun () -> f drain)

(* --- Json --- *)

let sample =
  Json.Obj
    [
      ("null", Json.Null);
      ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
      ("int", Json.Int (-42));
      ("float", Json.Float 1.5);
      ("int_float", Json.Float 3.0);
      ("tiny", Json.Float 6.103515625e-05);
      ("str", Json.Str "a \"quoted\"\nline\twith\\controls\x01");
      ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
    ]

let test_json_roundtrip () =
  match Json.of_string (Json.to_string sample) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok parsed ->
    Alcotest.(check string) "round trip" (Json.to_string sample) (Json.to_string parsed);
    Alcotest.(check bool) "structural equality" true (sample = parsed)

let test_json_escapes () =
  Alcotest.(check string)
    "escaped" "\"a\\\"b\\\\c\\nd\\u0001\""
    (Json.to_string (Json.Str "a\"b\\c\nd\x01"));
  (match Json.of_string "\"\\u0041\\u00e9\"" with
  | Ok (Json.Str s) -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape parse");
  Alcotest.(check string) "non-finite is null" "null"
    (Json.to_string (Json.Float Float.nan))

let test_json_numbers () =
  (match Json.of_string "[0, -7, 2.5, 1e3, -1.25e-2]" with
  | Ok
      (Json.List
        [ Json.Int 0; Json.Int (-7); Json.Float 2.5; Json.Float 1000.0; Json.Float f ])
    ->
    Alcotest.(check (float 1e-12)) "exp number" (-0.0125) f
  | Ok j -> Alcotest.failf "unexpected shape: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* integral floats keep their floatness through a round trip *)
  match Json.of_string (Json.to_string (Json.Float 3.0)) with
  | Ok (Json.Float 3.0) -> ()
  | _ -> Alcotest.fail "3.0 must stay a float"

let test_json_rejects () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok j -> Alcotest.failf "%S parsed as %s" s (Json.to_string j)
      | Error _ -> ())
    bad

(* --- Metrics --- *)

let test_counters () =
  with_obs (fun _ ->
      let c = Metrics.counter "test.counter" in
      Alcotest.(check int) "fresh" 0 (Metrics.counter_value c);
      Metrics.incr c;
      Metrics.add c 10;
      Alcotest.(check int) "incremented" 11 (Metrics.counter_value c);
      let c' = Metrics.counter "test.counter" in
      Metrics.incr c';
      Alcotest.(check int) "interned by name" 12 (Metrics.counter_value c))

let test_histogram_quantiles () =
  with_obs (fun _ ->
      let h = Metrics.histogram "test.hist" in
      for i = 1 to 100 do
        Metrics.observe h (float_of_int i)
      done;
      Alcotest.(check int) "count" 100 (Metrics.count h);
      Alcotest.(check (float 1e-9)) "p50" 50.0 (Metrics.quantile h 0.5);
      Alcotest.(check (float 1e-9)) "p95" 95.0 (Metrics.quantile h 0.95);
      Alcotest.(check (float 1e-9)) "max" 100.0 (Metrics.hist_max h);
      Alcotest.(check (float 1e-9)) "mean" 50.5 (Metrics.hist_mean h))

let test_disabled_is_inert () =
  Metrics.reset ();
  Metrics.set_enabled false;
  let h = Metrics.histogram "test.inert" in
  Metrics.observe h 1.0;
  Alcotest.(check int) "no samples while disabled" 0 (Metrics.count h);
  let sink, drain = Sink.memory () in
  Sink.set sink;
  let sp = Recorder.span_begin "test.span" in
  Alcotest.(check int) "span sentinel opens nothing" 0 (Recorder.current_id ());
  Recorder.span_end sp ~attrs:[];
  Sink.set Sink.null;
  Alcotest.(check int) "no records while disabled" 0 (List.length (drain ()));
  Alcotest.(check int) "no duration while disabled" 0
    (Metrics.count (Metrics.histogram "test.span"))

let test_span_emission () =
  with_obs (fun drain ->
      let sp = Recorder.span_begin "test.span" in
      Recorder.span_end sp ~attrs:[ ("k", Json.Int 3) ];
      match drain () with
      | [ record ] ->
        Alcotest.(check (option string))
          "type" (Some "span")
          Option.(bind (Json.member "type" record) Json.str);
        Alcotest.(check (option string))
          "name" (Some "test.span")
          Option.(bind (Json.member "name" record) Json.str);
        Alcotest.(check (option int))
          "attr" (Some 3)
          Option.(bind (Json.member "k" record) Json.int);
        Alcotest.(check bool) "duration histogram fed" true
          (Metrics.count (Metrics.histogram "test.span") = 1)
      | records -> Alcotest.failf "expected 1 record, got %d" (List.length records))

let test_report_well_formed () =
  with_obs (fun _ ->
      Metrics.incr (Metrics.counter "test.report.counter");
      Metrics.observe (Metrics.histogram "test.report.hist") 2.0;
      let rendered = Json.to_string (Metrics.report ()) in
      match Json.of_string rendered with
      | Error e -> Alcotest.failf "report is not valid JSON: %s (%s)" e rendered
      | Ok j ->
        let counters = Json.member "counters" j in
        Alcotest.(check (option int))
          "counter present" (Some 1)
          Option.(bind (bind counters (Json.member "test.report.counter")) Json.int))

let test_quantile_rank_formula () =
  (* Nearest rank: quantile p of N samples is the ⌈p·N⌉-th smallest,
     with p=0 pinned to the minimum and p=1 to the maximum. *)
  with_obs (fun _ ->
      let h = Metrics.histogram "test.rank" in
      for i = 1 to 30 do
        Metrics.observe h (float_of_int i)
      done;
      (* 0.1 *. 30. = 3.0000000000000004: the ceiling must still name
         the 3rd sample, not the 4th *)
      Alcotest.(check (float 1e-9)) "p10 of 30" 3.0 (Metrics.quantile h 0.1);
      Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Metrics.quantile h 0.0);
      Alcotest.(check (float 1e-9)) "p1 is max" 30.0 (Metrics.quantile h 1.0);
      Alcotest.(check (float 1e-9)) "p50 of 30" 15.0 (Metrics.quantile h 0.5);
      let one = Metrics.histogram "test.rank.single" in
      Metrics.observe one 7.0;
      List.iter
        (fun p ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "single sample at p=%g" p)
            7.0 (Metrics.quantile one p))
        [ 0.0; 0.25; 0.5; 0.99; 1.0 ];
      let four = Metrics.histogram "test.rank.four" in
      List.iter (Metrics.observe four) [ 10.0; 20.0; 30.0; 40.0 ];
      Alcotest.(check (float 1e-9)) "p50 of 4" 20.0 (Metrics.quantile four 0.5);
      Alcotest.(check (float 1e-9)) "p75 of 4" 30.0 (Metrics.quantile four 0.75);
      Alcotest.(check (float 1e-9)) "p76 of 4" 40.0 (Metrics.quantile four 0.76))

(* --- Clock guard --- *)

let test_clock_regression_guard () =
  let ticks = ref [ 5.0; 4.0; 3.0; 10.0; 2.0 ] in
  let source () =
    match !ticks with
    | [] -> 99.0
    | t :: rest ->
      ticks := rest;
      t
  in
  Fun.protect
    ~finally:(fun () -> Fpart_obs.Clock.set_source Sys.time)
    (fun () ->
      Fpart_obs.Clock.set_source source;
      let samples = List.init 5 (fun _ -> Fpart_obs.Clock.now ()) in
      Alcotest.(check (list (float 1e-9)))
        "regressions clamped to the high-water mark"
        [ 5.0; 5.0; 5.0; 10.0; 10.0 ] samples;
      (* a fresh source must not stay pinned at the old maximum *)
      Fpart_obs.Clock.set_source (fun () -> 1.0);
      Alcotest.(check (float 1e-9))
        "set_source resets the guard" 1.0
        (Fpart_obs.Clock.now ()))

(* --- Sink error reporting --- *)

(* Route stderr to a file while [f] runs, returning its contents. *)
let with_captured_stderr f =
  let path = Filename.temp_file "fpart_obs_stderr" ".txt" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let restore () =
    flush stderr;
    Unix.dup2 saved Unix.stderr;
    Unix.close saved
  in
  let v = try f () with e -> restore (); raise e in
  restore ();
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (v, text)

let test_jsonl_write_error_reported_once () =
  if not (Sys.file_exists "/dev/full") then ()
  else begin
    let oc = open_out "/dev/full" in
    let sink = Sink.jsonl oc in
    let big = Json.Obj [ ("pad", Json.Str (String.make 4096 'x')) ] in
    let (), err =
      with_captured_stderr (fun () ->
          (* enough to overflow the channel buffer mid-stream, then a
             close: neither may raise, and the failure is reported once *)
          for _ = 1 to 64 do
            sink.Sink.emit big
          done;
          sink.Sink.close ())
    in
    let occurrences =
      String.split_on_char '\n' err
      |> List.filter (fun l ->
             let re = "jsonl sink error" in
             let rec find i =
               i + String.length re <= String.length l
               && (String.sub l i (String.length re) = re || find (i + 1))
             in
             find 0)
      |> List.length
    in
    Alcotest.(check int) "error reported exactly once" 1 occurrences
  end

(* --- Recorder --- *)

module Inspect = Fpart_obs.Inspect

let span_skeleton records =
  List.filter_map
    (fun j ->
      match Option.(bind (Json.member "type" j) Json.str) with
      | Some "span" ->
        Some
          ( Option.(bind (Json.member "name" j) Json.str),
            Option.(bind (Json.member "id" j) Json.int),
            Option.(bind (Json.member "parent" j) Json.int) )
      | _ -> None)
    records

let test_recorder_tree () =
  with_obs (fun drain ->
      let root = Recorder.span_begin "r.root" in
      let child = Recorder.span_begin "r.child" in
      Alcotest.(check bool) "current_id is the open child" true
        (Recorder.current_id () <> 0);
      Recorder.event [ ("type", Json.Str "blob"); ("k", Json.Int 1) ];
      Recorder.span_end child ~attrs:[];
      let sibling = Recorder.span_begin "r.sibling" in
      Recorder.span_end sibling ~attrs:[];
      Recorder.span_end root ~attrs:[ ("done", Json.Bool true) ];
      let records = drain () in
      let t = Inspect.of_records records in
      Alcotest.(check (list string)) "no validation errors" [] (Inspect.validate t);
      (match span_skeleton records with
      | [ (Some "r.child", Some cid, Some cp);
          (Some "r.sibling", Some sid, Some sp);
          (Some "r.root", Some rid, Some rp) ] ->
        Alcotest.(check int) "root is a root" 0 rp;
        Alcotest.(check int) "child parented to root" rid cp;
        Alcotest.(check int) "sibling parented to root" rid sp;
        Alcotest.(check bool) "distinct ids" true (cid <> sid && sid <> rid)
      | sk -> Alcotest.failf "unexpected skeleton (%d spans)" (List.length sk));
      (* the blob must reference the span that was open when it fired *)
      let blob =
        List.find
          (fun j -> Option.(bind (Json.member "type" j) Json.str) = Some "blob")
          records
      in
      let child_id =
        List.filter_map
          (fun (n, id, _) -> if n = Some "r.child" then id else None)
          (span_skeleton records)
        |> List.hd
      in
      Alcotest.(check (option int))
        "blob tied to enclosing span" (Some child_id)
        Option.(bind (Json.member "span" blob) Json.int);
      Alcotest.(check bool) "histograms observed" true
        (Metrics.count (Metrics.histogram "r.root") = 1))

let test_recorder_unbalanced_end () =
  with_obs (fun drain ->
      let outer = Recorder.span_begin "u.outer" in
      let _leaked = Recorder.span_begin "u.leaked" in
      (* an exception unwound past [u.leaked]: ending the outer span
         must drop the stray id so later spans don't orphan *)
      Recorder.span_end outer ~attrs:[];
      let next = Recorder.span_begin "u.next" in
      Recorder.span_end next ~attrs:[];
      let t = Inspect.of_records (drain ()) in
      List.iter
        (fun s ->
          if s.Inspect.name = "u.next" then
            Alcotest.(check int) "later span is a root" 0 s.Inspect.parent)
        (Inspect.spans t))

let jobs_skeleton ~jobs =
  with_obs (fun drain ->
      Fpart_exec.Pool.with_pool ~jobs (fun pool ->
          let enclosing = Recorder.span_begin "p.batch" in
          let _ =
            Fpart_exec.Pool.map pool
              (fun i () ->
                let sp = Recorder.span_begin (Printf.sprintf "p.task%d" i) in
                let inner = Recorder.span_begin "p.inner" in
                Recorder.event [ ("type", Json.Str "note"); ("task", Json.Int i) ];
                Recorder.span_end inner ~attrs:[];
                Recorder.span_end sp ~attrs:[ ("task", Json.Int i) ])
              (Array.make 4 ())
          in
          Recorder.span_end enclosing ~attrs:[]);
      let records = drain () in
      let skeleton =
        List.map
          (fun j ->
            ( Option.(bind (Json.member "type" j) Json.str),
              Option.(bind (Json.member "name" j) Json.str),
              Option.(bind (Json.member "id" j) Json.int),
              Option.(bind (Json.member "parent" j) Json.int),
              Option.(bind (Json.member "span" j) Json.int) ))
          records
      in
      (records, skeleton))

let test_recorder_jobs_deterministic () =
  let records1, skel1 = jobs_skeleton ~jobs:1 in
  let records4, skel4 = jobs_skeleton ~jobs:4 in
  Alcotest.(check int) "same record count" (List.length records1)
    (List.length records4);
  Alcotest.(check bool) "id/parent/order stream identical across jobs" true
    (skel1 = skel4);
  List.iter
    (fun records ->
      let t = Inspect.of_records records in
      Alcotest.(check (list string)) "well-formed tree" [] (Inspect.validate t);
      (* task roots must be re-parented under the enclosing batch span *)
      let batch_id =
        List.filter_map
          (fun s -> if s.Inspect.name = "p.batch" then Some s.Inspect.id else None)
          (Inspect.spans t)
        |> List.hd
      in
      List.iter
        (fun s ->
          if String.length s.Inspect.name >= 6 && String.sub s.Inspect.name 0 6 = "p.task"
          then
            Alcotest.(check int)
              (s.Inspect.name ^ " under batch")
              batch_id s.Inspect.parent)
        (Inspect.spans t))
    [ records1; records4 ]

(* --- Inspect --- *)

(* A span record; without [t] it has no begin time. *)
let mk_span ~id ~parent ~name ?t ?(attrs = []) ~dur () =
  Json.Obj
    ([
       ("type", Json.Str "span");
       ("name", Json.Str name);
       ("dur_ms", Json.Float dur);
       ("id", Json.Int id);
       ("parent", Json.Int parent);
       ("track", Json.Int 0);
     ]
    @ (match t with Some t -> [ ("t_ms", Json.Float t) ] | None -> [])
    @ attrs)

let test_inspect_analysis () =
  let records =
    [
      mk_span ~id:2 ~parent:1 ~name:"improve.pass" ~t:1.0 ~dur:4.0
        ~attrs:
          [
            ("iteration", Json.Int 1);
            ("kind", Json.Str "pair_latest");
            ("blocks", Json.List [ Json.Int 0; Json.Int 1 ]);
            ("passes", Json.Int 2);
            ("moves", Json.Int 100);
            ("moves_retained", Json.Int 40);
            ("restarts", Json.Int 0);
            ("cut_before", Json.Int 30);
            ("cut_after", Json.Int 20);
          ]
        ();
      mk_span ~id:1 ~parent:0 ~name:"outer" ~t:0.0 ~dur:10.0 ();
    ]
  in
  let t = Inspect.of_records records in
  Alcotest.(check (list string)) "validates" [] (Inspect.validate t);
  (match Inspect.hotspots t with
  | [ a; b ] ->
    (* outer: 10ms total, 6 self (10 - 4 child); inner: 4 total, 4 self *)
    Alcotest.(check string) "outer leads by self time" "outer" a.Inspect.h_name;
    Alcotest.(check (float 1e-9)) "outer self" 6.0 a.Inspect.h_self_ms;
    Alcotest.(check (float 1e-9)) "inner self" 4.0 b.Inspect.h_self_ms;
    Alcotest.(check (float 1e-9)) "outer total" 10.0 a.Inspect.h_total_ms
  | rows -> Alcotest.failf "expected 2 hotspot rows, got %d" (List.length rows));
  (match Inspect.convergence t with
  | [ r ] ->
    Alcotest.(check int) "moves" 100 r.Inspect.c_moves;
    Alcotest.(check int) "retained" 40 r.Inspect.c_retained;
    Alcotest.(check int) "cut after" 20 r.Inspect.c_cut_after;
    Alcotest.(check string) "step" "pair_latest" r.Inspect.c_step
  | rows -> Alcotest.failf "expected 1 conv row, got %d" (List.length rows));
  (* orphans are reported *)
  let orphan = Inspect.of_records [ mk_span ~id:5 ~parent:9 ~name:"x" ~t:0.0 ~dur:1.0 () ] in
  Alcotest.(check bool) "orphan detected" true (Inspect.validate orphan <> []);
  (* jsonl loader reports the failing line *)
  match Inspect.load_string "{\"type\":\"span\"}\nnot json\n" with
  | Error e ->
    Alcotest.(check bool) "line number in error" true
      (String.length e >= 6 && String.sub e 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "malformed jsonl accepted"

(* run [0, 10] holds [a] at [1, 9] and [b] at [3, 9], which ran at
   once, then [c] at [9.5, 10]; [b] holds a 2 ms leaf.  The children
   cover [1, 9] and [9.5, 10]: 8.5 of run's 10 ms. *)
let overlapping_trace ~timed =
  let span ~id ~parent ~name ~t ~dur =
    mk_span ~id ~parent ~name ?t:(if timed then Some t else None) ~dur ()
  in
  Inspect.of_records
    [
      span ~id:2 ~parent:1 ~name:"a" ~t:1.0 ~dur:8.0;
      span ~id:4 ~parent:3 ~name:"b.leaf" ~t:4.0 ~dur:2.0;
      span ~id:3 ~parent:1 ~name:"b" ~t:3.0 ~dur:6.0;
      span ~id:5 ~parent:1 ~name:"c" ~t:9.5 ~dur:0.5;
      span ~id:1 ~parent:0 ~name:"run" ~t:0.0 ~dur:10.0;
    ]

let self_of t name =
  match List.find_opt (fun h -> h.Inspect.h_name = name) (Inspect.hotspots t) with
  | Some h -> h.Inspect.h_self_ms
  | None -> Alcotest.failf "no %s row" name

let test_inspect_self_overlapping () =
  let t = overlapping_trace ~timed:true in
  Alcotest.(check (list string)) "validates" [] (Inspect.validate t);
  Alcotest.(check (float 1e-9)) "run self is the uncovered time" 1.5 (self_of t "run");
  Alcotest.(check (float 1e-9)) "b self" 4.0 (self_of t "b");
  Alcotest.(check (float 1e-9)) "leaf self" 8.0 (self_of t "a");
  List.iter
    (fun h ->
      if h.Inspect.h_self_ms < 0.0 then
        Alcotest.failf "%s self %.3f is negative" h.Inspect.h_name h.Inspect.h_self_ms)
    (Inspect.hotspots t);
  (* without begin times the children cannot be placed: sequential *)
  Alcotest.(check (float 1e-9)) "untimed run self" (-4.5)
    (self_of (overlapping_trace ~timed:false) "run")

let test_inspect_coverage () =
  (* non-leaf self: run 1.5 + b 4 of the root's 10 ms *)
  Alcotest.(check (option (float 1e-9))) "leaf share of the root" (Some 0.45)
    (Inspect.coverage (overlapping_trace ~timed:true));
  Alcotest.(check (option (float 1e-9))) "no spans" None
    (Inspect.coverage (Inspect.of_records []))

(* --- Resource --- *)

module Resource = Fpart_obs.Resource
module Ledger = Fpart_obs.Ledger

(* with_obs plus per-span resource sampling; restores the disabled
   default and drops scripted sources/watermarks whatever happens. *)
let with_res_obs f =
  with_obs (fun drain ->
      Resource.reset ();
      Resource.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Resource.set_enabled false;
          Resource.set_source None;
          Resource.reset ())
        (fun () -> f drain))

(* Deterministic sampler: a per-domain call counter, so every delta is
   (samples taken on this domain between begin and end) — independent
   of scheduling, wall time and the real GC. *)
let scripted_source () =
  let key = Domain.DLS.new_key (fun () -> ref 0) in
  fun () ->
    let c = Domain.DLS.get key in
    incr c;
    let n = float_of_int !c in
    {
      Resource.minor_words = 1000.0 *. n;
      promoted_words = 10.0 *. n;
      major_words = 100.0 *. n;
      minor_gcs = !c;
      major_gcs = 0;
      compactions = 0;
      top_heap_words = 4096;
      os = { Resource.os_maxrss_kb = 2048; os_utime_s = 0.0; os_stime_s = 0.0 };
    }

let test_resource_sample_monotone () =
  (* the default sampler reads monotone GC counters: a second sample
     after allocating must not go backwards on any flow or peak *)
  let a = Resource.sample () in
  let sink = ref [] in
  for i = 1 to 10_000 do
    sink := Sys.opaque_identity (i, float_of_int i) :: !sink
  done;
  ignore (Sys.opaque_identity !sink);
  (* quick_stat's flow counters refresh at minor collections; force one
     so the allocation above is visible deterministically *)
  Gc.minor ();
  let b = Resource.sample () in
  Alcotest.(check bool) "minor words grow" true (b.Resource.minor_words >= a.Resource.minor_words);
  Alcotest.(check bool) "promoted monotone" true
    (b.Resource.promoted_words >= a.Resource.promoted_words);
  Alcotest.(check bool) "major monotone" true (b.Resource.major_words >= a.Resource.major_words);
  Alcotest.(check bool) "minor gcs monotone" true (b.Resource.minor_gcs >= a.Resource.minor_gcs);
  (* top_heap_words is NOT asserted monotone: on OCaml 5 it tracks live
     major-heap pools across domains and can shrink — the per-domain
     watermark cells exist to give summaries a true high-water mark *)
  let d = Resource.delta ~before:a ~after:b in
  Alcotest.(check bool) "allocated something" true (Resource.alloc_words d > 0.0);
  Alcotest.(check bool) "flow deltas non-negative" true
    (d.Resource.d_minor_words >= 0.0 && d.Resource.d_major_words >= 0.0
   && d.Resource.d_minor_gcs >= 0 && d.Resource.d_major_gcs >= 0)

let test_resource_alloc_exact () =
  (* right after a minor collection, a 1000-cell list (3 words a cons
     cell) must show up in the delta without waiting for the next one *)
  Gc.minor ();
  let a = Resource.sample () in
  let l = Sys.opaque_identity (List.init 1000 Fun.id) in
  let b = Resource.sample () in
  ignore (Sys.opaque_identity l);
  let alloc = Resource.alloc_words (Resource.delta ~before:a ~after:b) in
  if alloc < 3000.0 then Alcotest.failf "alloc_words %.0f < 3000" alloc

let test_resource_delta_add () =
  let s = scripted_source () in
  let a = s () and b = s () and c = s () in
  let d1 = Resource.delta ~before:a ~after:b in
  let d2 = Resource.delta ~before:b ~after:c in
  Alcotest.(check (float 1e-9)) "minor flow" 1000.0 d1.Resource.d_minor_words;
  Alcotest.(check int) "gcs flow" 1 d1.Resource.d_minor_gcs;
  Alcotest.(check (float 1e-9))
    "alloc = minor + major - promoted" 1090.0 (Resource.alloc_words d1);
  let sum = Resource.add d1 d2 in
  Alcotest.(check (float 1e-9)) "add sums flows" 2000.0 sum.Resource.d_minor_words;
  Alcotest.(check int) "add maxes heap peak" 4096 sum.Resource.d_top_heap_words;
  Alcotest.(check int) "add maxes rss peak" 2048 sum.Resource.d_maxrss_kb;
  Alcotest.(check (float 1e-9)) "zero_delta is additive identity"
    (Resource.alloc_words sum)
    (Resource.alloc_words (Resource.add sum Resource.zero_delta))

let fnum field j =
  match Json.member field j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "missing numeric field %s" field

let spans_with field records =
  List.filter
    (fun j ->
      Option.(bind (Json.member "type" j) Json.str) = Some "span"
      && Json.member field j <> None)
    records

(* --- Chrome export --- *)

(* One run's records written as a chrome export: strict JSON, one "C"
   memory event per span that carries resource peaks, and a load that
   folds back to exactly the records a JSONL file of the run holds. *)
let test_chrome_export_strict_json () =
  let path = Filename.temp_file "fpart_obs_chrome" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let records =
        with_res_obs (fun drain ->
            let root = Recorder.span_begin "c.root" in
            let child = Recorder.span_begin "c.child" in
            Recorder.event [ ("type", Json.Str "mark") ];
            Recorder.span_end child ~attrs:[];
            Recorder.span_end root ~attrs:[];
            drain ())
      in
      let sink = Sink.chrome (open_out path) in
      List.iter sink.Sink.emit records;
      sink.Sink.close ();
      let text = In_channel.with_open_bin path In_channel.input_all in
      (match Json.of_string (String.trim text) with
      | Error e -> Alcotest.failf "chrome export is not strict JSON: %s" e
      | Ok j ->
        (match Json.member "traceEvents" j with
        | Some (Json.List evs) ->
          let phases =
            List.filter_map (fun e -> Option.bind (Json.member "ph" e) Json.str) evs
          in
          let count ph = List.length (List.filter (( = ) ph) phases) in
          Alcotest.(check int) "X per span" 2 (count "X");
          Alcotest.(check int) "C per resource span"
            (List.length (spans_with "rss_kb" records))
            (count "C");
          Alcotest.(check int) "i per event" 1 (count "i");
          Alcotest.(check bool) "thread metadata present" true (count "M" > 0)
        | _ -> Alcotest.fail "no traceEvents list"));
      (* the loader folds it back into a validated span tree *)
      match Inspect.load_file path with
      | Error e -> Alcotest.failf "Inspect.load_file: %s" e
      | Ok t ->
        Alcotest.(check (list string)) "round-tripped tree validates" []
          (Inspect.validate t);
        Alcotest.(check int) "both spans recovered" 2
          (List.length (Inspect.spans t));
        Alcotest.(check int) "the JSONL record count" (List.length records)
          (List.length (Inspect.records t)))

let test_resource_span_records () =
  with_res_obs (fun drain ->
      let root = Recorder.span_begin "m.root" in
      let child = Recorder.span_begin "m.child" in
      let junk = ref [] in
      for i = 1 to 5_000 do
        junk := Sys.opaque_identity (float_of_int i) :: !junk
      done;
      ignore (Sys.opaque_identity !junk);
      Recorder.span_end child ~attrs:[];
      Recorder.span_end root ~attrs:[];
      let records = drain () in
      let t = Inspect.of_records records in
      Alcotest.(check (list string)) "validates" [] (Inspect.validate t);
      Alcotest.(check bool) "resource data detected" true (Inspect.has_resource_data t);
      let rspans = spans_with "alloc_w" records in
      Alcotest.(check int) "both spans carry alloc_w" 2 (List.length rspans);
      let alloc name =
        List.find
          (fun j -> Option.(bind (Json.member "name" j) Json.str) = Some name)
          rspans
        |> fnum "alloc_w"
      in
      Alcotest.(check bool) "span deltas non-negative" true
        (alloc "m.root" >= 0.0 && alloc "m.child" >= 0.0);
      (* flows are differences over the enclosing interval, so the root
         must account for at least its child's allocation *)
      Alcotest.(check bool) "root >= child" true (alloc "m.root" >= alloc "m.child");
      Alcotest.(check int) "records are the two spans" 2 (List.length records);
      List.iter
        (fun sp ->
          Alcotest.(check bool) "span peaks non-negative" true
            (Option.get Option.(bind (Json.member "heap_w" sp) Json.int) >= 0
            && Option.get Option.(bind (Json.member "rss_kb" sp) Json.int) >= 0))
        rspans)

let test_resource_disabled_no_fields () =
  with_obs (fun drain ->
      (* recorder on, resource off: plain span records, no peaks *)
      let sp = Recorder.span_begin "m.plain" in
      Recorder.span_end sp ~attrs:[];
      let records = drain () in
      Alcotest.(check int) "no alloc_w fields" 0 (List.length (spans_with "alloc_w" records));
      Alcotest.(check int) "no rss_kb fields" 0 (List.length (spans_with "rss_kb" records)))

let test_resource_watermarks () =
  Resource.reset ();
  Fun.protect
    ~finally:(fun () ->
      Resource.set_source None;
      Resource.reset ())
    (fun () ->
      Resource.set_source (Some (scripted_source ()));
      ignore (Resource.sample ());
      let w = Resource.watermark () in
      Alcotest.(check int) "heap watermark raised" 4096 w.Resource.w_top_heap_words;
      Alcotest.(check int) "rss watermark raised" 2048 w.Resource.w_maxrss_kb;
      let snap = Resource.snapshot_watermark () in
      Alcotest.(check int) "snapshot captures" 4096 snap.Resource.w_top_heap_words;
      Alcotest.(check int) "snapshot zeroes the cell" 0
        (Resource.watermark ()).Resource.w_top_heap_words;
      Resource.merge_watermark { Resource.w_top_heap_words = 9999; w_maxrss_kb = 1 };
      Resource.merge_watermark snap;
      let m = Resource.watermark () in
      Alcotest.(check int) "merge maxes heap" 9999 m.Resource.w_top_heap_words;
      Alcotest.(check int) "merge maxes rss" 2048 m.Resource.w_maxrss_kb)

(* Strip the fields that legitimately differ between --jobs runs
   (timestamps, durations, domain tracks); everything else — including
   every resource field — must be bit-identical. *)
let stable_fields j =
  match j with
  | Json.Obj fields ->
    Json.Obj
      (List.filter
         (fun (k, _) -> k <> "t_ms" && k <> "dur_ms" && k <> "track")
         fields)
  | j -> j

let resource_jobs_records ~jobs =
  with_res_obs (fun drain ->
      Resource.set_source (Some (scripted_source ()));
      Fpart_exec.Pool.with_pool ~jobs (fun pool ->
          let batch = Recorder.span_begin "rj.batch" in
          let _ =
            Fpart_exec.Pool.map pool
              (fun i () ->
                let sp = Recorder.span_begin (Printf.sprintf "rj.task%d" i) in
                let inner = Recorder.span_begin "rj.inner" in
                Recorder.span_end inner ~attrs:[];
                Recorder.span_end sp ~attrs:[])
              (Array.make 4 ())
          in
          Recorder.span_end batch ~attrs:[]);
      drain ())

let test_resource_jobs_deterministic () =
  let r1 = resource_jobs_records ~jobs:1 in
  let r4 = resource_jobs_records ~jobs:4 in
  Alcotest.(check int) "same record count" (List.length r1) (List.length r4);
  Alcotest.(check bool) "records identical up to time/track" true
    (List.map stable_fields r1 = List.map stable_fields r4);
  let t1 = Inspect.of_records r1 and t4 = Inspect.of_records r4 in
  Alcotest.(check bool) "mem totals identical" true
    (Inspect.mem_totals t1 = Inspect.mem_totals t4);
  Alcotest.(check bool) "memspots identical" true
    (Inspect.memspots t1 = Inspect.memspots t4)

(* [Resource.adopt] with an injected (per-domain) source: every flow
   offsets later samples on the adopting domain, peaks are untouched,
   and reset drops the offset. *)
let test_resource_adopt_offsets_samples () =
  Resource.reset ();
  Fun.protect
    ~finally:(fun () ->
      Resource.set_source None;
      Resource.reset ())
    (fun () ->
      Resource.set_source (Some (scripted_source ()));
      let s1 = Resource.sample () in
      Resource.adopt
        {
          Resource.d_minor_words = 500.0;
          d_promoted_words = 5.0;
          d_major_words = 50.0;
          d_minor_gcs = 2;
          d_major_gcs = 1;
          d_top_heap_words = 99_999;
          d_maxrss_kb = 99_999;
          d_utime_s = 0.25;
          d_stime_s = 0.5;
        };
      let s2 = Resource.sample () in
      let d = Resource.delta ~before:s1 ~after:s2 in
      (* one scripted step (1000/10/100 words, 1 gc) plus the adopted flows *)
      Alcotest.(check (float 0.0)) "minor words" 1500.0 d.Resource.d_minor_words;
      Alcotest.(check (float 0.0)) "promoted words" 15.0 d.Resource.d_promoted_words;
      Alcotest.(check (float 0.0)) "major words" 150.0 d.Resource.d_major_words;
      Alcotest.(check int) "minor gcs" 3 d.Resource.d_minor_gcs;
      Alcotest.(check int) "major gcs" 1 d.Resource.d_major_gcs;
      Alcotest.(check (float 0.0)) "utime" 0.25 d.Resource.d_utime_s;
      Alcotest.(check (float 0.0)) "stime" 0.5 d.Resource.d_stime_s;
      Alcotest.(check int) "heap peak not adopted" 4096 d.Resource.d_top_heap_words;
      Alcotest.(check int) "rss peak not adopted" 2048 d.Resource.d_maxrss_kb;
      Resource.reset ();
      Alcotest.(check (float 0.0)) "reset drops adopted flows" 3000.0
        (Resource.sample ()).Resource.minor_words)

(* The default sampler's quick_stat counters are process-wide, so it
   adopts only the per-domain minor words. *)
let test_resource_default_adopts_minor_only () =
  Resource.reset ();
  Fun.protect ~finally:Resource.reset (fun () ->
      let big = 1e12 in
      let s1 = Resource.sample () in
      Resource.adopt
        {
          Resource.zero_delta with
          Resource.d_minor_words = big;
          d_promoted_words = big;
          d_major_words = big;
          d_minor_gcs = 1_000_000;
          d_major_gcs = 1_000_000;
          d_utime_s = 1e6;
        };
      let d = Resource.delta ~before:s1 ~after:(Resource.sample ()) in
      Alcotest.(check bool) "minor words adopted" true (d.Resource.d_minor_words >= big);
      Alcotest.(check bool) "promoted words not adopted" true
        (d.Resource.d_promoted_words < big);
      Alcotest.(check bool) "major words not adopted" true (d.Resource.d_major_words < big);
      Alcotest.(check bool) "collections not adopted" true
        (d.Resource.d_minor_gcs < 1_000_000 && d.Resource.d_major_gcs < 1_000_000);
      Alcotest.(check bool) "cpu time not adopted" true (d.Resource.d_utime_s < 1e6))

(* A span around a pool batch counts every task's flows wherever it
   ran: one end sample, and per task its 4 span samples plus the one
   closing reading the pool takes on every domain. *)
let test_resource_batch_span_inclusive () =
  let records = resource_jobs_records ~jobs:4 in
  let named name =
    List.find
      (fun j -> Option.(bind (Json.member "name" j) Json.str) = Some name)
      (spans_with "alloc_w" records)
  in
  let tasks = List.init 4 (fun i -> named (Printf.sprintf "rj.task%d" i)) in
  let batch = named "rj.batch" in
  Alcotest.(check (float 0.0)) "batch minor words" 21_000.0 (fnum "minor_w" batch);
  Alcotest.(check bool) "batch covers its tasks" true
    (fnum "alloc_w" batch >= List.fold_left (fun acc t -> acc +. fnum "alloc_w" t) 0.0 tasks);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Inspect.m_name ^ " self words non-negative")
        true (r.Inspect.m_self_w >= 0.0))
    (Inspect.memspots (Inspect.of_records records))

let test_mem_analysis () =
  (* synthetic trace: outer allocates 100w of which inner 60w; totals
     must count roots once, peaks max over all spans *)
  let mk ~id ~parent ~name ~alloc ~heap ~rss =
    Json.Obj
      [
        ("type", Json.Str "span");
        ("name", Json.Str name);
        ("dur_ms", Json.Float 1.0);
        ("id", Json.Int id);
        ("parent", Json.Int parent);
        ("track", Json.Int 0);
        ("t_ms", Json.Float 0.0);
        ("alloc_w", Json.Float alloc);
        ("minor_gcs", Json.Int 1);
        ("major_gcs", Json.Int 0);
        ("heap_w", Json.Int heap);
        ("rss_kb", Json.Int rss);
      ]
  in
  let t =
    Inspect.of_records
      [
        mk ~id:2 ~parent:1 ~name:"inner" ~alloc:60.0 ~heap:500 ~rss:70;
        mk ~id:1 ~parent:0 ~name:"outer" ~alloc:100.0 ~heap:400 ~rss:90;
      ]
  in
  (match Inspect.memspots t with
  | [ a; b ] ->
    Alcotest.(check string) "inner leads by self words" "inner" a.Inspect.m_name;
    Alcotest.(check (float 1e-9)) "inner self" 60.0 a.Inspect.m_self_w;
    Alcotest.(check (float 1e-9)) "outer self = total - child" 40.0 b.Inspect.m_self_w;
    Alcotest.(check (float 1e-9)) "outer total inclusive" 100.0 b.Inspect.m_total_w
  | rows -> Alcotest.failf "expected 2 memspot rows, got %d" (List.length rows));
  let tot = Inspect.mem_totals t in
  Alcotest.(check (float 1e-9)) "totals count roots once" 100.0 tot.Inspect.t_alloc_w;
  Alcotest.(check int) "gcs from roots" 1 tot.Inspect.t_minor_gcs;
  Alcotest.(check int) "heap peak over all spans" 500 tot.Inspect.t_heap_w;
  Alcotest.(check int) "rss peak over all spans" 90 tot.Inspect.t_rss_kb

(* --- Ledger --- *)

let entry ?(time = 1.0) ?(label = "bench/test") rows =
  {
    Ledger.time;
    git_rev = Some "deadbeef";
    kind = "bench";
    label;
    jobs = 1;
    repeats = 5;
    config_digest = None;
    netlist_digest = Some "0123";
    rows;
    resource = None;
  }

let row ?(higher_better = false) name value =
  { Ledger.name; value; unit_ = "s"; higher_better }

let with_temp_ledger f =
  let path = Filename.temp_file "fpart_ledger" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_ledger_roundtrip () =
  with_temp_ledger (fun path ->
      let e1 = entry ~time:1.0 [ row "a/wall" 1.5; row ~higher_better:true "a/rate" 10.0 ] in
      let e2 =
        {
          (entry ~time:2.0 [ row "a/wall" 1.4 ]) with
          Ledger.resource = Some (Json.Obj [ ("type", Json.Str "gc"); ("maxrss_kb", Json.Int 7) ]);
          git_rev = None;
        }
      in
      (match Ledger.append path e1 with Ok () -> () | Error e -> Alcotest.fail e);
      (match Ledger.append path e2 with Ok () -> () | Error e -> Alcotest.fail e);
      match Ledger.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok entries ->
        Alcotest.(check bool) "append/load round-trips" true (entries = [ e1; e2 ]))

let test_ledger_rejects_corruption () =
  with_temp_ledger (fun path ->
      (match Ledger.append path (entry [ row "a" 1.0 ]) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Out_channel.with_open_gen
        [ Open_append; Open_wronly ]
        0o644 path
        (fun oc -> output_string oc "not json\n");
      (match Ledger.load path with
      | Ok _ -> Alcotest.fail "corrupt line accepted"
      | Error e ->
        Alcotest.(check bool) "error names the line" true
          (String.length e >= 6 && String.sub e 0 6 = "line 2"));
      (* a foreign schema tag must also fail the whole load *)
      let foreign =
        match Ledger.entry_to_json (entry [ row "a" 1.0 ]) with
        | Json.Obj fields ->
          Json.Obj
            (List.map
               (fun (k, v) -> if k = "schema" then (k, Json.Str "fpart-ledger/9") else (k, v))
               fields)
        | j -> j
      in
      Out_channel.with_open_gen
        [ Open_wronly; Open_trunc ]
        0o644 path
        (fun oc -> output_string oc (Json.to_string foreign ^ "\n"));
      match Ledger.load path with
      | Ok _ -> Alcotest.fail "foreign schema accepted"
      | Error e ->
        Alcotest.(check bool) "mentions the schema" true
          (let re = "fpart-ledger/9" in
           let rec find i =
             i + String.length re <= String.length e
             && (String.sub e i (String.length re) = re || find (i + 1))
           in
           find 0))

let test_regress_directions_and_floor () =
  let history v = List.mapi (fun i x -> entry ~time:(float_of_int i) [ row "w" x ]) v in
  (* quiet lower-better history, latest 50% worse: regression *)
  (match Inspect.regress (history [ 1.0; 1.0; 1.0; 1.5 ]) with
  | [ v ] ->
    Alcotest.(check bool) "worse flagged" true v.Inspect.v_regressed;
    Alcotest.(check (float 1e-9)) "baseline is median" 1.0 v.Inspect.v_baseline;
    Alcotest.(check (float 1e-9)) "worse delta" 0.5 v.Inspect.v_worse
  | vs -> Alcotest.failf "expected 1 verdict, got %d" (List.length vs));
  (* within the 20% floor: ok *)
  (match Inspect.regress (history [ 1.0; 1.0; 1.0; 1.1 ]) with
  | [ v ] -> Alcotest.(check bool) "small delta tolerated" false v.Inspect.v_regressed
  | _ -> Alcotest.fail "expected 1 verdict");
  (* improvement in a lower-better row: never a regression *)
  (match Inspect.regress (history [ 1.0; 1.0; 1.0; 0.2 ]) with
  | [ v ] -> Alcotest.(check bool) "improvement ok" false v.Inspect.v_regressed
  | _ -> Alcotest.fail "expected 1 verdict");
  (* higher-better row falling by half: regression *)
  let hb v =
    List.mapi
      (fun i x -> entry ~time:(float_of_int i) [ row ~higher_better:true "r" x ])
      v
  in
  (match Inspect.regress (hb [ 10.0; 10.0; 10.0; 5.0 ]) with
  | [ v ] -> Alcotest.(check bool) "throughput drop flagged" true v.Inspect.v_regressed
  | _ -> Alcotest.fail "expected 1 verdict");
  (* rows with no history are skipped, not judged *)
  match
    Inspect.regress
      [ entry ~time:0.0 [ row "old" 1.0 ]; entry ~time:1.0 [ row "new" 9.0 ] ]
  with
  | [] -> ()
  | vs -> Alcotest.failf "expected no verdicts, got %d" (List.length vs)

let test_regress_mad_widens_gate () =
  (* noisy history: median 1.2, scaled MAD ≈ 0.297, allowed ≈ 99%; a
     +67% latest passes where a quiet history would have failed, and a
     +150% latest still fails *)
  let history latest =
    List.mapi
      (fun i x -> entry ~time:(float_of_int i) [ row "n" x ])
      [ 1.0; 1.2; 1.4; latest ]
  in
  (match Inspect.regress (history 2.0) with
  | [ v ] ->
    Alcotest.(check bool) "noise widens allowance" false v.Inspect.v_regressed;
    Alcotest.(check bool) "allowance above the floor" true (v.Inspect.v_allowed > 0.20)
  | _ -> Alcotest.fail "expected 1 verdict");
  match Inspect.regress (history 3.0) with
  | [ v ] -> Alcotest.(check bool) "gross regression still flagged" true v.Inspect.v_regressed
  | _ -> Alcotest.fail "expected 1 verdict"

(* --- ledger workload digests --- *)

let test_ledger_digest_fields () =
  with_temp_ledger (fun path ->
      let e =
        {
          (entry [ row "a/wall" 1.0 ]) with
          Ledger.config_digest = Some "cafebabecafebabecafebabecafebabe";
          netlist_digest = Some "deadbeefdeadbeefdeadbeefdeadbeef";
        }
      in
      let text = Json.to_string (Ledger.entry_to_json e) in
      let has sub =
        let n = String.length sub and m = String.length text in
        let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "serialized config_digest" true
        (has "\"config_digest\":\"cafebabecafebabecafebabecafebabe\"");
      Alcotest.(check bool) "serialized netlist_digest" true
        (has "\"netlist_digest\":\"deadbeefdeadbeefdeadbeefdeadbeef\"");
      (match Ledger.entry_of_json (Ledger.entry_to_json e) with
      | Ok e' -> Alcotest.(check bool) "json round-trips digests" true (e = e')
      | Error err -> Alcotest.failf "entry_of_json: %s" err);
      (match Ledger.append path e with Ok () -> () | Error err -> Alcotest.fail err);
      match Ledger.load path with
      | Ok [ e' ] ->
        Alcotest.(check (option string)) "config digest survives the file"
          e.Ledger.config_digest e'.Ledger.config_digest;
        Alcotest.(check (option string)) "netlist digest survives the file"
          e.Ledger.netlist_digest e'.Ledger.netlist_digest
      | Ok es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
      | Error err -> Alcotest.failf "load: %s" err)

(* The digests are the grouping key for trend/regress and the cache
   key of fpart_serve; if the canonical form ever changes these pins
   must be bumped deliberately, not by accident. *)
let test_canonical_digests_pinned () =
  let b = Hypergraph.Hgraph.Builder.create () in
  let a = Hypergraph.Hgraph.Builder.add_cell b ~name:"a" ~size:2 in
  let c = Hypergraph.Hgraph.Builder.add_cell b ~name:"c" ~size:1 in
  let p = Hypergraph.Hgraph.Builder.add_pad b ~name:"p" in
  ignore (Hypergraph.Hgraph.Builder.add_net b ~name:"n0" [ p; a ]);
  ignore (Hypergraph.Hgraph.Builder.add_net b ~name:"n1" [ a; c ]);
  let h = Hypergraph.Hgraph.Builder.freeze b in
  Alcotest.(check string) "netlist digest pinned"
    "9a5dd5597aed719691dc235915b295d3"
    (Hypergraph.Hgraph.digest h);
  Alcotest.(check string) "config digest pinned"
    "0869c00def6fef7d961dab031af14ef8"
    (Fpart.Config.digest Fpart.Config.default);
  Alcotest.(check string) "config digest with extra pinned"
    "4e6124aa1b85afad61e159d8e47b0af5"
    (Fpart.Config.digest ~extra:"algo=fm" Fpart.Config.default)

let test_regress_groups_by_workload () =
  let tagged ?config ?netlist time v =
    {
      (entry ~time [ row "w" v ]) with
      Ledger.config_digest = config;
      netlist_digest = netlist;
    }
  in
  let wl_a = Some "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" in
  let wl_b = Some "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb" in
  (* same-workload history gates the latest entry *)
  (match
     Inspect.regress
       [
         tagged ?config:wl_a ?netlist:wl_a 1.0 1.0;
         tagged ?config:wl_a ?netlist:wl_a 2.0 1.0;
         tagged ?config:wl_a ?netlist:wl_a 3.0 2.0;
       ]
   with
  | [ v ] -> Alcotest.(check bool) "same workload judged" true v.Inspect.v_regressed
  | vs -> Alcotest.failf "expected 1 verdict, got %d" (List.length vs));
  (* history from a different workload is not a baseline: a slow
     netlist must not flag a fast one *)
  (match
     Inspect.regress
       [
         tagged ?config:wl_a ?netlist:wl_a 1.0 1.0;
         tagged ?config:wl_a ?netlist:wl_a 2.0 1.0;
         tagged ?config:wl_b ?netlist:wl_b 3.0 2.0;
       ]
   with
  | [] -> ()
  | vs -> Alcotest.failf "foreign workload judged: %d verdicts" (List.length vs));
  (* digest-less legacy history still gates digested entries *)
  match
    Inspect.regress
      [
        tagged 1.0 1.0;
        tagged 2.0 1.0;
        tagged ?config:wl_a ?netlist:wl_a 3.0 2.0;
      ]
  with
  | [ v ] -> Alcotest.(check bool) "legacy fallback gates" true v.Inspect.v_regressed
  | vs -> Alcotest.failf "expected 1 verdict, got %d" (List.length vs)

(* --- driver instrumentation --- *)

let record_type j = Option.(bind (Json.member "type" j) Json.str)

(* One traced flat run, shared by the driver tests below. *)
let driver_run =
  lazy
    (let hg =
       Netlist.Generator.generate
         (Netlist.Generator.default_spec ~name:"obs" ~cells:300 ~pads:40 ~seed:3)
     in
     with_obs (fun drain ->
         let r = Fpart.Driver.run hg Device.xc2064 in
         (r, drain ())))

let spans_named name records =
  List.filter
    (fun j ->
      record_type j = Some "span"
      && Option.(bind (Json.member "name" j) Json.str) = Some name)
    records

(* Every Improve trace event rides inside its improve.pass span, in call
   order, carrying the event's iteration, kind and value after the call;
   every committed block is its driver.iteration span's size and pins. *)
let test_driver_improve_spans () =
  let result, records = Lazy.force driver_run in
  let improve_events =
    List.filter_map
      (function
        | Fpart.Trace.Improve { iteration; kind; value; _ } ->
          Some (iteration, Fpart.Trace.kind_name kind, value)
        | _ -> None)
      result.Fpart.Driver.trace
  in
  let improve_spans = spans_named "improve.pass" records in
  Alcotest.(check bool) "multiple iterations exercised" true
    (result.Fpart.Driver.k > 1);
  Alcotest.(check int) "one span per Improve event" (List.length improve_events)
    (List.length improve_spans);
  List.iter2
    (fun (iteration, kind, value) sp ->
      Alcotest.(check (option int)) "iteration" (Some iteration)
        Option.(bind (Json.member "iteration" sp) Json.int);
      Alcotest.(check (option string)) "kind" (Some kind)
        Option.(bind (Json.member "kind" sp) Json.str);
      Alcotest.(check bool) "value_after is the event's value" true
        (Json.member "value_after" sp = Some (Partition.Cost.value_to_json value)))
    improve_events improve_spans;
  let iteration_spans = spans_named "driver.iteration" records in
  let committed =
    List.filter_map
      (function
        | Fpart.Trace.Committed { size; pins; _ } -> Some (size, pins) | _ -> None)
      result.Fpart.Driver.trace
  in
  Alcotest.(check int) "one span per driver iteration" (List.length committed)
    (List.length iteration_spans);
  List.iter2
    (fun (size, pins) sp ->
      Alcotest.(check (pair (option int) (option int)))
        "committed block size and pins" (Some size, Some pins)
        ( Option.(bind (Json.member "size" sp) Json.int),
          Option.(bind (Json.member "pins" sp) Json.int) ))
    committed iteration_spans;
  Alcotest.(check int) "exactly one run span" 1
    (List.length (spans_named "driver.run" records))

(* A traced run writes each Improve() call once: no record repeats a
   span (only spans and the per-FM-pass [pass] records remain, and no
   span id is written twice), and each improve.pass span carries the
   whole trajectory of its call. *)
let test_driver_one_record_per_improve () =
  let _, records = Lazy.force driver_run in
  List.iter
    (fun j ->
      match record_type j with
      | Some ("span" | "pass") -> ()
      | ty ->
        Alcotest.failf "record type %s repeats a span"
          (Option.value ty ~default:"(none)"))
    records;
  let ids =
    List.filter_map
      (fun j -> Option.(bind (Json.member "id" j) Json.int))
      (List.filter (fun j -> record_type j = Some "span") records)
  in
  Alcotest.(check int) "span ids are unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "pass records present" true
    (List.exists (fun j -> record_type j = Some "pass") records);
  List.iter
    (fun j ->
      if record_type j = Some "pass" then
        match Option.(bind (Json.member "span" j) Json.int) with
        | Some id when List.mem id ids -> ()
        | _ -> Alcotest.fail "pass record outside any recorded span")
    records;
  List.iter
    (fun sp ->
      List.iter
        (fun field ->
          Alcotest.(check bool) ("improve.pass has " ^ field) true
            (Json.member field sp <> None))
        [ "cut_before"; "cut_after"; "value_before"; "value_after" ])
    (spans_named "improve.pass" records)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "quantile rank formula pinned" `Quick
            test_quantile_rank_formula;
          Alcotest.test_case "disabled layer is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "span emission" `Quick test_span_emission;
          Alcotest.test_case "report well-formed" `Quick test_report_well_formed;
        ] );
      ( "driver",
        [
          Alcotest.test_case "improve events wrapped in spans" `Quick
            test_driver_improve_spans;
          Alcotest.test_case "one record per Improve() call" `Quick
            test_driver_one_record_per_improve;
        ] );
      ( "clock",
        [
          Alcotest.test_case "regressing source clamped" `Quick
            test_clock_regression_guard;
        ] );
      ( "sink",
        [
          Alcotest.test_case "jsonl write error reported once" `Quick
            test_jsonl_write_error_reported_once;
          Alcotest.test_case "chrome export strict JSON" `Quick
            test_chrome_export_strict_json;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "span tree structure" `Quick test_recorder_tree;
          Alcotest.test_case "unbalanced end recovers" `Quick
            test_recorder_unbalanced_end;
          Alcotest.test_case "deterministic across --jobs" `Quick
            test_recorder_jobs_deterministic;
        ] );
      ( "inspect",
        [
          Alcotest.test_case "hotspots, convergence, validation" `Quick
            test_inspect_analysis;
          Alcotest.test_case "memspots and totals" `Quick test_mem_analysis;
          Alcotest.test_case "self time with overlapping children" `Quick
            test_inspect_self_overlapping;
          Alcotest.test_case "leaf-span coverage" `Quick test_inspect_coverage;
        ] );
      ( "resource",
        [
          Alcotest.test_case "default sampler monotone" `Quick
            test_resource_sample_monotone;
          Alcotest.test_case "allocation exact between minor collections" `Quick
            test_resource_alloc_exact;
          Alcotest.test_case "delta arithmetic" `Quick test_resource_delta_add;
          Alcotest.test_case "span records carry resource fields" `Quick
            test_resource_span_records;
          Alcotest.test_case "disabled adds nothing" `Quick
            test_resource_disabled_no_fields;
          Alcotest.test_case "watermark snapshot/merge" `Quick
            test_resource_watermarks;
          Alcotest.test_case "deterministic across --jobs" `Quick
            test_resource_jobs_deterministic;
          Alcotest.test_case "adopted flows offset later samples" `Quick
            test_resource_adopt_offsets_samples;
          Alcotest.test_case "default sampler adopts minor words only" `Quick
            test_resource_default_adopts_minor_only;
          Alcotest.test_case "batch span counts worker tasks" `Quick
            test_resource_batch_span_inclusive;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "append/load round trip" `Quick test_ledger_roundtrip;
          Alcotest.test_case "strict about corruption" `Quick
            test_ledger_rejects_corruption;
          Alcotest.test_case "regress directions and floor" `Quick
            test_regress_directions_and_floor;
          Alcotest.test_case "MAD widens the gate" `Quick
            test_regress_mad_widens_gate;
          Alcotest.test_case "digest fields round-trip" `Quick
            test_ledger_digest_fields;
          Alcotest.test_case "canonical digests pinned" `Quick
            test_canonical_digests_pinned;
          Alcotest.test_case "regress groups by workload" `Quick
            test_regress_groups_by_workload;
        ] );
    ]
