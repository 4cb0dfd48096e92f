(* Resource telemetry: Gc.quick_stat plus an injected OS reading.

   Everything here must stay dependency-free (no unix): the default OS
   source reads /proc/self/status with stdlib channels and falls back
   to zeros on other systems; binaries install a getrusage(2) stub via
   {!set_os_source} (see bin/obs_setup.ml), mirroring how the
   monotonic clock reaches {!Clock.set_source}. *)

type os = { os_maxrss_kb : int; os_utime_s : float; os_stime_s : float }

type sample = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_gcs : int;
  major_gcs : int;
  compactions : int;
  top_heap_words : int;
  os : os;
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* {2 OS reading} *)

let proc_status_maxrss_kb () =
  (* VmHWM is the peak resident set in kB; the file is absent outside
     Linux and procfs-less sandboxes, in which case we report 0 rather
     than fail — resource telemetry degrades, never aborts a run. *)
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    let kb = ref 0 in
    List.iter
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = "VmHWM" ->
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          let digits =
            String.to_seq rest
            |> Seq.filter (fun c -> c >= '0' && c <= '9')
            |> String.of_seq
          in
          if digits <> "" then kb := int_of_string digits
        | _ -> ())
      (String.split_on_char '\n' text);
    !kb

(* The /proc parse costs ~10us — two orders of magnitude over
   Gc.quick_stat — so per-span sampling refreshes the peak-RSS reading
   only every [rss_refresh]-th call and serves a cached value in
   between.  maxrss is monotone and slow-moving, so span peaks lag by
   at most a handful of samples; the cache itself only ever grows. *)
let rss_refresh = 32
let rss_tick = Atomic.make 0
let rss_cache = Atomic.make 0

let throttled_maxrss_kb () =
  if Atomic.fetch_and_add rss_tick 1 mod rss_refresh = 0 then begin
    let kb = proc_status_maxrss_kb () in
    let rec publish () =
      let old = Atomic.get rss_cache in
      if kb > old && not (Atomic.compare_and_set rss_cache old kb) then
        publish ()
    in
    publish ();
    max kb (Atomic.get rss_cache)
  end
  else Atomic.get rss_cache

let default_os_source () =
  { os_maxrss_kb = throttled_maxrss_kb (); os_utime_s = Sys.time (); os_stime_s = 0.0 }

let os_source = ref default_os_source
let set_os_source f = os_source := f

(* {2 Watermarks}

   One cell per domain: peak readings seen by this domain's samples.
   Pool workers snapshot theirs after each task and the caller
   max-merges them, so post-join summaries see worker peaks even when
   the caller never sampled at the high-water moment (relevant for
   scripted sources and any future per-domain gauge). *)

type watermark = { w_top_heap_words : int; w_maxrss_kb : int }

let zero_watermark = { w_top_heap_words = 0; w_maxrss_kb = 0 }

let watermark_key : watermark ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref zero_watermark)

let watermark () = !(Domain.DLS.get watermark_key)

let raise_watermark s =
  let cell = Domain.DLS.get watermark_key in
  let w = !cell in
  cell :=
    {
      w_top_heap_words = max w.w_top_heap_words s.top_heap_words;
      w_maxrss_kb = max w.w_maxrss_kb s.os.os_maxrss_kb;
    }

let snapshot_watermark () =
  let cell = Domain.DLS.get watermark_key in
  let w = !cell in
  cell := zero_watermark;
  w

let merge_watermark w =
  let cell = Domain.DLS.get watermark_key in
  let c = !cell in
  cell :=
    {
      w_top_heap_words = max c.w_top_heap_words w.w_top_heap_words;
      w_maxrss_kb = max c.w_maxrss_kb w.w_maxrss_kb;
    }

(* {2 Deltas} *)

type delta = {
  d_minor_words : float;
  d_promoted_words : float;
  d_major_words : float;
  d_minor_gcs : int;
  d_major_gcs : int;
  d_top_heap_words : int;
  d_maxrss_kb : int;
  d_utime_s : float;
  d_stime_s : float;
}

let zero_delta =
  {
    d_minor_words = 0.0;
    d_promoted_words = 0.0;
    d_major_words = 0.0;
    d_minor_gcs = 0;
    d_major_gcs = 0;
    d_top_heap_words = 0;
    d_maxrss_kb = 0;
    d_utime_s = 0.0;
    d_stime_s = 0.0;
  }

let delta ~before ~after =
  {
    d_minor_words = after.minor_words -. before.minor_words;
    d_promoted_words = after.promoted_words -. before.promoted_words;
    d_major_words = after.major_words -. before.major_words;
    d_minor_gcs = after.minor_gcs - before.minor_gcs;
    d_major_gcs = after.major_gcs - before.major_gcs;
    d_top_heap_words = after.top_heap_words;
    d_maxrss_kb = after.os.os_maxrss_kb;
    d_utime_s = after.os.os_utime_s -. before.os.os_utime_s;
    d_stime_s = after.os.os_stime_s -. before.os.os_stime_s;
  }

let add a b =
  {
    d_minor_words = a.d_minor_words +. b.d_minor_words;
    d_promoted_words = a.d_promoted_words +. b.d_promoted_words;
    d_major_words = a.d_major_words +. b.d_major_words;
    d_minor_gcs = a.d_minor_gcs + b.d_minor_gcs;
    d_major_gcs = a.d_major_gcs + b.d_major_gcs;
    d_top_heap_words = max a.d_top_heap_words b.d_top_heap_words;
    d_maxrss_kb = max a.d_maxrss_kb b.d_maxrss_kb;
    d_utime_s = a.d_utime_s +. b.d_utime_s;
    d_stime_s = a.d_stime_s +. b.d_stime_s;
  }

let alloc_words d = d.d_minor_words +. d.d_major_words -. d.d_promoted_words

let delta_fields d =
  [
    ("alloc_w", Json.Float (alloc_words d));
    ("minor_w", Json.Float d.d_minor_words);
    ("promoted_w", Json.Float d.d_promoted_words);
    ("major_w", Json.Float d.d_major_words);
    ("minor_gcs", Json.Int d.d_minor_gcs);
    ("major_gcs", Json.Int d.d_major_gcs);
    ("heap_w", Json.Int d.d_top_heap_words);
    ("rss_kb", Json.Int d.d_maxrss_kb);
    ("utime_ms", Json.Float (1000.0 *. d.d_utime_s));
    ("stime_ms", Json.Float (1000.0 *. d.d_stime_s));
  ]

(* Flows other domains ran on this domain's behalf; see {!adopt}. *)
let adopted_key : delta ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref zero_delta)

(* {2 Sampling} *)

let default_sample () =
  let st = Gc.quick_stat () in
  {
    (* quick_stat refreshes minor_words only at a minor collection *)
    minor_words = Gc.minor_words ();
    promoted_words = st.Gc.promoted_words;
    major_words = st.Gc.major_words;
    minor_gcs = st.Gc.minor_collections;
    major_gcs = st.Gc.major_collections;
    compactions = st.Gc.compactions;
    top_heap_words = st.Gc.top_heap_words;
    os = !os_source ();
  }

let source : (unit -> sample) option ref = ref None
let set_source f = source := f

(* The default sampler reads only minor words per domain; quick_stat's
   other counters and the OS readings are process-wide. *)
let adopt d =
  let d =
    if Option.is_none !source then { zero_delta with d_minor_words = d.d_minor_words } else d
  in
  let cell = Domain.DLS.get adopted_key in
  cell := add !cell d

let sample () =
  let s = match !source with Some f -> f () | None -> default_sample () in
  raise_watermark s;
  let a = !(Domain.DLS.get adopted_key) in
  if a == zero_delta then s
  else
    { s with
      minor_words = s.minor_words +. a.d_minor_words;
      promoted_words = s.promoted_words +. a.d_promoted_words;
      major_words = s.major_words +. a.d_major_words;
      minor_gcs = s.minor_gcs + a.d_minor_gcs;
      major_gcs = s.major_gcs + a.d_major_gcs;
      os = { s.os with os_utime_s = s.os.os_utime_s +. a.d_utime_s;
                       os_stime_s = s.os.os_stime_s +. a.d_stime_s } }

let reset () =
  Domain.DLS.get watermark_key := zero_watermark;
  Domain.DLS.get adopted_key := zero_delta

(* {2 Summary} *)

let summary () =
  let s = sample () in
  let w = watermark () in
  Json.Obj
    [
      ("type", Json.Str "gc");
      ("minor_words", Json.Float s.minor_words);
      ("promoted_words", Json.Float s.promoted_words);
      ("major_words", Json.Float s.major_words);
      ( "alloc_words",
        Json.Float (s.minor_words +. s.major_words -. s.promoted_words) );
      ("minor_gcs", Json.Int s.minor_gcs);
      ("major_gcs", Json.Int s.major_gcs);
      ("compactions", Json.Int s.compactions);
      ("top_heap_words", Json.Int (max s.top_heap_words w.w_top_heap_words));
      ("maxrss_kb", Json.Int (max s.os.os_maxrss_kb w.w_maxrss_kb));
      ("utime_s", Json.Float s.os.os_utime_s);
      ("stime_s", Json.Float s.os.os_stime_s);
    ]

let pp_summary ppf () =
  Format.fprintf ppf "== fpart_obs gc/resource ==@.";
  match summary () with
  | Json.Obj fields ->
    List.iter
      (fun (k, v) ->
        if k <> "type" then
          match v with
          | Json.Float f -> Format.fprintf ppf "  %-18s %.1f@." k f
          | Json.Int i -> Format.fprintf ppf "  %-18s %d@." k i
          | v -> Format.fprintf ppf "  %-18s %s@." k (Json.to_string v))
      fields
  | _ -> ()
