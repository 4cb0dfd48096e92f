(* Offline trace analysis: everything here is pure on a loaded record
   list, so the same code backs [bin/fpart_inspect], the CI trace
   check and the unit tests. *)

type span = {
  id : int;
  parent : int;
  track : int;
  name : string;
  t_ms : float option;
  dur_ms : float;
}

type t = {
  records : Json.t list;
  spans : span list;  (* file order *)
  by_id : (int, span) Hashtbl.t;
}

let records t = t.records
let spans t = t.spans
let fget k j = Json.member k j

let fnum k j =
  match fget k j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let fint k j = Option.bind (fget k j) Json.int
let fstr k j = Option.bind (fget k j) Json.str
let num_or d = function Some f -> f | None -> d
let int_or d = function Some i -> i | None -> d

let span_of_record j =
  match fstr "type" j with
  | Some "span" ->
    Option.map
      (fun id ->
        {
          id;
          parent = int_or 0 (fint "parent" j);
          track = int_or 0 (fint "track" j);
          name = (match fstr "name" j with Some n -> n | None -> "span");
          t_ms = fnum "t_ms" j;
          dur_ms = num_or 0.0 (fnum "dur_ms" j);
        })
      (fint "id" j)
  | _ -> None

let of_records records =
  let spans = List.filter_map span_of_record records in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> if not (Hashtbl.mem by_id s.id) then Hashtbl.add by_id s.id s) spans;
  { records; spans; by_id }

(* {2 Loading}

   A trace file is either JSONL (one record per line) or a chrome
   export ([{"traceEvents":[...]}]); sniffed by parsing.  Chrome
   events are folded back into the original record shape: ["X"] events
   become span records, ["i"] events return their [args] (which kept
   the original fields); ["C"] memory events repeat their span's
   [heap_w]/[rss_kb] and ["M"] metadata describes tracks, so both are
   dropped. *)

let record_of_chrome_event ev =
  let args = match fget "args" ev with Some (Json.Obj f) -> f | _ -> [] in
  let t_ms = num_or 0.0 (fnum "ts" ev) /. 1000.0 in
  let track = int_or 0 (fint "tid" ev) in
  match fstr "ph" ev with
  | Some "X" ->
    Some
      (Json.Obj
         (("type", Json.Str "span")
         :: ( "name",
              Json.Str (match fstr "name" ev with Some n -> n | None -> "span") )
         :: ("dur_ms", Json.Float (num_or 0.0 (fnum "dur" ev) /. 1000.0))
         :: ("track", Json.Int track)
         :: ("t_ms", Json.Float t_ms)
         :: args))
  | Some "i" ->
    Some (Json.Obj (args @ [ ("track", Json.Int track); ("t_ms", Json.Float t_ms) ]))
  | _ -> None

let load_string text =
  (* A chrome export is one JSON object covering the whole file; a
     multi-record JSONL file fails that parse on the second line, and a
     single-record JSONL object lacks [traceEvents] — so the sniff has
     no false positives. *)
  match Json.of_string (String.trim text) with
  | Ok j when fget "traceEvents" j <> None -> (
    match fget "traceEvents" j with
    | Some (Json.List evs) ->
      Ok (of_records (List.filter_map record_of_chrome_event evs))
    | _ -> Error "chrome export without a traceEvents list")
  | _ ->
    let errors = ref [] in
    let records = ref [] in
    List.iteri
      (fun i line ->
        let line = String.trim line in
        if line <> "" then
          match Json.of_string line with
          | Ok j -> records := j :: !records
          | Error e ->
            errors := Printf.sprintf "line %d: %s" (i + 1) e :: !errors)
      (String.split_on_char '\n' text);
    (match List.rev !errors with
    | [] -> Ok (of_records (List.rev !records))
    | e :: _ -> Error e)

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> load_string text
  | exception Sys_error e -> Error e

(* {2 Validation} *)

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.id then err "duplicate span id %d (%s)" s.id s.name;
      Hashtbl.replace seen s.id ())
    t.spans;
  List.iter
    (fun s ->
      if s.parent <> 0 && not (Hashtbl.mem t.by_id s.parent) then
        err "span %d (%s) has orphaned parent %d" s.id s.name s.parent;
      if s.dur_ms < 0.0 then err "span %d (%s) has negative duration" s.id s.name)
    t.spans;
  List.iter
    (fun j ->
      match fstr "type" j with
      | Some "span" | None -> ()
      | Some ty -> (
        match fint "span" j with
        | Some sid when sid <> 0 && not (Hashtbl.mem t.by_id sid) ->
          err "%s record references missing span %d" ty sid
        | _ -> ()))
    t.records;
  List.rev !errors

(* {2 Hotspots}

   Self time = a span's duration minus the time its direct children
   cover: the length of the union of their [t_ms, t_ms + dur_ms]
   intervals, clipped to the parent's.  For sequential children that is
   their summed duration; children that ran at once on pool domains
   overlap, and subtracting their sum would count the shared time twice
   and can drive the parent's self time negative.  A record without a
   begin time cannot be placed, so children of (or among) such records
   count as sequential.  The table answers "where did the wall-clock
   actually go" without the double counting an inclusive-only table
   has. *)

type hotspot = {
  h_name : string;
  h_count : int;
  h_total_ms : float;
  h_self_ms : float;
}

let is_root t s = s.parent = 0 || not (Hashtbl.mem t.by_id s.parent)

(* Direct children of every span, keyed by the parent's id. *)
let children_of t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if not (is_root t s) then
        Hashtbl.replace tbl s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.parent)))
    t.spans;
  tbl

let covered_ms s cs =
  let timed = List.filter_map (fun c -> Option.map (fun t -> (t, t +. c.dur_ms)) c.t_ms) cs in
  match s.t_ms with
  | Some lo when List.compare_lengths timed cs = 0 ->
    let hi = lo +. s.dur_ms in
    let clipped =
      List.filter_map
        (fun (a, b) ->
          let a = Float.max lo a and b = Float.min hi b in
          if b > a then Some (a, b) else None)
        timed
      |> List.sort compare
    in
    fst
      (List.fold_left
         (fun (acc, reach) (a, b) ->
           let a = Float.max a reach in
           if b > a then (acc +. (b -. a), b) else (acc, reach))
         (0.0, lo) clipped)
  | _ -> List.fold_left (fun acc c -> acc +. c.dur_ms) 0.0 cs

let self_ms children s =
  match Hashtbl.find_opt children s.id with
  | None -> s.dur_ms
  | Some cs -> s.dur_ms -. covered_ms s cs

let hotspots t =
  let children = children_of t in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = self_ms children s in
      let c, tot, slf =
        match Hashtbl.find_opt acc s.name with
        | Some (c, t, sf) -> (c, t, sf)
        | None -> (0, 0.0, 0.0)
      in
      Hashtbl.replace acc s.name (c + 1, tot +. s.dur_ms, slf +. self))
    t.spans;
  Hashtbl.fold
    (fun name (c, tot, slf) rows ->
      { h_name = name; h_count = c; h_total_ms = tot; h_self_ms = slf } :: rows)
    acc []
  |> List.sort (fun a b ->
         let c = compare b.h_self_ms a.h_self_ms in
         if c <> 0 then c else compare a.h_name b.h_name)

(* Whatever a non-leaf span does outside its children is time no leaf
   span names, so the uncovered share of the roots is exactly the
   non-leaf self time. *)
let coverage t =
  let children = children_of t in
  let root_ms, unnamed_ms =
    List.fold_left
      (fun (root, unnamed) s ->
        ( (if is_root t s then root +. s.dur_ms else root),
          if Hashtbl.mem children s.id then unnamed +. self_ms children s else unnamed ))
      (0.0, 0.0) t.spans
  in
  if root_ms > 0.0 then Some (1.0 -. (unnamed_ms /. root_ms)) else None

let pp_hotspots ?(times = true) ppf t =
  let rows = hotspots t in
  if rows = [] then Format.fprintf ppf "no spans recorded@."
  else if times then begin
    Format.fprintf ppf "%-28s %8s %12s %12s@." "phase" "count" "total_ms" "self_ms";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-28s %8d %12.3f %12.3f@." r.h_name r.h_count r.h_total_ms
          r.h_self_ms)
      rows;
    Option.iter
      (fun c ->
        Format.fprintf ppf "coverage: %.1f%% of root-span time is in leaf spans@."
          (100.0 *. c))
      (coverage t)
  end
  else begin
    (* self-time order is wall-clock order: sort by the printed
       columns so the table is deterministic *)
    Format.fprintf ppf "%-28s %8s@." "phase" "count";
    List.sort
      (fun a b ->
        let c = compare b.h_count a.h_count in
        if c <> 0 then c else compare a.h_name b.h_name)
      rows
    |> List.iter (fun r -> Format.fprintf ppf "%-28s %8d@." r.h_name r.h_count)
  end

(* {2 Memory}

   Mirrors the hotspot analysis with allocation words in place of
   wall-clock: self allocation = a span's [alloc_w] minus its direct
   children's, so the table answers "which phase allocates" without
   inclusive double counting.  The resource fields live on the span
   records themselves (appended by Recorder.span_end), so this works
   on jsonl and chrome loads alike. *)

type resource_row = {
  r_alloc_w : float;
  r_minor_gcs : int;
  r_major_gcs : int;
  r_heap_w : int;
  r_rss_kb : int;
}

(* span id -> resource fields, for span records that carry them *)
let span_resources t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun j ->
      match (fstr "type" j, fint "id" j, fnum "alloc_w" j) with
      | Some "span", Some id, Some alloc ->
        if not (Hashtbl.mem tbl id) then
          Hashtbl.add tbl id
            {
              r_alloc_w = alloc;
              r_minor_gcs = int_or 0 (fint "minor_gcs" j);
              r_major_gcs = int_or 0 (fint "major_gcs" j);
              r_heap_w = int_or 0 (fint "heap_w" j);
              r_rss_kb = int_or 0 (fint "rss_kb" j);
            }
      | _ -> ())
    t.records;
  tbl

type memspot = {
  m_name : string;
  m_count : int;
  m_total_w : float;
  m_self_w : float;
}

let memspots t =
  let res = span_resources t in
  let alloc_of id =
    match Hashtbl.find_opt res id with Some r -> r.r_alloc_w | None -> 0.0
  in
  let child_w = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 && Hashtbl.mem t.by_id s.parent then
        Hashtbl.replace child_w s.parent
          (num_or 0.0 (Hashtbl.find_opt child_w s.parent) +. alloc_of s.id))
    t.spans;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let total = alloc_of s.id in
      let self = total -. num_or 0.0 (Hashtbl.find_opt child_w s.id) in
      let c, tot, slf =
        match Hashtbl.find_opt acc s.name with
        | Some (c, t, sf) -> (c, t, sf)
        | None -> (0, 0.0, 0.0)
      in
      Hashtbl.replace acc s.name (c + 1, tot +. total, slf +. self))
    t.spans;
  Hashtbl.fold
    (fun name (c, tot, slf) rows ->
      { m_name = name; m_count = c; m_total_w = tot; m_self_w = slf } :: rows)
    acc []
  |> List.sort (fun a b ->
         let c = compare b.m_self_w a.m_self_w in
         if c <> 0 then c else compare a.m_name b.m_name)

type mem_totals = {
  t_alloc_w : float;
  t_minor_gcs : int;
  t_major_gcs : int;
  t_heap_w : int;  (* peak over all spans *)
  t_rss_kb : int;
}

(* Totals come from root spans only — nested spans' flows are already
   included in their ancestors' deltas, so summing every span would
   double count.  Peaks are max over every span (they are end-values,
   not flows). *)
let mem_totals t =
  let res = span_resources t in
  let zero =
    { t_alloc_w = 0.0; t_minor_gcs = 0; t_major_gcs = 0; t_heap_w = 0; t_rss_kb = 0 }
  in
  List.fold_left
    (fun acc s ->
      match Hashtbl.find_opt res s.id with
      | None -> acc
      | Some r ->
        let is_root = is_root t s in
        {
          t_alloc_w = (acc.t_alloc_w +. if is_root then r.r_alloc_w else 0.0);
          t_minor_gcs = (acc.t_minor_gcs + if is_root then r.r_minor_gcs else 0);
          t_major_gcs = (acc.t_major_gcs + if is_root then r.r_major_gcs else 0);
          t_heap_w = max acc.t_heap_w r.r_heap_w;
          t_rss_kb = max acc.t_rss_kb r.r_rss_kb;
        })
    zero t.spans

let has_resource_data t = Hashtbl.length (span_resources t) > 0

(* {2 Convergence}

   One row per [improve.pass] span (one per [Improve()] call), in file
   order: passes to convergence, moves applied vs retained after the
   rewind (the difference is wasted work), and the cut and value
   trajectory the span carries. *)

type conv_row = {
  c_iteration : int;
  c_step : string;
  c_blocks : int;
  c_passes : int;
  c_moves : int;
  c_retained : int;
  c_restarts : int;
  c_cut_before : int;
  c_cut_after : int;
  c_value_after : Json.t option;
}

let improve_spans t =
  List.filter
    (fun j -> fstr "type" j = Some "span" && fstr "name" j = Some "improve.pass")
    t.records

let step_of j = match fstr "kind" j with Some s -> s | None -> "?"

let pp_value_json ppf = function
  | Some (Json.Obj fields as j) -> (
    match
      ( fget "feasible_blocks" (Json.Obj fields),
        fnum "distance" (Json.Obj fields),
        fget "t_sum" (Json.Obj fields),
        fnum "io_bal" (Json.Obj fields) )
    with
    | Some (Json.Int f), Some d, Some (Json.Int t), Some e ->
      Format.fprintf ppf "(f=%d, d=%.4f, T=%d, dE=%.4f)" f d t e
    | _ -> Format.pp_print_string ppf (Json.to_string j))
  | Some j -> Format.pp_print_string ppf (Json.to_string j)
  | None -> Format.pp_print_string ppf "-"

let convergence t =
  List.map
    (fun j ->
      {
        c_iteration = int_or 0 (fint "iteration" j);
        c_step = step_of j;
        c_blocks =
          (match fget "blocks" j with Some (Json.List l) -> List.length l | _ -> 0);
        c_passes = int_or 0 (fint "passes" j);
        c_moves = int_or 0 (fint "moves" j);
        c_retained = int_or 0 (fint "moves_retained" j);
        c_restarts = int_or 0 (fint "restarts" j);
        c_cut_before = int_or 0 (fint "cut_before" j);
        c_cut_after = int_or 0 (fint "cut_after" j);
        c_value_after = fget "value_after" j;
      })
    (improve_spans t)

let pp_convergence ppf t =
  let rows = convergence t in
  if rows = [] then
    Format.fprintf ppf "no improve.pass spans (record the run with --trace)@."
  else begin
    Format.fprintf ppf "%4s %-12s %6s %6s %6s %8s %6s %10s %s@." "it" "step"
      "blocks" "passes" "moves" "retained" "waste" "cut" "value";
    List.iter
      (fun r ->
        Format.fprintf ppf "%4d %-12s %6d %6d %6d %8d %6d %4d->%-4d %a@."
          r.c_iteration r.c_step r.c_blocks r.c_passes r.c_moves r.c_retained
          (r.c_moves - r.c_retained) r.c_cut_before r.c_cut_after pp_value_json
          r.c_value_after)
      rows;
    let improves = List.length rows in
    let passes = List.fold_left (fun a r -> a + r.c_passes) 0 rows in
    let moves = List.fold_left (fun a r -> a + r.c_moves) 0 rows in
    let retained = List.fold_left (fun a r -> a + r.c_retained) 0 rows in
    Format.fprintf ppf
      "total: %d Improve() calls, %d passes, %d moves (%d retained, %d rewound)@."
      improves passes moves retained (moves - retained)
  end

(* [pp_mem] renders the memory view of a trace: self-allocation
   hotspots, per-Improve() allocation rows (the resource fields of each
   [improve.pass] span), and root-span totals. *)
let pp_mem ppf t =
  if not (has_resource_data t) then
    Format.fprintf ppf
      "no resource records (record the trace with resource telemetry enabled)@."
  else begin
    let rows = memspots t in
    Format.fprintf ppf "== allocation hotspots (self words) ==@.";
    Format.fprintf ppf "%-28s %8s %14s %14s@." "phase" "count" "total_w" "self_w";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-28s %8d %14.0f %14.0f@." r.m_name r.m_count
          r.m_total_w r.m_self_w)
      rows;
    let res = span_resources t in
    let sched =
      List.filter_map
        (fun j ->
          Option.bind (fint "id" j) (fun id ->
              Option.map
                (fun r -> (int_or 0 (fint "iteration" j), step_of j, r))
                (Hashtbl.find_opt res id)))
        (improve_spans t)
    in
    if sched <> [] then begin
      Format.fprintf ppf "== per-pass allocation (one row per Improve() call) ==@.";
      Format.fprintf ppf "%4s %-12s %14s %10s %10s %10s@." "it" "step" "alloc_w"
        "minor_gcs" "major_gcs" "rss_kb";
      List.iter
        (fun (it, step, r) ->
          Format.fprintf ppf "%4d %-12s %14.0f %10d %10d %10d@." it step
            r.r_alloc_w r.r_minor_gcs r.r_major_gcs r.r_rss_kb)
        sched
    end;
    let tot = mem_totals t in
    Format.fprintf ppf
      "totals: alloc_w=%.0f, minor_gcs=%d, major_gcs=%d, peak heap_w=%d, peak rss_kb=%d@."
      tot.t_alloc_w tot.t_minor_gcs tot.t_major_gcs tot.t_heap_w tot.t_rss_kb
  end

(* {2 Pass detail} *)

let pp_passes ppf t =
  let rows =
    List.filter_map
      (fun j ->
        match fstr "type" j with Some "pass" -> Some j | _ -> None)
      t.records
  in
  if rows = [] then Format.fprintf ppf "no pass records@."
  else begin
    Format.fprintf ppf "%5s %5s %6s %8s %8s %10s@." "exec" "pass" "moves"
      "prefix" "gmax" "cut";
    List.iter
      (fun j ->
        let curve =
          match fget "gain_curve" j with
          | Some (Json.List l) ->
            List.filter_map
              (function
                | Json.Int i -> Some (float_of_int i)
                | Json.Float f -> Some f
                | _ -> None)
              l
          | _ -> []
        in
        let gmax = List.fold_left max neg_infinity (0.0 :: curve) in
        Format.fprintf ppf "%5d %5d %6d %8d %8.1f %4d->%d@."
          (int_or 0 (fint "execution" j))
          (int_or 0 (fint "pass" j))
          (int_or 0 (fint "moves" j))
          (int_or 0 (fint "best_prefix" j))
          gmax
          (int_or 0 (fint "cut_before" j))
          (int_or 0 (fint "cut_after" j)))
      rows
  end

(* {2 Diff} *)

let conv_totals t =
  let rows = convergence t in
  ( List.length rows,
    List.fold_left (fun a r -> a + r.c_passes) 0 rows,
    List.fold_left (fun a r -> a + r.c_moves) 0 rows,
    List.fold_left (fun a r -> a + r.c_retained) 0 rows,
    match List.rev rows with r :: _ -> r.c_cut_after | [] -> 0 )

let pp_diff ?(times = true) ppf a b =
  let ra = hotspots a and rb = hotspots b in
  let names =
    List.sort_uniq compare
      (List.map (fun r -> r.h_name) ra @ List.map (fun r -> r.h_name) rb)
  in
  let find rows n = List.find_opt (fun r -> r.h_name = n) rows in
  if times then begin
    Format.fprintf ppf "%-28s %10s %10s %10s@." "phase" "self_a" "self_b" "delta";
    List.iter
      (fun n ->
        let sa = match find ra n with Some r -> r.h_self_ms | None -> 0.0 in
        let sb = match find rb n with Some r -> r.h_self_ms | None -> 0.0 in
        Format.fprintf ppf "%-28s %10.3f %10.3f %+10.3f@." n sa sb (sb -. sa))
      names
  end
  else begin
    Format.fprintf ppf "%-28s %8s %8s %6s@." "phase" "count_a" "count_b" "delta";
    List.iter
      (fun n ->
        let ca = match find ra n with Some r -> r.h_count | None -> 0 in
        let cb = match find rb n with Some r -> r.h_count | None -> 0 in
        Format.fprintf ppf "%-28s %8d %8d %+6d@." n ca cb (cb - ca))
      names
  end;
  let ia, pa, ma, rta, cuta = conv_totals a in
  let ib, pb, mb, rtb, cutb = conv_totals b in
  Format.fprintf ppf
    "convergence: improves %d -> %d, passes %d -> %d, moves %d -> %d, retained %d -> %d, final cut %d -> %d@."
    ia ib pa pb ma mb rta rtb cuta cutb

(* {2 Ledger trends}

   Per-row statistics across ledger entries.  Median/MAD rather than
   mean/stddev: bench rows are heavy-tailed (GC pauses, CPU migration)
   and a single outlier entry must not move the baseline.  The MAD is
   scaled by 1.4826 so it estimates sigma under a normal model, and the
   regression threshold is the larger of a floor ([min_delta]) and
   [mad_k] scaled MADs — a noisy benchmark earns a wide band, a stable
   one a tight band. *)

let fmedian xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let fmad xs med = fmedian (List.map (fun x -> abs_float (x -. med)) xs)

type series = {
  sr_name : string;
  sr_tag : string;  (* workload tag from entry digests; "" when absent *)
  sr_unit : string;
  sr_higher_better : bool;
  sr_values : float list;  (* entry file order *)
}

(* Entries carrying canonical digests describe a specific workload
   (netlist x config); entries without them are legacy history.  Rows
   are grouped per (name, workload) so that e.g. run/.../cut measured
   on two different netlists never pollutes one baseline. *)
let workload_tag (e : Ledger.entry) =
  match (e.Ledger.netlist_digest, e.Ledger.config_digest) with
  | None, None -> ""
  | n, c ->
    let short = function
      | Some d when String.length d > 8 -> String.sub d 0 8
      | Some d -> d
      | None -> "-"
    in
    short n ^ "/" ^ short c

let series_of_entries entries =
  let order = ref [] in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (e : Ledger.entry) ->
      let tag = workload_tag e in
      List.iter
        (fun (r : Ledger.row) ->
          let key = (r.Ledger.name, tag) in
          match Hashtbl.find_opt tbl key with
          | Some s ->
            Hashtbl.replace tbl key
              { s with sr_values = r.Ledger.value :: s.sr_values }
          | None ->
            order := key :: !order;
            Hashtbl.add tbl key
              {
                sr_name = r.Ledger.name;
                sr_tag = tag;
                sr_unit = r.Ledger.unit_;
                sr_higher_better = r.Ledger.higher_better;
                sr_values = [ r.Ledger.value ];
              })
        e.Ledger.rows)
    entries;
  List.rev_map
    (fun key ->
      let s = Hashtbl.find tbl key in
      { s with sr_values = List.rev s.sr_values })
    !order
  |> List.rev

let pp_trend ppf entries =
  let series = series_of_entries entries in
  if series = [] then Format.fprintf ppf "empty ledger@."
  else begin
    (* a workload suffix is only informative when one row name spans
       several workloads — a single-workload ledger prints bare names *)
    let ambiguous name =
      List.length (List.filter (fun s -> s.sr_name = name) series) > 1
    in
    let display s =
      if s.sr_tag <> "" && ambiguous s.sr_name then
        s.sr_name ^ " [" ^ s.sr_tag ^ "]"
      else s.sr_name
    in
    Format.fprintf ppf "%-44s %-10s %-6s %3s %12s %12s %12s %8s@." "benchmark"
      "unit" "dir" "n" "median" "mad" "latest" "delta";
    List.iter
      (fun s ->
        let med = fmedian s.sr_values in
        let mad = fmad s.sr_values med in
        let latest = List.nth s.sr_values (List.length s.sr_values - 1) in
        let delta =
          if med = 0.0 || not (Float.is_finite med) then nan
          else 100.0 *. (latest -. med) /. abs_float med
        in
        Format.fprintf ppf "%-44s %-10s %-6s %3d %12.4g %12.4g %12.4g %+7.1f%%@."
          (display s) s.sr_unit
          (if s.sr_higher_better then "higher" else "lower")
          (List.length s.sr_values) med mad latest delta)
      series;
    Format.fprintf ppf "%d entries, %d benchmark rows@." (List.length entries)
      (List.length series)
  end

type verdict = {
  v_name : string;
  v_unit : string;
  v_n : int;  (* baseline entries backing the median *)
  v_baseline : float;
  v_mad : float;
  v_latest : float;
  v_worse : float;  (* worse-positive relative delta vs baseline *)
  v_allowed : float;
  v_regressed : bool;
}

let regress ?(min_delta = 0.20) ?(mad_k = 4.0) entries =
  match List.rev entries with
  | [] | [ _ ] -> []
  | latest :: prev_rev ->
    let base = series_of_entries (List.rev prev_rev) in
    let tag = workload_tag latest in
    (* prefer history from the same workload; fall back to the
       digest-less legacy series so pre-digest ledgers keep gating *)
    let find name =
      match
        List.find_opt (fun s -> s.sr_name = name && s.sr_tag = tag) base
      with
      | Some s -> Some s
      | None ->
        if tag = "" then None
        else List.find_opt (fun s -> s.sr_name = name && s.sr_tag = "") base
    in
    List.filter_map
      (fun (r : Ledger.row) ->
        match find r.Ledger.name with
        | None -> None  (* a new benchmark has no history to regress against *)
        | Some s ->
          let med = fmedian s.sr_values in
          if med = 0.0 || not (Float.is_finite med) then None
          else begin
            let mad = fmad s.sr_values med in
            let worse =
              (if r.Ledger.higher_better then med -. r.Ledger.value
               else r.Ledger.value -. med)
              /. abs_float med
            in
            let allowed = Float.max min_delta (mad_k *. 1.4826 *. mad /. abs_float med) in
            Some
              {
                v_name = r.Ledger.name;
                v_unit = r.Ledger.unit_;
                v_n = List.length s.sr_values;
                v_baseline = med;
                v_mad = mad;
                v_latest = r.Ledger.value;
                v_worse = worse;
                v_allowed = allowed;
                v_regressed = worse > allowed;
              }
          end)
      latest.Ledger.rows

let pp_regress ppf verdicts =
  if verdicts = [] then
    Format.fprintf ppf "nothing to compare (need a ledger with >= 2 entries sharing rows)@."
  else begin
    Format.fprintf ppf "%-44s %3s %12s %12s %8s %8s  %s@." "benchmark" "n"
      "baseline" "latest" "worse" "allowed" "verdict";
    List.iter
      (fun v ->
        Format.fprintf ppf "%-44s %3d %12.4g %12.4g %+7.1f%% %7.1f%%  %s@."
          v.v_name v.v_n v.v_baseline v.v_latest (100.0 *. v.v_worse)
          (100.0 *. v.v_allowed)
          (if v.v_regressed then "REGRESSED" else "ok"))
      verdicts;
    let bad = List.length (List.filter (fun v -> v.v_regressed) verdicts) in
    Format.fprintf ppf "%d rows checked, %d regression(s)@."
      (List.length verdicts) bad
  end

(* {2 Exposition consumer: scrape}

   Rendering for [fpart_inspect scrape]: one parsed exposition page as
   a compact table.  It works on {!Expose.family} lists so a page
   fetched over HTTP and one read from a [--metrics-out] file look
   identical. *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let pp_scrape ppf (fams : Expose.family list) =
  let sorted =
    List.sort (fun a b -> compare a.Expose.f_name b.Expose.f_name) fams
  in
  let w =
    List.fold_left
      (fun w (f : Expose.family) -> max w (String.length f.f_name))
      10 sorted
  in
  List.iter
    (fun (f : Expose.family) ->
      match f.Expose.f_type with
      | "histogram" ->
        let n = Option.value ~default:0.0 (Expose.hist_count fams f.f_name) in
        if n = 0.0 then Format.fprintf ppf "%-*s  count=0@." w f.f_name
        else begin
          let s = Option.value ~default:0.0 (Expose.hist_sum fams f.f_name) in
          let series = Expose.buckets fams f.f_name in
          Format.fprintf ppf "%-*s  count=%s sum=%s p50<=%s p95<=%s@." w
            f.f_name (fmt_value n) (fmt_value s)
            (fmt_value (Expose.quantile_of_buckets ~p:0.5 series))
            (fmt_value (Expose.quantile_of_buckets ~p:0.95 series))
        end
      | _ -> (
        match f.f_samples with
        | [ smp ] ->
          Format.fprintf ppf "%-*s  %s@." w f.f_name
            (fmt_value smp.Expose.s_value)
        | _ -> ()))
    sorted
