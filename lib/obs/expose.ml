(* Prometheus text-format exposition + strict parser.  See the .mli
   for the contract; the renderer and parser are kept in one module so
   the dialect cannot drift: the QCheck property in test_expose renders
   random instrument states and re-parses them. *)

(* --- gauge registry ------------------------------------------------ *)

type gauge = { g_help : string; g_read : unit -> float }

let gauges_mutex = Mutex.create ()
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let set_gauge name ~help read =
  Mutex.protect gauges_mutex (fun () ->
      Hashtbl.replace gauges name { g_help = help; g_read = read })

let remove_gauge name =
  Mutex.protect gauges_mutex (fun () -> Hashtbl.remove gauges name)

let clear_gauges () =
  Mutex.protect gauges_mutex (fun () -> Hashtbl.reset gauges)

let gauge_list () =
  Mutex.protect gauges_mutex (fun () ->
      Hashtbl.fold (fun name g acc -> (name, g) :: acc) gauges [])

(* --- naming -------------------------------------------------------- *)

let metric_name name =
  let b = Buffer.create (String.length name + 6) in
  Buffer.add_string b "fpart_";
  String.iter
    (fun c ->
      match c with
      | '.' | '-' | '/' | ' ' -> Buffer.add_char b '_'
      | c -> Buffer.add_char b c)
    name;
  Buffer.contents b

(* Sample values: integral values print without an exponent or
   fraction so pages stay diffable; everything else uses %.9g — enough
   significant digits that a histogram _sum of large samples survives
   the parse round-trip (plain %g keeps 6 and visibly truncates). *)
let value_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let bound_str le =
  if le = infinity then "+Inf" else value_str le

(* --- rendering ----------------------------------------------------- *)

type rendered = { r_name : string; r_lines : string list }

let counter_family name n =
  let m = metric_name name ^ "_total" in
  {
    r_name = m;
    r_lines =
      [
        Printf.sprintf "# TYPE %s counter" m;
        Printf.sprintf "%s %d" m n;
      ];
  }

let gauge_family name help v =
  let m = metric_name name in
  let help_line =
    if help = "" then []
    else [ Printf.sprintf "# HELP %s %s" m help ]
  in
  {
    r_name = m;
    r_lines =
      help_line
      @ [
          Printf.sprintf "# TYPE %s gauge" m;
          Printf.sprintf "%s %s" m (value_str v);
        ];
  }

let histogram_family name h =
  let m = metric_name name in
  let per_bucket = Metrics.bucket_totals h in
  let lines = ref [] in
  let cum = ref 0 in
  Array.iteri
    (fun i n ->
      cum := !cum + n;
      let le =
        if i < Array.length Metrics.bucket_bounds then
          Metrics.bucket_bounds.(i)
        else infinity
      in
      lines :=
        Printf.sprintf "%s_bucket{le=\"%s\"} %d" m (bound_str le) !cum
        :: !lines)
    per_bucket;
  {
    r_name = m;
    r_lines =
      Printf.sprintf "# TYPE %s histogram" m
      :: List.rev !lines
      @ [
          Printf.sprintf "%s_sum %s" m (value_str (Metrics.hist_sum h));
          Printf.sprintf "%s_count %d" m (Metrics.count h);
        ];
  }

(* Process-level gauges from one Resource sample: cheap (a
   Gc.quick_stat plus the throttled OS reading) and engine-agnostic. *)
let process_families () =
  let s = Resource.sample () in
  [
    gauge_family "process.max_rss_kb" "Peak resident set size (KiB)."
      (float_of_int s.Resource.os.Resource.os_maxrss_kb);
    gauge_family "process.top_heap_words" "Major-heap high-water (words)."
      (float_of_int s.Resource.top_heap_words);
    counter_family "process.minor_collections"
      s.Resource.minor_gcs;
    counter_family "process.major_collections"
      s.Resource.major_gcs;
    gauge_family "process.cpu_user_seconds" "Cumulative user CPU time."
      s.Resource.os.Resource.os_utime_s;
    gauge_family "process.cpu_system_seconds" "Cumulative system CPU time."
      s.Resource.os.Resource.os_stime_s;
  ]

let render () =
  let fams =
    List.map (fun (name, n) -> counter_family name n)
      (Metrics.active_counters ())
    @ List.map
        (fun h -> histogram_family (Metrics.hist_name h) h)
        (Metrics.active_histograms ())
    @ List.map
        (fun (name, g) ->
          let v = try g.g_read () with _ -> Float.nan in
          gauge_family name g.g_help v)
        (gauge_list ())
    @ process_families ()
  in
  let fams = List.sort (fun a b -> compare a.r_name b.r_name) fams in
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      List.iter
        (fun line ->
          Buffer.add_string b line;
          Buffer.add_char b '\n')
        f.r_lines)
    fams;
  Buffer.contents b

(* --- strict parser ------------------------------------------------- *)

type sample = {
  s_suffix : string;
  s_labels : (string * string) list;
  s_value : float;
}

type family = { f_name : string; f_type : string; f_samples : sample list }

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let valid_name s =
  s <> ""
  && is_name_start s.[0]
  && String.for_all is_name_char s

let ( let* ) = Result.bind

(* One sample line: NAME{labels} VALUE (labels optional).  Returns the
   full metric name (suffix not yet split off), labels and value. *)
let parse_sample_line ~lineno line =
  let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let n = String.length line in
  let rec name_end i = if i < n && is_name_char line.[i] then name_end (i + 1) else i in
  let ne = name_end 0 in
  if ne = 0 then fail "expected a metric name"
  else begin
    let name = String.sub line 0 ne in
    if not (valid_name name) then fail (Printf.sprintf "bad metric name %S" name)
    else begin
      let labels = ref [] in
      let pos = ref ne in
      let* () =
        if !pos < n && line.[!pos] = '{' then begin
          incr pos;
          let rec labels_loop () =
            if !pos >= n then fail "unterminated label set"
            else if line.[!pos] = '}' then begin
              incr pos;
              Ok ()
            end
            else begin
              let ls = !pos in
              let rec lname_end i =
                if i < n && is_name_char line.[i] then lname_end (i + 1) else i
              in
              let le = lname_end ls in
              if le = ls then fail "expected a label name"
              else if le >= n || line.[le] <> '=' then fail "expected '=' after label name"
              else if le + 1 >= n || line.[le + 1] <> '"' then
                fail "label value must be quoted"
              else begin
                let lname = String.sub line ls (le - ls) in
                let b = Buffer.create 16 in
                let rec value_loop i =
                  if i >= n then fail "unterminated label value"
                  else
                    match line.[i] with
                    | '"' -> Ok (i + 1)
                    | '\\' ->
                      if i + 1 >= n then fail "dangling escape"
                      else (
                        match line.[i + 1] with
                        | '\\' -> Buffer.add_char b '\\'; value_loop (i + 2)
                        | '"' -> Buffer.add_char b '"'; value_loop (i + 2)
                        | 'n' -> Buffer.add_char b '\n'; value_loop (i + 2)
                        | c -> fail (Printf.sprintf "bad escape \\%c" c))
                    | c -> Buffer.add_char b c; value_loop (i + 1)
                in
                let* after = value_loop (le + 2) in
                labels := (lname, Buffer.contents b) :: !labels;
                pos := after;
                if !pos < n && line.[!pos] = ',' then begin
                  incr pos;
                  labels_loop ()
                end
                else if !pos < n && line.[!pos] = '}' then labels_loop ()
                else fail "expected ',' or '}' in label set"
              end
            end
          in
          labels_loop ()
        end
        else Ok ()
      in
      if !pos >= n || line.[!pos] <> ' ' then fail "expected ' ' before the value"
      else begin
        let vstr = String.sub line (!pos + 1) (n - !pos - 1) in
        let v =
          match String.trim vstr with
          | "+Inf" -> Some infinity
          | "-Inf" -> Some neg_infinity
          | "NaN" -> Some Float.nan
          | s -> float_of_string_opt s
        in
        match v with
        | None -> fail (Printf.sprintf "bad sample value %S" vstr)
        | Some v ->
          let labels = List.rev !labels in
          let rec sorted = function
            | (a, _) :: ((b, _) :: _ as rest) ->
              if String.compare a b >= 0 then
                fail (Printf.sprintf "labels not sorted/unique at %S" b)
              else sorted rest
            | _ -> Ok ()
          in
          let* () = sorted labels in
          Ok (name, labels, v)
      end
    end
  end

let strip_suffix fam_name metric =
  if metric = fam_name then Some ""
  else
    let fl = String.length fam_name and ml = String.length metric in
    if ml > fl && String.sub metric 0 fl = fam_name then begin
      match String.sub metric fl (ml - fl) with
      | ("_bucket" | "_sum" | "_count") as s -> Some s
      | _ -> None
    end
    else None

(* Family-level invariants, checked once the family's samples are
   complete. *)
let check_family f =
  let fail msg = Error (Printf.sprintf "family %s: %s" f.f_name msg) in
  match f.f_type with
  | "counter" | "gauge" -> (
    match f.f_samples with
    | [] -> fail "no samples"
    | samples ->
      if List.exists (fun s -> s.s_suffix <> "") samples then
        fail "histogram-style sample in a scalar family"
      else if
        f.f_type = "counter"
        && List.exists (fun s -> s.s_value < 0.0) samples
      then fail "negative counter value"
      else Ok ())
  | "histogram" ->
    let buckets =
      List.filter (fun s -> s.s_suffix = "_bucket") f.f_samples
    in
    let* les =
      List.fold_left
        (fun acc s ->
          let* acc = acc in
          match List.assoc_opt "le" s.s_labels with
          | None -> fail "_bucket without an le label"
          | Some le -> (
            let le =
              match le with "+Inf" -> Some infinity | s -> float_of_string_opt s
            in
            match le with
            | None -> fail "unparseable le bound"
            | Some le -> Ok ((le, s.s_value) :: acc)))
        (Ok []) buckets
    in
    let les = List.rev les in
    let rec ascending_cumulative = function
      | (le1, c1) :: ((le2, c2) :: _ as rest) ->
        if not (le1 < le2) then fail "bucket bounds not strictly ascending"
        else if c2 < c1 then fail "cumulative bucket counts decrease"
        else ascending_cumulative rest
      | _ -> Ok ()
    in
    let* () = ascending_cumulative les in
    let* last =
      match List.rev les with
      | [] -> fail "no buckets"
      | (le, c) :: _ ->
        if le <> infinity then fail "missing le=\"+Inf\" bucket" else Ok c
    in
    let count =
      List.find_opt (fun s -> s.s_suffix = "_count") f.f_samples
    in
    let sum = List.find_opt (fun s -> s.s_suffix = "_sum") f.f_samples in
    let* () =
      match count with
      | None -> fail "missing _count"
      | Some c ->
        (* _count must equal the +Inf bucket — i.e. the sum of the
           per-bucket deltas of the cumulative series. *)
        if c.s_value <> last then
          fail
            (Printf.sprintf "_count %s <> +Inf bucket %s"
               (value_str c.s_value) (value_str last))
        else Ok ()
    in
    (match sum with None -> fail "missing _sum" | Some _ -> Ok ())
  | t -> fail (Printf.sprintf "unknown family type %S" t)

let parse text =
  let lines = String.split_on_char '\n' text in
  let fams : (string, family) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  (* current open family, samples accumulated in reverse *)
  let current = ref None in
  let close_current () =
    match !current with
    | None -> Ok ()
    | Some (name, typ, rev_samples) ->
      let f = { f_name = name; f_type = typ; f_samples = List.rev rev_samples } in
      let* () = check_family f in
      Hashtbl.replace fams name f;
      current := None;
      Ok ()
  in
  let rec go lineno = function
    | [] -> close_current ()
    | line :: rest ->
      let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
      let* () =
        if line = "" then Ok ()
        else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then
          Ok ()  (* free-form; content not validated *)
        else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
          let* () = close_current () in
          match String.split_on_char ' ' (String.sub line 7 (String.length line - 7)) with
          | [ name; typ ] ->
            if not (valid_name name) then
              fail (Printf.sprintf "bad family name %S" name)
            else if Hashtbl.mem fams name then
              fail (Printf.sprintf "duplicate family %S" name)
            else begin
              order := name :: !order;
              current := Some (name, typ, []);
              Ok ()
            end
          | _ -> fail "malformed # TYPE line"
        end
        else if String.length line >= 1 && line.[0] = '#' then
          fail "only # HELP and # TYPE comments are allowed"
        else begin
          let* metric, labels, v = parse_sample_line ~lineno line in
          match !current with
          | None -> fail (Printf.sprintf "sample %S before any # TYPE" metric)
          | Some (fname, typ, samples) -> (
            match strip_suffix fname metric with
            | None ->
              fail
                (Printf.sprintf "sample %S does not belong to open family %S"
                   metric fname)
            | Some suffix ->
              current :=
                Some
                  ( fname,
                    typ,
                    { s_suffix = suffix; s_labels = labels; s_value = v }
                    :: samples );
              Ok ())
        end
      in
      go (lineno + 1) rest
  in
  let* () = go 1 lines in
  Ok (List.rev_map (Hashtbl.find fams) !order)

(* --- consumer helpers ---------------------------------------------- *)

let family fams name = List.find_opt (fun f -> f.f_name = name) fams

let find fams name =
  match family fams name with
  | Some { f_type = "counter" | "gauge"; f_samples = [ s ]; _ } ->
    Some s.s_value
  | _ -> None

let buckets fams name =
  match family fams name with
  | Some { f_type = "histogram"; f_samples; _ } ->
    List.filter_map
      (fun s ->
        if s.s_suffix <> "_bucket" then None
        else
          match List.assoc_opt "le" s.s_labels with
          | Some "+Inf" -> Some (infinity, s.s_value)
          | Some le -> Option.map (fun b -> (b, s.s_value)) (float_of_string_opt le)
          | None -> None)
      f_samples
  | _ -> []

let hist_sample fams name suffix =
  match family fams name with
  | Some { f_type = "histogram"; f_samples; _ } ->
    Option.map
      (fun s -> s.s_value)
      (List.find_opt (fun s -> s.s_suffix = suffix) f_samples)
  | _ -> None

let hist_count fams name = hist_sample fams name "_count"
let hist_sum fams name = hist_sample fams name "_sum"

let quantile_of_buckets ~p series =
  match List.rev series with
  | [] -> Float.nan
  | (_, total) :: _ ->
    if total <= 0.0 then Float.nan
    else begin
      let target = Float.max 1.0 (Float.ceil (p *. total -. 1e-9)) in
      let finite_max =
        List.fold_left
          (fun acc (le, _) -> if le < infinity then le else acc)
          Float.nan series
      in
      let rec go = function
        | [] -> finite_max
        | (le, c) :: rest ->
          if c >= target then (if le = infinity then finite_max else le)
          else go rest
      in
      go series
    end
