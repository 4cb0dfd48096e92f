(* Domain-safety layout: an instrument handle is interned once (under
   [intern_mutex], since dynamically named counters can be created from
   worker domains) but its storage is one cell *per domain*, held in
   domain-local storage.  Increments and observations touch only the
   calling domain's cell, so the hot paths stay unsynchronized; a pool
   joins worker activity back into the caller's cells through
   {!snapshot_and_reset} / {!merge}. *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type ccell = { mutable n : int }

(* Exposition buckets: one fixed ladder shared by every histogram
   (durations in milliseconds), so the Prometheus families rendered by
   {!Expose} are comparable across instruments and across engines.
   [bucket_index x] names the first bound >= x, or [nbounds] (the +Inf
   bucket) when x exceeds the ladder. *)
let bucket_bounds =
  [|
    0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0;
    2500.0; 5000.0; 10000.0; 30000.0;
  |]

let nbounds = Array.length bucket_bounds

let bucket_index x =
  let rec go i =
    if i >= nbounds then nbounds
    else if x <= bucket_bounds.(i) then i
    else go (i + 1)
  in
  go 0

(* A histogram cell keeps two views of its stream:

   - lifetime aggregates ([total_count], [total_sum], per-bucket
     [total_buckets]) that grow monotonically — what a Prometheus
     scrape must see, and O(1) memory however long the daemon lives;
   - a bounded ring of the most recent {!window_capacity} samples, the
     basis for {!quantile}/{!hist_max} — so a long-lived daemon's p95
     reflects current behaviour instead of averaging over its whole
     uptime.

   Samples evicted from the ring are folded into [ev_*] aggregates so a
   cross-domain snapshot can transfer exactly what the cell saw:
   lifetime = evicted aggregates + ring contents, always. *)
type hcell = {
  mutable samples : float array;
  mutable len : int;  (* valid samples in the ring, <= window_capacity *)
  mutable pos : int;  (* next write slot once the ring is full *)
  mutable total_count : int;
  mutable total_sum : float;
  mutable total_buckets : int array;  (* length nbounds + 1; last = +Inf *)
  mutable ev_count : int;
  mutable ev_sum : float;
  mutable ev_buckets : int array;
}

let window_capacity = 4096

(* Every cell a domain creates is registered here so the domain can
   enumerate its own activity when snapshotting. *)
type local = {
  mutable lcounters : (string * ccell) list;
  mutable lhists : (string * hcell) list;
}

let local_key : local Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { lcounters = []; lhists = [] })

type counter = { c_name : string; c_cells : ccell Domain.DLS.key }
type histogram = { h_name : string; h_cells : hcell Domain.DLS.key }

let intern_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

let counter name =
  Mutex.protect intern_mutex (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c =
          {
            c_name = name;
            c_cells =
              Domain.DLS.new_key (fun () ->
                  let cell = { n = 0 } in
                  let l = Domain.DLS.get local_key in
                  l.lcounters <- (name, cell) :: l.lcounters;
                  cell);
          }
        in
        Hashtbl.add counters name c;
        c)

let ccell c = Domain.DLS.get c.c_cells
let incr c = let cell = ccell c in cell.n <- cell.n + 1
let add c k = let cell = ccell c in cell.n <- cell.n + k
let counter_value c = (ccell c).n

let histogram name =
  Mutex.protect intern_mutex (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h =
          {
            h_name = name;
            h_cells =
              Domain.DLS.new_key (fun () ->
                  let cell =
                    {
                      samples = [||];
                      len = 0;
                      pos = 0;
                      total_count = 0;
                      total_sum = 0.0;
                      total_buckets = Array.make (nbounds + 1) 0;
                      ev_count = 0;
                      ev_sum = 0.0;
                      ev_buckets = Array.make (nbounds + 1) 0;
                    }
                  in
                  let l = Domain.DLS.get local_key in
                  l.lhists <- (name, cell) :: l.lhists;
                  cell);
          }
        in
        Hashtbl.add histograms name h;
        h)

let hcell h = Domain.DLS.get h.h_cells

let happend cell x =
  cell.total_count <- cell.total_count + 1;
  cell.total_sum <- cell.total_sum +. x;
  let b = bucket_index x in
  cell.total_buckets.(b) <- cell.total_buckets.(b) + 1;
  if cell.len < window_capacity then begin
    (* still growing: the ring doubles up to the window capacity *)
    if cell.len = Array.length cell.samples then begin
      let grown =
        Array.make (min window_capacity (max 64 (2 * cell.len))) 0.0
      in
      Array.blit cell.samples 0 grown 0 cell.len;
      cell.samples <- grown
    end;
    cell.samples.(cell.len) <- x;
    cell.len <- cell.len + 1;
    cell.pos <- cell.len mod window_capacity
  end
  else begin
    (* full: evict the oldest sample into the lifetime-only aggregates *)
    let old = cell.samples.(cell.pos) in
    cell.ev_count <- cell.ev_count + 1;
    cell.ev_sum <- cell.ev_sum +. old;
    let ob = bucket_index old in
    cell.ev_buckets.(ob) <- cell.ev_buckets.(ob) + 1;
    cell.samples.(cell.pos) <- x;
    cell.pos <- (cell.pos + 1) mod window_capacity
  end

let observe h x = if Atomic.get enabled_flag then happend (hcell h) x

let count h = (hcell h).total_count

let hist_sum h = (hcell h).total_sum

let bucket_totals h = Array.copy (hcell h).total_buckets

let window_count h = (hcell h).len

let sorted_samples cell =
  let a = Array.sub cell.samples 0 cell.len in
  Array.sort compare a;
  a

let quantile h p =
  let cell = hcell h in
  if cell.len = 0 then Float.nan
  else begin
    let a = sorted_samples cell in
    (* Nearest rank: the ⌈p·N⌉-th smallest sample, with the endpoints
       pinned (p ≤ 0 is the minimum, p ≥ 1 the maximum — ⌈0·N⌉ = 0
       names no sample) and a small tolerance on the product so binary
       rounding cannot push an exact rank over a ceiling boundary
       (0.1·30 evaluates to 3.0000000000000004; without the tolerance
       its ceiling names the 4th sample instead of the 3rd). *)
    if p <= 0.0 then a.(0)
    else if p >= 1.0 then a.(cell.len - 1)
    else begin
      let rank = int_of_float (Float.ceil ((p *. float_of_int cell.len) -. 1e-9)) in
      a.(max 0 (min (cell.len - 1) (rank - 1)))
    end
  end

let hist_max h =
  let cell = hcell h in
  if cell.len = 0 then Float.nan
  else begin
    let m = ref cell.samples.(0) in
    for i = 1 to cell.len - 1 do
      if cell.samples.(i) > !m then m := cell.samples.(i)
    done;
    !m
  end

let hist_mean h =
  let cell = hcell h in
  if cell.total_count = 0 then Float.nan
  else cell.total_sum /. float_of_int cell.total_count

(* {2 Cross-domain snapshots} *)

(* A histogram snapshot carries the ring contents in insertion order
   plus the aggregates of the samples the window already evicted —
   together they account for every observation the cell saw, and when
   nothing was evicted the merge replays the exact sample stream, so a
   [--jobs n] run's totals stay bit-identical to a sequential run's. *)
type hist_snap = {
  hs_recent : float array;  (* window contents, oldest first *)
  hs_ev_count : int;
  hs_ev_sum : float;
  hs_ev_buckets : int array;
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_histograms : (string * hist_snap) list;
}

let ring_in_order (cell : hcell) =
  if cell.len < window_capacity then Array.sub cell.samples 0 cell.len
  else
    Array.init window_capacity (fun i ->
        cell.samples.((cell.pos + i) mod window_capacity))

let clear_hcell (cell : hcell) =
  cell.len <- 0;
  cell.pos <- 0;
  cell.total_count <- 0;
  cell.total_sum <- 0.0;
  Array.fill cell.total_buckets 0 (nbounds + 1) 0;
  cell.ev_count <- 0;
  cell.ev_sum <- 0.0;
  Array.fill cell.ev_buckets 0 (nbounds + 1) 0

let snapshot_and_reset () =
  let l = Domain.DLS.get local_key in
  let cs =
    List.filter_map
      (fun (name, (cell : ccell)) ->
        if cell.n = 0 then None
        else begin
          let n = cell.n in
          cell.n <- 0;
          Some (name, n)
        end)
      l.lcounters
  in
  let hs =
    List.filter_map
      (fun (name, (cell : hcell)) ->
        if cell.total_count = 0 then None
        else begin
          let s =
            {
              hs_recent = ring_in_order cell;
              hs_ev_count = cell.ev_count;
              hs_ev_sum = cell.ev_sum;
              hs_ev_buckets = Array.copy cell.ev_buckets;
            }
          in
          clear_hcell cell;
          Some (name, s)
        end)
      l.lhists
  in
  { snap_counters = cs; snap_histograms = hs }

let merge snap =
  List.iter (fun (name, n) -> add (counter name) n) snap.snap_counters;
  List.iter
    (fun (name, s) ->
      (* re-gating on [enabled] would drop samples legitimately recorded
         while the flag was on in the producing domain *)
      let cell = hcell (histogram name) in
      Array.iter (happend cell) s.hs_recent;
      (* samples the producer's window already dropped: lifetime-only *)
      cell.total_count <- cell.total_count + s.hs_ev_count;
      cell.total_sum <- cell.total_sum +. s.hs_ev_sum;
      cell.ev_count <- cell.ev_count + s.hs_ev_count;
      cell.ev_sum <- cell.ev_sum +. s.hs_ev_sum;
      Array.iteri
        (fun i n ->
          cell.total_buckets.(i) <- cell.total_buckets.(i) + n;
          cell.ev_buckets.(i) <- cell.ev_buckets.(i) + n)
        s.hs_ev_buckets)
    snap.snap_histograms

(* {2 Reporting (calling domain's cells)} *)

let interned tbl =
  Mutex.protect intern_mutex (fun () ->
      Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])

let active_counters () =
  interned counters
  |> List.filter_map (fun c ->
         let n = counter_value c in
         if n = 0 then None else Some (c.c_name, n))
  |> List.sort compare

let active_histograms () =
  interned histograms
  |> List.filter (fun h -> count h > 0)
  |> List.sort (fun a b -> compare a.h_name b.h_name)

let hist_name h = h.h_name

let hist_summary h =
  Json.Obj
    [
      ("count", Json.Int (count h));
      ("mean", Json.Float (hist_mean h));
      ("p50", Json.Float (quantile h 0.5));
      ("p95", Json.Float (quantile h 0.95));
      ("max", Json.Float (hist_max h));
    ]

let report () =
  Json.Obj
    [
      ("type", Json.Str "metrics");
      ( "counters",
        Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) (active_counters ())) );
      ( "histograms",
        Json.Obj (List.map (fun h -> (h.h_name, hist_summary h)) (active_histograms ()))
      );
    ]

let pp_report ppf () =
  Format.fprintf ppf "== fpart_obs metrics ==@.";
  let cs = active_counters () and hs = active_histograms () in
  if cs <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter (fun (name, n) -> Format.fprintf ppf "  %-32s %12d@." name n) cs
  end;
  if hs <> [] then begin
    Format.fprintf ppf "histograms:@.";
    Format.fprintf ppf "  %-32s %9s %9s %9s %9s %9s@." "" "count" "mean" "p50"
      "p95" "max";
    List.iter
      (fun h ->
        Format.fprintf ppf "  %-32s %9d %9.3f %9.3f %9.3f %9.3f@." h.h_name
          (count h) (hist_mean h) (quantile h 0.5) (quantile h 0.95) (hist_max h))
      hs
  end;
  if cs = [] && hs = [] then Format.fprintf ppf "  (no activity recorded)@."

let reset () =
  List.iter (fun c -> (ccell c).n <- 0) (interned counters);
  List.iter (fun h -> clear_hcell (hcell h)) (interned histograms)
