module Json = Fpart_obs.Json
module Inspect = Fpart_obs.Inspect

(* ⌈p·N⌉, with a small tolerance so binary rounding cannot push an exact
   rank over a ceiling boundary (0.1·30 evaluates to 3.0000000000000004). *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))

let percentile xs p =
  match List.sort compare xs with
  | [] -> invalid_arg "Perfbench.percentile: no samples"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if p <= 0.0 then a.(0)
    else if p >= 1.0 then a.(n - 1)
    else a.(max 0 (min (n - 1) (rank n p - 1)))

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Perfbench.median: no samples"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum_of_medians = List.fold_left (fun acc xs -> acc +. median xs) 0.0

let reportable n p = n - rank n p >= 10

let valid_name s =
  let alnum c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  let n = String.length s in
  n >= 1 && n <= 64 && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

type layer = {
  calls : int;
  total_s : float;
  self_s : float;
  self_alloc_mw : float;
  total_alloc_mw : float;
}

let layers records =
  let t = Inspect.of_records records in
  let alloc =
    List.map
      (fun m -> (m.Inspect.m_name, (m.Inspect.m_self_w, m.Inspect.m_total_w)))
      (Inspect.memspots t)
  in
  List.map
    (fun h ->
      let self_w, total_w =
        Option.value ~default:(0.0, 0.0) (List.assoc_opt h.Inspect.h_name alloc)
      in
      ( h.Inspect.h_name,
        {
          calls = h.Inspect.h_count;
          total_s = h.Inspect.h_total_ms /. 1000.0;
          self_s = h.Inspect.h_self_ms /. 1000.0;
          self_alloc_mw = self_w /. 1e6;
          total_alloc_mw = total_w /. 1e6;
        } ))
    (Inspect.hotspots t)

let layer tbl name =
  Option.value (List.assoc_opt name tbl)
    ~default:
      { calls = 0; total_s = 0.0; self_s = 0.0; self_alloc_mw = 0.0; total_alloc_mw = 0.0 }

type metric = { name : string; value : float; unit_ : string }

let result_line ~correct ~attempted ~failed metrics =
  let seen = Hashtbl.create 64 in
  let entry m =
    let bad why =
      invalid_arg (Printf.sprintf "Perfbench.result_line: %s %S" why m.name)
    in
    if not (valid_name m.name) then bad "invalid metric name";
    if Hashtbl.mem seen m.name then bad "repeated metric";
    if not (Float.is_finite m.value) then bad "non-finite value of";
    Hashtbl.add seen m.name ();
    (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj (List.map entry metrics));
       ])
