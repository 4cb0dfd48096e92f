type family = XC2000 | XC3000

type t = { dev_name : string; family : family; s_ds : int; t_max : int }

let xc2064 = { dev_name = "XC2064"; family = XC2000; s_ds = 64; t_max = 58 }
let xc2018 = { dev_name = "XC2018"; family = XC2000; s_ds = 100; t_max = 74 }
let xc3020 = { dev_name = "XC3020"; family = XC3000; s_ds = 64; t_max = 64 }
let xc3030 = { dev_name = "XC3030"; family = XC3000; s_ds = 100; t_max = 80 }
let xc3042 = { dev_name = "XC3042"; family = XC3000; s_ds = 144; t_max = 96 }
let xc3064 = { dev_name = "XC3064"; family = XC3000; s_ds = 224; t_max = 120 }
let xc3090 = { dev_name = "XC3090"; family = XC3000; s_ds = 320; t_max = 144 }

(* Virtual scale devices: not in the paper (whose largest part has 320
   CLBs), but the 10^5–10^6-cell regime of the multilevel engine needs
   device capacities in proportion, or every run degenerates into
   hundreds of blocks.  Capacities follow the XC3000 shape (pin count
   ~ a third of the CLB count at the V1250 scale, flatter above). *)
let v1250 = { dev_name = "V1250"; family = XC3000; s_ds = 1250; t_max = 600 }
let v12500 = { dev_name = "V12500"; family = XC3000; s_ds = 12500; t_max = 2048 }

(* The paper's four devices first, then the rest of the two families,
   then the virtual scale devices. *)
let catalog =
  [ xc3020; xc3042; xc3090; xc2064; xc2018; xc3030; xc3064; v1250; v12500 ]

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun d -> String.lowercase_ascii d.dev_name = name) catalog

let s_max d ~delta =
  if not (delta > 0.0 && delta <= 1.0) then
    invalid_arg "Device.s_max: delta out of (0,1]";
  int_of_float (float_of_int d.s_ds *. delta)

let paper_delta d = match d.family with XC2000 -> 1.0 | XC3000 -> 0.9

let ff_per_clb d = match d.family with XC2000 -> 1 | XC3000 -> 2

let ff_max d ~delta = Some (ff_per_clb d * s_max d ~delta)

let feasible d ~delta ~size ~pins = size <= s_max d ~delta && pins <= d.t_max

let ceil_div a b = (a + b - 1) / b

(* The logic term divides by the *real* derated capacity [S_ds * delta]
   (not the floored S_MAX): this reproduces every M printed in the
   paper's Tables 2-5, including s13207/XC3020 where M = ceil(915/57.6)
   = 16 even though 16 blocks of floor(57.6) = 57 CLBs cannot actually
   hold 915 CLBs. *)
let lower_bound d ~delta ~total_size ~total_pads =
  if not (delta > 0.0 && delta <= 1.0) then
    invalid_arg "Device.lower_bound: delta out of (0,1]";
  let s_cap = float_of_int d.s_ds *. delta in
  let s = int_of_float (ceil (float_of_int total_size /. s_cap)) in
  let t = ceil_div total_pads d.t_max in
  max s t

let io_critical d ~delta ~total_size ~total_pads =
  let s_cap = float_of_int d.s_ds *. delta in
  let s = int_of_float (ceil (float_of_int total_size /. s_cap)) in
  let t = ceil_div total_pads d.t_max in
  s <= t

let pp ppf d =
  Format.fprintf ppf "%s(S_ds=%d, T_MAX=%d)" d.dev_name d.s_ds d.t_max
