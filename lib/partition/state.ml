module Hg = Hypergraph.Hgraph

type t = {
  hg : Hg.t;
  k : int;
  block_of : int array;
  block_size : int array;
  block_flops : int array;
  block_pads : int array;
  block_pins : int array;
  block_cells : int array;
  net_cnt : int array;  (* net [e]'s pins in block [i] at [e * k + i] *)
  net_span : int array;
  mutable cut : int;
  mutable t_sum : int;
}

let bool_to_int b = if b then 1 else 0

(* A net contributes one pin to a block iff it has a pin there and either
   reaches a pad somewhere or spans >= 2 blocks (DESIGN.md §7). *)
let contrib ~pad cnt span = if cnt > 0 && (pad || span >= 2) then 1 else 0

(* A net's span after one of its pins moves from a block holding
   [from_cnt] of them to one holding [to_cnt]. *)
let span_after ~from_cnt ~to_cnt span =
  span - bool_to_int (from_cnt = 1) + bool_to_int (to_cnt = 0)

let create hg ~k ~assign =
  if k < 1 then invalid_arg "State.create: k < 1";
  let n = Hg.num_nodes hg in
  let m = Hg.num_nets hg in
  let block_of = Array.init n assign in
  Array.iteri
    (fun v b ->
      if b < 0 || b >= k then
        invalid_arg (Printf.sprintf "State.create: node %d assigned to block %d" v b))
    block_of;
  let block_size = Array.make k 0 in
  let block_flops = Array.make k 0 in
  let block_pads = Array.make k 0 in
  let block_pins = Array.make k 0 in
  let block_cells = Array.make k 0 in
  for v = 0 to n - 1 do
    let b = block_of.(v) in
    block_size.(b) <- block_size.(b) + Hg.size hg v;
    block_flops.(b) <- block_flops.(b) + Hg.flops hg v;
    block_cells.(b) <- block_cells.(b) + 1;
    if Hg.is_pad hg v then block_pads.(b) <- block_pads.(b) + 1
  done;
  let net_cnt = Array.make (m * k) 0 in
  let net_span = Array.make m 0 in
  let cut = ref 0 in
  let t_sum = ref 0 in
  for e = 0 to m - 1 do
    let base = e * k in
    let pins = Hg.pins hg e in
    let span = ref 0 in
    for j = 0 to Array.length pins - 1 do
      let i = base + block_of.(pins.(j)) in
      if net_cnt.(i) = 0 then incr span;
      net_cnt.(i) <- net_cnt.(i) + 1
    done;
    let span = !span in
    net_span.(e) <- span;
    if span >= 2 then incr cut;
    let pad = Hg.net_has_pad hg e in
    if pad || span >= 2 then
      for b = 0 to k - 1 do
        let c = contrib ~pad net_cnt.(base + b) span in
        block_pins.(b) <- block_pins.(b) + c;
        t_sum := !t_sum + c
      done
  done;
  {
    hg;
    k;
    block_of;
    block_size;
    block_flops;
    block_pads;
    block_pins;
    block_cells;
    net_cnt;
    net_span;
    cut = !cut;
    t_sum = !t_sum;
  }

let copy t =
  {
    t with
    block_of = Array.copy t.block_of;
    block_size = Array.copy t.block_size;
    block_flops = Array.copy t.block_flops;
    block_pads = Array.copy t.block_pads;
    block_pins = Array.copy t.block_pins;
    block_cells = Array.copy t.block_cells;
    net_cnt = Array.copy t.net_cnt;
    net_span = Array.copy t.net_span;
  }

let hypergraph t = t.hg
let k t = t.k
let block_of t v = t.block_of.(v)
let size_of t i = t.block_size.(i)
let flops_of t i = t.block_flops.(i)
let pins_of t i = t.block_pins.(i)
let pads_of t i = t.block_pads.(i)
let cells_of t i = t.block_cells.(i)
let cut_size t = t.cut
let total_pins t = t.t_sum
let net_count t e i = t.net_cnt.((e * t.k) + i)
let net_span t e = t.net_span.(e)

let nodes_of_block t i =
  let out = ref [] in
  for v = Array.length t.block_of - 1 downto 0 do
    if t.block_of.(v) = i then out := v :: !out
  done;
  !out

let assignment t = Array.copy t.block_of

let move ?on_net t v b =
  if b < 0 || b >= t.k then invalid_arg "State.move: block out of range";
  let a = t.block_of.(v) in
  if a <> b then begin
    let sz = Hg.size t.hg v in
    let ff = Hg.flops t.hg v in
    t.block_size.(a) <- t.block_size.(a) - sz;
    t.block_size.(b) <- t.block_size.(b) + sz;
    t.block_flops.(a) <- t.block_flops.(a) - ff;
    t.block_flops.(b) <- t.block_flops.(b) + ff;
    t.block_cells.(a) <- t.block_cells.(a) - 1;
    t.block_cells.(b) <- t.block_cells.(b) + 1;
    if Hg.is_pad t.hg v then begin
      t.block_pads.(a) <- t.block_pads.(a) - 1;
      t.block_pads.(b) <- t.block_pads.(b) + 1
    end;
    let cnt = t.net_cnt and k = t.k in
    Array.iter
      (fun e ->
        let ia = (e * k) + a and ib = (e * k) + b in
        let ca = cnt.(ia) and cb = cnt.(ib) in
        let span = t.net_span.(e) in
        let pad = Hg.net_has_pad t.hg e in
        let ca' = ca - 1 and cb' = cb + 1 in
        let span' = span_after ~from_cnt:ca ~to_cnt:cb span in
        (* Only blocks [a] and [b] can change pin contribution: any third
           block with pins on [e] sees span >= 2 both before and after. *)
        let da = contrib ~pad ca' span' - contrib ~pad ca span in
        let db = contrib ~pad cb' span' - contrib ~pad cb span in
        t.block_pins.(a) <- t.block_pins.(a) + da;
        t.block_pins.(b) <- t.block_pins.(b) + db;
        t.t_sum <- t.t_sum + da + db;
        t.cut <- t.cut + bool_to_int (span' >= 2) - bool_to_int (span >= 2);
        cnt.(ia) <- ca';
        cnt.(ib) <- cb';
        t.net_span.(e) <- span';
        match on_net with
        | None -> ()
        | Some f -> f e ~ca ~cb ~span)
      (Hg.nets_of t.hg v);
    t.block_of.(v) <- b
  end

let load_assignment t a =
  if Array.length a <> Array.length t.block_of then
    invalid_arg "State.load_assignment: wrong length";
  Array.iteri (fun v b -> move t v b) a

(* Per-net gain contributions, parameterised by the net's pin counts in
   the source/destination block and its span.  [cut_gain]/[pin_gain] are
   folds of these over the mover's nets; the Sanchis delta-gain engine
   evaluates the same functions on a net's before/after counts to adjust
   neighbour gains incrementally — sharing the arithmetic here is what
   makes the two paths bit-identical. *)
let cut_gain_net ~from_cnt ~to_cnt ~span =
  let span' = span_after ~from_cnt ~to_cnt span in
  bool_to_int (span >= 2) - bool_to_int (span' >= 2)

let pin_gain_net ~pad ~from_cnt ~to_cnt ~span =
  let span' = span_after ~from_cnt ~to_cnt span in
  let da = contrib ~pad (from_cnt - 1) span' - contrib ~pad from_cnt span in
  let db = contrib ~pad (to_cnt + 1) span' - contrib ~pad to_cnt span in
  -da - db

let cut_gain t v b =
  let a = t.block_of.(v) in
  if a = b then 0
  else
    Array.fold_left
      (fun acc e ->
        acc
        + cut_gain_net ~from_cnt:(net_count t e a) ~to_cnt:(net_count t e b)
            ~span:t.net_span.(e))
      0 (Hg.nets_of t.hg v)

let pin_gain t v b =
  let a = t.block_of.(v) in
  if a = b then 0
  else
    Array.fold_left
      (fun acc e ->
        acc
        + pin_gain_net ~pad:(Hg.net_has_pad t.hg e) ~from_cnt:(net_count t e a)
            ~to_cnt:(net_count t e b) ~span:t.net_span.(e))
      0 (Hg.nets_of t.hg v)

(* The destination's share of [pin_gain_net], negated: the [db] term
   [move] adds to [block_pins.(b)] on this net. *)
let pin_change t v b =
  let a = t.block_of.(v) in
  if a = b then 0
  else
    Array.fold_left
      (fun acc e ->
        let from_cnt = net_count t e a and cb = net_count t e b in
        let span = t.net_span.(e) in
        let pad = Hg.net_has_pad t.hg e in
        let span' = span_after ~from_cnt ~to_cnt:cb span in
        acc + contrib ~pad (cb + 1) span' - contrib ~pad cb span)
      0 (Hg.nets_of t.hg v)

let check t =
  let fresh = create t.hg ~k:t.k ~assign:(fun v -> t.block_of.(v)) in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let arr_eq name a b =
    let rec go i =
      if i >= Array.length a then Ok ()
      else if a.(i) <> b.(i) then fail "%s differs at %d: cached %d vs fresh %d" name i a.(i) b.(i)
      else go (i + 1)
    in
    go 0
  in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  arr_eq "block_size" t.block_size fresh.block_size
  >>= fun () -> arr_eq "block_flops" t.block_flops fresh.block_flops
  >>= fun () -> arr_eq "block_pads" t.block_pads fresh.block_pads
  >>= fun () -> arr_eq "block_pins" t.block_pins fresh.block_pins
  >>= fun () -> arr_eq "block_cells" t.block_cells fresh.block_cells
  >>= fun () -> arr_eq "net_span" t.net_span fresh.net_span
  >>= fun () ->
  if t.cut <> fresh.cut then fail "cut: cached %d vs fresh %d" t.cut fresh.cut
  else if t.t_sum <> fresh.t_sum then fail "t_sum: cached %d vs fresh %d" t.t_sum fresh.t_sum
  else
    let rec nets e =
      if e >= Hg.num_nets t.hg then Ok ()
      else if Array.sub t.net_cnt (e * t.k) t.k <> Array.sub fresh.net_cnt (e * t.k) t.k
      then fail "net_cnt differs on net %d" e
      else nets (e + 1)
    in
    nets 0
