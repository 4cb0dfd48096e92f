module Hg = Hypergraph.Hgraph
module State = Partition.State
module Bucket = Gainbucket.Bucket_array

type result = { p_side : bool array; ratio : float }

let external_b = 0
let grow = 1
let rest = 2

(* Farthest *cell* from [start] within the member set (pads make poor
   seeds: they have size 0 and a single net). *)
let far_member_cell hg ~member start =
  let seen = Array.make (Hg.num_nodes hg) false in
  let q = Queue.create () in
  seen.(start) <- true;
  Queue.add start q;
  let last_cell = ref start in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if not (Hg.is_pad hg v) then last_cell := v;
    Array.iter
      (fun e ->
        Array.iter
          (fun u ->
            if (not seen.(u)) && member u then begin
              seen.(u) <- true;
              Queue.add u q
            end)
          (Hg.pins hg e))
      (Hg.nets_of hg v)
  done;
  !last_cell

type sweep_best = { b_ratio : float; b_prefix : int; b_side : int }

let sweep hg ~member ~s_max ~t_max seed =
  let n = Hg.num_nodes hg in
  let st =
    State.create hg ~k:3 ~assign:(fun v -> if member v then rest else external_b)
  in
  State.move st seed grow;
  (* nets currently touching both scratch sides *)
  let c12 = ref 0 in
  Hg.iter_nets
    (fun e ->
      if State.net_count st e grow > 0 && State.net_count st e rest > 0 then incr c12)
    hg;
  let max_gain = max 1 (Hg.max_node_degree hg) in
  let bucket = Bucket.create ~cells:n ~max_gain () in
  Hg.iter_nodes
    (fun u -> if State.block_of st u = rest then Bucket.insert bucket u (State.cut_gain st u grow))
    hg;
  (* Per-move neighbour refresh by per-net deltas.  Every bucket cell
     sits in [rest] and gains towards [grow], so a moved cell's net
     shifts the gain of each of its bucketed pins by the same amount:
     [cut_gain_net] after minus before.  Neighbours are listed at their
     first (net, pin) incidence, whatever their net's delta, and
     relinked in that order when their total is non-zero — the order
     and the no-ops of recomputing each neighbour's gain at its first
     incidence. *)
  let delta = Array.make n 0 in
  let seen = Array.make n (-1) in
  let touched = Array.make n 0 in
  let n_touched = ref 0 in
  let moves = ref 0 in
  let on_net e ~ca ~cb ~span =
    (* [ca] pins in [rest] (the source), [cb] in [grow], before the move *)
    c12 := !c12 + Bool.to_int (ca - 1 > 0) - Bool.to_int (cb > 0 && ca > 0);
    let span' = span - Bool.to_int (ca = 1) + Bool.to_int (cb = 0) in
    let d =
      State.cut_gain_net ~from_cnt:(ca - 1) ~to_cnt:(cb + 1) ~span:span'
      - State.cut_gain_net ~from_cnt:ca ~to_cnt:cb ~span
    in
    let pins = Hg.pins hg e in
    for i = 0 to Array.length pins - 1 do
      let w = pins.(i) in
      if Bucket.mem bucket w then begin
        if seen.(w) <> !moves then begin
          seen.(w) <- !moves;
          touched.(!n_touched) <- w;
          incr n_touched
        end;
        delta.(w) <- delta.(w) + d
      end
    done
  in
  let trail = ref [] in
  let best = ref None in
  while not (Bucket.is_empty bucket) do
    let u = Bucket.fold_top bucket ~limit:1 ~init:(-1) ~f:(fun _ c -> c) in
    Bucket.remove bucket u;
    n_touched := 0;
    State.move st u grow ~on_net;
    for i = 0 to !n_touched - 1 do
      let w = touched.(i) in
      let d = delta.(w) in
      if d <> 0 then begin
        delta.(w) <- 0;
        Bucket.update bucket w (Bucket.gain_of bucket w + d)
      end
    done;
    trail := u :: !trail;
    incr moves;
    let s1 = State.size_of st grow and s2 = State.size_of st rest in
    if s1 > 0 && s2 > 0 then begin
      let ratio = float_of_int !c12 /. (float_of_int s1 *. float_of_int s2) in
      let feas1 = s1 <= s_max && State.pins_of st grow <= t_max in
      let feas2 = s2 <= s_max && State.pins_of st rest <= t_max in
      if feas1 || feas2 then begin
        let side = if feas1 then grow else rest in
        match !best with
        | Some b when b.b_ratio <= ratio -> ()
        | _ -> best := Some { b_ratio = ratio; b_prefix = !moves; b_side = side }
      end
    end
  done;
  match !best with
  | None -> None
  | Some b ->
    (* rewind the sweep to the chosen prefix *)
    let rec rewind i = function
      | [] -> ()
      | u :: more ->
        if i > b.b_prefix then begin
          State.move st u rest;
          rewind (i - 1) more
        end
    in
    rewind !moves !trail;
    let p_side = Array.init n (fun v -> State.block_of st v = b.b_side) in
    Some ({ p_side; ratio = b.b_ratio }, b.b_ratio)

let split hg ~member ~s_max ~t_max =
  (* pick a deterministic member cell to anchor the eccentric pair *)
  let start = ref (-1) in
  Hg.iter_nodes (fun v -> if !start < 0 && member v && not (Hg.is_pad hg v) then start := v) hg;
  if !start < 0 then None
  else begin
    let seed1 = far_member_cell hg ~member !start in
    let seed2 = far_member_cell hg ~member seed1 in
    let r1 = sweep hg ~member ~s_max ~t_max seed1 in
    let r2 = if seed2 <> seed1 then sweep hg ~member ~s_max ~t_max seed2 else None in
    match (r1, r2) with
    | None, None -> None
    | Some (r, _), None | None, Some (r, _) -> Some r
    | Some (ra, va), Some (rb, vb) -> Some (if va <= vb then ra else rb)
  end
