module Hg = Hypergraph.Hgraph
module State = Partition.State
module Vec = Hypergraph.Vec

type result = { p_side : bool array; p_size : int; p_pins : int }

(* Scratch block indices. *)
let external_b = 0
let block_a = 1
let block_b = 2
let pool = 3

(* BFS within the member set, starting from [start]; returns the last
   node dequeued (approximately eccentric). *)
let far_member hg ~member start =
  let seen = Array.make (Hg.num_nodes hg) false in
  let q = Queue.create () in
  seen.(start) <- true;
  Queue.add start q;
  let last = ref start in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    last := v;
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
  !last

let biggest_member hg ~member ~salt =
  let best = ref (-1) in
  let best_key = ref (-1, -1, min_int) in
  Hg.iter_nodes
    (fun v ->
      if member v then begin
        (* the salted id term lets multi-start runs pick different seeds
           among equally big, equally connected candidates *)
        let key = (Hg.size hg v, Hg.node_degree hg v, -(v lxor salt)) in
        if key > !best_key then begin
          best_key := key;
          best := v
        end
      end)
    hg;
  !best

let split ?(salt = 0) hg ~member ~s_max ~t_max =
  let n = Hg.num_nodes hg in
  let seed_a = biggest_member hg ~member ~salt in
  if seed_a < 0 then invalid_arg "Seed_merge.split: empty member set";
  let st =
    State.create hg ~k:4 ~assign:(fun v -> if member v then pool else external_b)
  in
  let seed_b = far_member hg ~member seed_a in
  State.move st seed_a block_a;
  if seed_b <> seed_a then State.move st seed_b block_b;
  (* Per growing block: its frontier (pool cells on a net of the
     block, a vector compacted in place as cells leave the pool) and,
     for each frontier cell, its cached pin change [State.pin_change st
     u blk] — [absent] when the cell is not in this frontier, [stale]
     when it must be recomputed.  A cell's pin change depends only on
     the counts and spans of its own nets, which a merge into [blk]
     changes only on the merged cell's nets; a merge into the other
     block leaves it as it was (on a net that held both cells in the
     pool, the term is 1 - [blk has a pin there] before and after). *)
  let absent = min_int and stale = max_int in
  let delta = [| Array.make n absent; Array.make n absent |] in
  let frontier = [| Vec.create (); Vec.create () |] in
  let extend_frontier blk v =
    let d = delta.(blk - 1) and f = frontier.(blk - 1) in
    Array.iter
      (fun e ->
        Array.iter
          (fun u ->
            if State.block_of st u = pool then begin
              if d.(u) = absent then Vec.push f u;
              d.(u) <- stale
            end)
          (Hg.pins hg e))
      (Hg.nets_of hg v)
  in
  extend_frontier block_a seed_a;
  if seed_b <> seed_a then extend_frontier block_b seed_b;
  (* Merge score: size gained per terminal paid after the merge
     (higher is better), from the cached pin change.  A candidate is
     acceptable when it fits the size budget and keeps the pins within
     T_MAX — "merge stops when constraints are saturated" covers both
     resources.  While the block is already above the pin budget,
     pin-decreasing merges stay acceptable so a temporary overshoot can
     be absorbed.  The best candidate is the maximum of (score, -(u lxor
     salt)), a total order, so the scan order does not matter. *)
  let pick blk =
    let d = delta.(blk - 1) and f = frontier.(blk - 1) in
    let best = ref (-1) in
    let best_score = ref neg_infinity in
    let size_now = State.size_of st blk and pins_now = State.pins_of st blk in
    let live = ref 0 in
    for i = 0 to Vec.length f - 1 do
      let u = Vec.get f i in
      if State.block_of st u = pool then begin
        Vec.set f !live u;
        incr live;
        let s = size_now + Hg.size hg u in
        if s <= s_max then begin
          if d.(u) = stale then d.(u) <- State.pin_change st u blk;
          let t = max 1 (pins_now + d.(u)) in
          if t <= t_max || t < pins_now then begin
            let sc = float_of_int s /. float_of_int t in
            if sc > !best_score || (sc = !best_score && u lxor salt < !best lxor salt)
            then begin
              best_score := sc;
              best := u
            end
          end
        end
      end
    done;
    Vec.truncate f !live;
    if !best >= 0 then Some !best else None
  in
  let saturated = [| false; false |] in
  while not (saturated.(0) && saturated.(1)) do
    List.iter
      (fun blk ->
        if not saturated.(blk - 1) then
          match pick blk with
          | None -> saturated.(blk - 1) <- true
          | Some u ->
            State.move st u blk;
            extend_frontier blk u)
      [ block_a; block_b ]
  done;
  let p = if State.size_of st block_a >= State.size_of st block_b then block_a else block_b in
  let p_side = Array.init n (fun v -> State.block_of st v = p) in
  { p_side; p_size = State.size_of st p; p_pins = State.pins_of st p }
