module Hg = Hypergraph.Hgraph
module State = Partition.State
module Bucket = Gainbucket.Bucket_array

type limits = { lo0 : int; hi0 : int; lo1 : int; hi1 : int }

let limits_of_tolerance ~total ~tolerance =
  let slack = int_of_float (ceil (tolerance *. float_of_int total)) in
  let half = total / 2 in
  {
    lo0 = max 0 (half - slack);
    hi0 = half + slack + (total land 1);
    lo1 = max 0 (half - slack);
    hi1 = half + slack + (total land 1);
  }

type result = { initial_cut : int; final_cut : int; passes : int; moves : int }

(* One pass of FM between blocks [b0] and [b1].  Returns [(best_cut,
   retained_moves)]; [st] ends at the best prefix. *)
let run_pass st ~b0 ~b1 ~limits =
  let hg = State.hypergraph st in
  let n = Hg.num_nodes hg in
  let max_gain = max 1 (Hg.max_node_degree hg) in
  (* bucket 0: moves b0→b1; bucket 1: moves b1→b0 *)
  let buckets =
    [| Bucket.create ~cells:n ~max_gain (); Bucket.create ~cells:n ~max_gain () |]
  in
  let locked = Array.make n false in
  let in_play v =
    let b = State.block_of st v in
    b = b0 || b = b1
  in
  let dir_of v = if State.block_of st v = b0 then 0 else 1 in
  let target v = if State.block_of st v = b0 then b1 else b0 in
  let insert v =
    Bucket.insert buckets.(dir_of v) v (State.cut_gain st v (target v))
  in
  Hg.iter_nodes (fun v -> if in_play v then insert v) hg;
  let lo_of b = if b = b0 then limits.lo0 else limits.lo1 in
  let hi_of b = if b = b0 then limits.hi0 else limits.hi1 in
  let legal v =
    let from_b = State.block_of st v in
    let to_b = if from_b = b0 then b1 else b0 in
    let s = Hg.size hg v in
    State.size_of st from_b - s >= lo_of from_b
    && State.size_of st to_b + s <= hi_of to_b
  in
  (* Find the best legal move: pop illegal tops into a stash, restore the
     stash before returning so later moves can reconsider them. *)
  let select () =
    let stash = ref [] in
    let candidate dir =
      let bucket = buckets.(dir) in
      let rec go () =
        match Bucket.top_gain bucket with
        | None -> None
        | Some g ->
          let cell = Bucket.fold_top bucket ~limit:1 ~init:(-1) ~f:(fun _ c -> c) in
          if legal cell then Some (g, cell)
          else begin
            Bucket.remove bucket cell;
            stash := (dir, cell, g) :: !stash;
            go ()
          end
      in
      go ()
    in
    let c0 = candidate 0 and c1 = candidate 1 in
    let chosen =
      match (c0, c1) with
      | None, None -> None
      | Some (g, v), None | None, Some (g, v) -> Some (g, v)
      | Some (g0, v0), Some (g1, v1) ->
        if g0 > g1 then Some (g0, v0)
        else if g1 > g0 then Some (g1, v1)
        else begin
          (* tie: prefer the move that improves size balance most *)
          let imbalance v =
            let s = Hg.size hg v in
            let from_b = State.block_of st v in
            let to_b = if from_b = b0 then b1 else b0 in
            abs (State.size_of st from_b - s - (State.size_of st to_b + s))
          in
          if imbalance v0 <= imbalance v1 then Some (g0, v0) else Some (g1, v1)
        end
    in
    List.iter (fun (dir, cell, g) -> Bucket.insert buckets.(dir) cell g) !stash;
    chosen
  in
  (* Re-derive the gain of every unlocked in-play neighbour of [v]. *)
  let update_neighbours v =
    Array.iter
      (fun e ->
        Array.iter
          (fun u ->
            if u <> v && (not locked.(u)) && in_play u then begin
              let d = dir_of u in
              if Bucket.mem buckets.(d) u then
                Bucket.update buckets.(d) u (State.cut_gain st u (target u))
            end)
          (Hg.pins hg e))
      (Hg.nets_of hg v)
  in
  let trail = ref [] in
  let n_moves = ref 0 in
  let best_cut = ref (State.cut_size st) in
  let best_prefix = ref 0 in
  let best_imbalance = ref (abs (State.size_of st b0 - State.size_of st b1)) in
  let continue = ref true in
  while !continue do
    match select () with
    | None -> continue := false
    | Some (_, v) ->
      let from_b = State.block_of st v in
      Bucket.remove buckets.(dir_of v) v;
      State.move st v (if from_b = b0 then b1 else b0);
      locked.(v) <- true;
      trail := (v, from_b) :: !trail;
      incr n_moves;
      update_neighbours v;
      let cut = State.cut_size st in
      let imb = abs (State.size_of st b0 - State.size_of st b1) in
      if cut < !best_cut || (cut = !best_cut && imb < !best_imbalance) then begin
        best_cut := cut;
        best_imbalance := imb;
        best_prefix := !n_moves
      end
  done;
  (* rewind to the best prefix *)
  let rec rewind i = function
    | [] -> ()
    | (v, from_b) :: rest ->
      if i > !best_prefix then begin
        State.move st v from_b;
        rewind (i - 1) rest
      end
  in
  rewind !n_moves !trail;
  (!best_cut, !best_prefix)

let refine st ~block0 ~block1 ~limits ~max_passes =
  if block0 = block1 then invalid_arg "Fm.refine: blocks coincide";
  if block0 < 0 || block0 >= State.k st || block1 < 0 || block1 >= State.k st then
    invalid_arg "Fm.refine: block out of range";
  let initial_cut = State.cut_size st in
  let total_moves = ref 0 in
  let passes = ref 0 in
  let prev_cut = ref initial_cut in
  let continue = ref true in
  while !continue && !passes < max_passes do
    incr passes;
    let cut, moves = run_pass st ~b0:block0 ~b1:block1 ~limits in
    total_moves := !total_moves + moves;
    if cut >= !prev_cut || moves = 0 then continue := false;
    prev_cut := min !prev_cut cut
  done;
  {
    initial_cut;
    final_cut = State.cut_size st;
    passes = !passes;
    moves = !total_moves;
  }
