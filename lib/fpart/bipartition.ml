module Hg = Hypergraph.Hgraph
module State = Partition.State
module Cost = Partition.Cost
module Recorder = Fpart_obs.Recorder

type method_used = Used_seed_merge | Used_ratio_cut | Used_random

let method_name = function
  | Used_seed_merge -> "seed-merge"
  | Used_ratio_cut -> "ratio-cut"
  | Used_random -> "random"

let split ?(salt = 0) ?pool st ~p_block ~r_block ~params ~ctx ~step_k =
  if State.cells_of st r_block <> 0 then
    invalid_arg "Bipartition.split: r_block not empty";
  let hg = State.hypergraph st in
  (* Freeze the membership: both constructive methods and the candidate
     application must see the remainder as it is now. *)
  let frozen = Array.init (Hg.num_nodes hg) (fun v -> State.block_of st v = p_block) in
  let member v = frozen.(v) in
  let members = Hg.fold_nodes (fun acc v -> if member v then v :: acc else acc) [] hg in
  let apply p_side =
    List.iter
      (fun v -> State.move st v (if p_side.(v) then p_block else r_block))
      members
  in
  let evaluate () = Cost.evaluate params ctx st ~remainder:(Some r_block) ~step_k in
  (* The two constructive candidates only read [hg] and [frozen] (each
     builds its own scratch state), so the portfolio can evaluate them
     on two domains; the apply/compare below stays on the caller. *)
  let run_sm () =
    let sp = Recorder.span_begin "bipartition.seed_merge" in
    let r = Seed_merge.split ~salt hg ~member ~s_max:ctx.Cost.s_max ~t_max:ctx.Cost.t_max in
    Recorder.span_end sp ~attrs:[];
    r
  and run_rc () =
    let sp = Recorder.span_begin "bipartition.ratio_cut" in
    let r = Ratio_cut.split hg ~member ~s_max:ctx.Cost.s_max ~t_max:ctx.Cost.t_max in
    Recorder.span_end sp ~attrs:[];
    r
  in
  let sm, rc =
    match pool with
    | Some pool when Fpart_exec.Pool.jobs pool > 1 ->
      Fpart_exec.Pool.both pool run_sm run_rc
    | _ -> (run_sm (), run_rc ())
  in
  apply sm.Seed_merge.p_side;
  match rc with
  | None -> Used_seed_merge
  | Some rc ->
    let v_sm = evaluate () in
    apply rc.Ratio_cut.p_side;
    let v_rc = evaluate () in
    if Cost.compare_value v_sm v_rc <= 0 then begin
      apply sm.Seed_merge.p_side;
      Used_seed_merge
    end
    else Used_ratio_cut

let random_split st ~p_block ~r_block ~s_max ~rng =
  let hg = State.hypergraph st in
  let members =
    Hg.fold_nodes
      (fun acc v -> if State.block_of st v = p_block then v :: acc else acc)
      [] hg
    |> Array.of_list
  in
  Prng.Splitmix.shuffle rng members;
  let size = ref 0 in
  Array.iter
    (fun v ->
      let s = Hg.size hg v in
      if !size + s <= s_max && (s > 0 || Prng.Splitmix.bool rng) then
        size := !size + s
        (* v stays in p_block *)
      else State.move st v r_block)
    members
