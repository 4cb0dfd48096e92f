(* Flow-based boundary refinement between block pairs.

   For a pair of blocks adjacent in the quotient graph, extract the
   corridor of cells around their cut nets, convert it to a flow
   network (Flownet's clause expansion), and let a Dinic min-cut
   propose a bipartition of the corridor.  The proposal is applied
   only when the lexicographic solution value improves without
   increasing the global cut; otherwise the previous assignment is
   restored from a snapshot, so a refinement call can never make the
   partition worse. *)

module Hg = Hypergraph.Hgraph
module State = Partition.State
module Cost = Partition.Cost
module Snapshot = Partition.Snapshot
module Quotient = Partition.Quotient
module Obs = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder
module Json = Fpart_obs.Json

type config = {
  max_corridor : int;
  corridor_depth : int;
  max_passes : int;
}

let default_config = { max_corridor = 2048; corridor_depth = 3; max_passes = 4 }

type outcome =
  | Applied of { moves : int; cut_delta : int }
  | Restored
  | Skipped

type report = {
  pairs_tried : int;
  pairs_applied : int;
  moves_applied : int;
  passes_run : int;
}

let c_pairs = Obs.counter "flow.pairs"
let c_applied = Obs.counter "flow.applied"
let c_restored = Obs.counter "flow.restored"
let c_skipped = Obs.counter "flow.skipped"
let c_moves = Obs.counter "flow.moves"
let c_corridor = Obs.counter "flow.corridor_nodes"

(* Weight allowed to travel [src]→[dst] without leaving the feasible
   move region: [src] must keep at least [lower.(src)] and [dst] may
   hold at most [upper.(dst)].  An already-oversized destination (or a
   source at its floor) clamps to 0: nothing may enter, though the
   opposite direction stays open.  In particular a zero-headroom
   window — [upper.(dst)] equal to the current size — admits nothing,
   not even size-0 movers. *)
let headroom st ~lower ~upper ~src ~dst =
  let give = State.size_of st src - lower.(src) in
  let take = upper.(dst) - State.size_of st dst in
  max 0 (min give take)

type corridor = {
  nodes : Hg.node array;  (* members in admission order *)
  mem : bool array;       (* hypergraph node → member *)
}

(* Bounded BFS from the pair's cut nets.  Every admitted node stays
   within the side's headroom budget, so even the worst-case proposal
   (an entire side changing block) respects the feasible windows.
   Pads never enter a corridor: they are size-free but anchor the
   external I/O balance, which flow's cut objective does not model.
   Admission order is net-id then pin-array order — no randomness, so
   refinement is bit-identical across runs and worker pools. *)
let extract cfg st ~a ~b ~lower ~upper =
  let hg = State.hypergraph st in
  let n = Hg.num_nodes hg in
  let mem = Array.make n false in
  let cap_ab = headroom st ~lower ~upper ~src:a ~dst:b in
  let cap_ba = headroom st ~lower ~upper ~src:b ~dst:a in
  let w_a = ref 0 and w_b = ref 0 in
  let order = ref [] and count = ref 0 in
  let admit v =
    if mem.(v) || !count >= cfg.max_corridor || Hg.is_pad hg v then false
    else
      let blk = State.block_of st v in
      if blk <> a && blk <> b then false
      else begin
        let s = Hg.size hg v in
        let w, cap = if blk = a then (w_a, cap_ab) else (w_b, cap_ba) in
        if !w + s > cap then false
        else begin
          w := !w + s;
          mem.(v) <- true;
          order := v :: !order;
          incr count;
          true
        end
      end
  in
  let level = ref [] in
  Hg.iter_nets
    (fun e ->
      if State.net_count st e a > 0 && State.net_count st e b > 0 then
        Array.iter (fun v -> if admit v then level := v :: !level) (Hg.pins hg e))
    hg;
  let depth = ref 1 in
  while !depth < cfg.corridor_depth && !level <> [] do
    let frontier = List.rev !level in
    level := [];
    List.iter
      (fun v ->
        Array.iter
          (fun e ->
            Array.iter (fun u -> if admit u then level := u :: !level) (Hg.pins hg e))
          (Hg.nets_of hg v))
      frontier;
    incr depth
  done;
  { nodes = Array.of_list (List.rev !order); mem }

(* A corridor node still wired to its own block outside the corridor
   is a border node: pinning it to its side models the (uncut) nets
   that leave the corridor.  Pads are never corridor members, so a pad
   neighbour in the node's block also pins it. *)
let border st mem v =
  let hg = State.hypergraph st in
  let blk = State.block_of st v in
  Array.exists
    (fun e ->
      Array.exists
        (fun u -> (not mem.(u)) && State.block_of st u = blk)
        (Hg.pins hg e))
    (Hg.nets_of hg v)

let refine_pair cfg st ~a ~b ~lower ~upper ~eval =
  Obs.incr c_pairs;
  let sp = Recorder.span_begin "flow.extract" in
  let cor = extract cfg st ~a ~b ~lower ~upper in
  let corridor_nodes = Array.length cor.nodes in
  Recorder.span_end sp
    ~attrs:[ ("a", Json.Int a); ("b", Json.Int b); ("nodes", Json.Int corridor_nodes) ];
  if corridor_nodes < 2 then begin
    Obs.incr c_skipped;
    Skipped
  end
  else begin
    Obs.add c_corridor corridor_nodes;
    let hg = State.hypergraph st in
    let net = Flownet.build hg ~keep:(fun v -> cor.mem.(v)) in
    Array.iter
      (fun v ->
        if border st cor.mem v then
          if State.block_of st v = a then Flownet.attach_source net v
          else Flownet.attach_sink net v)
      cor.nodes;
    let sp = Recorder.span_begin "flow.dinic" in
    let flow = Flownet.run net in
    Recorder.span_end sp
      ~attrs:[ ("a", Json.Int a); ("b", Json.Int b); ("flow", Json.Int flow) ];
    let side = Flownet.source_side net in
    let value_before = eval st in
    let cut_before = State.cut_size st in
    let snap = Snapshot.capture st ~value:value_before in
    let sp = Recorder.span_begin "flow.apply" in
    let moves = ref 0 in
    Array.iter
      (fun v ->
        let target = if side.(v) then a else b in
        if State.block_of st v <> target then begin
          State.move st v target;
          incr moves
        end)
      cor.nodes;
    let value_after = eval st in
    let cut_after = State.cut_size st in
    let cmp = Cost.compare_value value_after value_before in
    (* Accept only strict improvement that does not grow the cut: the
       lexicographic value does not contain the cut, so the explicit
       guard is what lets a hybrid schedule promise cut(hybrid) ≤
       cut(sanchis). *)
    let accept =
      !moves > 0
      && ((cmp < 0 && cut_after <= cut_before) || (cmp = 0 && cut_after < cut_before))
    in
    if not accept then Snapshot.restore snap st;
    (* the pair's outcome: the cut and value it leaves behind *)
    let outcome =
      if Obs.enabled () then
        [
          ("cut_before", Json.Int cut_before);
          ("cut_after", Json.Int (if accept then cut_after else cut_before));
          ( "value_after",
            Cost.value_to_json (if accept then value_after else value_before) );
        ]
      else []
    in
    Recorder.span_end sp
      ~attrs:
        ([
           ("a", Json.Int a);
           ("b", Json.Int b);
           ("moves", Json.Int !moves);
           ("applied", Json.Bool accept);
         ]
        @ outcome);
    if accept then begin
      Obs.incr c_applied;
      Obs.add c_moves !moves;
      Applied { moves = !moves; cut_delta = cut_before - cut_after }
    end
    else if !moves = 0 then begin
      Obs.incr c_skipped;
      Skipped
    end
    else begin
      Obs.incr c_restored;
      Restored
    end
  end

let refine_active cfg st ~active ~lower ~upper ~eval =
  let sp = Recorder.span_begin "flow.refine" in
  let tried = ref 0 and applied = ref 0 and moved = ref 0 in
  let passes = ref 0 in
  let continue_ = ref true in
  while !continue_ && !passes < cfg.max_passes do
    incr passes;
    let wires = Quotient.wire_matrix st in
    let improved = ref false in
    let na = Array.length active in
    for i = 0 to na - 1 do
      for j = i + 1 to na - 1 do
        let a = active.(i) and b = active.(j) in
        if a <> b && wires.(a).(b) > 0 then begin
          incr tried;
          match refine_pair cfg st ~a ~b ~lower ~upper ~eval with
          | Applied { moves; _ } ->
            improved := true;
            incr applied;
            moved := !moved + moves
          | Restored | Skipped -> ()
        end
      done
    done;
    continue_ := !improved
  done;
  let report =
    {
      pairs_tried = !tried;
      pairs_applied = !applied;
      moves_applied = !moved;
      passes_run = !passes;
    }
  in
  Recorder.span_end sp
    ~attrs:
      [
        ("pairs", Json.Int report.pairs_tried);
        ("applied", Json.Int report.pairs_applied);
        ("moves", Json.Int report.moves_applied);
        ("passes", Json.Int report.passes_run);
      ];
  report
