module Hg = Hypergraph.Hgraph
module State = Partition.State
module Cost = Partition.Cost
module Snapshot = Partition.Snapshot
module Stack = Partition.Solution_stack
module Bucket = Gainbucket.Bucket_array
module Dirset = Gainbucket.Direction_set
module Obs = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder
module Json = Fpart_obs.Json
module Vec = Hypergraph.Vec

(* Engine workload counters (always on) and the gain distribution of
   the applied moves (recorded only while observability is enabled).
   [sanchis.delta.updates] counts bucket entries the incremental engine
   actually relinked; [sanchis.delta.avoided] counts (neighbour,
   direction) pairs whose accumulated delta was zero, so no relink was
   needed. *)
let c_improves = Obs.counter "sanchis.improve_calls"
let c_passes = Obs.counter "sanchis.passes"
let c_moves = Obs.counter "sanchis.moves"
let c_rewound = Obs.counter "sanchis.rewound_moves"
let c_restarts = Obs.counter "sanchis.restarts"
let c_delta_updates = Obs.counter "sanchis.delta.updates"
let c_delta_avoided = Obs.counter "sanchis.delta.avoided"
let h_move_gain = Obs.histogram "sanchis.move_gain"

(* Tie-breaks score at most this many cells from the top of one bucket
   (the published configuration). *)
let scan_limit = 16

type gain_mode = Cut_gain | Pin_gain

type config = {
  gain_levels : int;
  max_passes : int;
  stack_depth : int;
  gain_mode : gain_mode;
  drift_limit : int option;
  tie_salt : int;
  bucket_discipline : Bucket.discipline;
  on_move : (State.t -> unit) option;
  on_gain_update : (State.t -> cell:int -> target:int -> gain:int -> unit) option;
}

let default_config =
  {
    gain_levels = 2;
    max_passes = 8;
    stack_depth = 4;
    gain_mode = Cut_gain;
    drift_limit = None;
    tie_salt = 0;
    bucket_discipline = Bucket.Lifo;
    on_move = None;
    on_gain_update = None;
  }

type spec = {
  active : int array;
  remainder : int option;
  lower : int array;
  upper : int array;
}

type report = {
  best : Cost.value;
  passes_run : int;
  moves_applied : int;
  moves_retained : int;
  restarts : int;
}

(* The best move of one selection round, overwritten in place as the
   scan finds better candidates ([cand_cell] = -1: none yet). *)
type candidate = {
  mutable cand_cell : int;
  mutable cand_to : int;
  mutable cand_gain : int;      (* primary gain (the bucket it came from) *)
  mutable cand_bal : int;
  cand_lookahead : int array;   (* gains at levels 2..gain_levels *)
}

(* Per-improve-call mutable context shared by all passes.  Everything
   here is sized by the active blocks ([nb]) rather than by [State.k],
   and everything a pass dirties is listed so the next pass resets only
   that. *)
type ctx = {
  st : State.t;
  hg : Hg.t;
  cfg : config;
  spec : spec;
  eval : State.t -> Cost.value;
  nb : int;                     (* number of active blocks *)
  pos : int array;              (* global block -> active index, or -1 *)
  members : int array;          (* nodes of the active blocks, ascending *)
  cells : Dirset.t;             (* cells; nb*(nb-1) dense directions *)
  pads : Dirset.t;              (* pads: size-neutral, never window-gated *)
  locked : bool array;          (* per node *)
  locked_cnt : int array;       (* net * nb + active index -> locked pins *)
  (* The cells moved (hence locked) since the last [fill_buckets], in
     move order, with their source blocks: the pass trail that the
     rewind walks back and the next fill unlocks. *)
  moved_cell : int array;
  moved_from : int array;
  mutable n_moved : int;
  (* Scratch of the delta-gain engine, reused across moves.  The
     [d_*] arrays buffer the changed-nets summary reported by
     [State.move ~on_net]; [touched]/[touch_stamp] record affected
     neighbours in first-incidence order; [delta] accumulates per
     (cell, target-index) gain changes. *)
  d_nets : int array;
  d_ca : int array;
  d_cb : int array;
  d_span : int array;
  mutable d_len : int;
  touched : int array;
  mutable touched_len : int;
  touch_stamp : int array;
  mutable stamp : int;
  delta : int array;            (* cell * nb + target index *)
  (* Selection scratch: one bucket's scanned prefix in head-first
     order, the lookahead gains of the cell being scored, the best
     candidate, and the cells popped as illegal during this selection as
     (direction, cell, gain) triples. *)
  scan : int array;
  lookahead : int array;
  best : candidate;
  stash : int Vec.t;
  (* Telemetry position: which execution of this improve call is
     running, and which pass within it (1-based; see the [pass]
     records in docs/OBSERVABILITY.md). *)
  mutable tel_execution : int;
  mutable tel_pass : int;
}

(* Directions are numbered densely in ascending (source, target) order
   of active indices, skipping the diagonal, so ascending direction ids
   keep the historical scan and merge order. *)
let dir_index ctx ai bi = (ai * (ctx.nb - 1)) + if bi < ai then bi else bi - 1

let dir_source ctx dir = dir / (ctx.nb - 1)

let dir_target ctx dir =
  let ai = dir / (ctx.nb - 1) and r = dir mod (ctx.nb - 1) in
  if r < ai then r else r + 1

let make_ctx st spec cfg eval =
  let hg = State.hypergraph st in
  let k = State.k st in
  let nb = Array.length spec.active in
  if nb < 2 then invalid_arg "Sanchis.improve: fewer than two active blocks";
  let pos = Array.make k (-1) in
  Array.iteri
    (fun i b ->
      if b < 0 || b >= k then invalid_arg "Sanchis.improve: block out of range";
      if pos.(b) >= 0 then invalid_arg "Sanchis.improve: repeated active block";
      pos.(b) <- i)
    spec.active;
  if Array.length spec.lower < k || Array.length spec.upper < k then
    invalid_arg "Sanchis.improve: lower/upper must cover all blocks";
  let n = Hg.num_nodes hg in
  let members =
    let count = ref 0 in
    for i = 0 to nb - 1 do
      count := !count + State.cells_of st spec.active.(i)
    done;
    let a = Array.make !count 0 in
    let j = ref 0 in
    for v = 0 to n - 1 do
      if pos.(State.block_of st v) >= 0 then begin
        a.(!j) <- v;
        incr j
      end
    done;
    a
  in
  let n_members = max (Array.length members) 1 in
  let max_deg = max 1 (Hg.max_node_degree hg) in
  let max_gain =
    match cfg.gain_mode with Cut_gain -> max_deg | Pin_gain -> 2 * max_deg
  in
  let directions = nb * (nb - 1) in
  let levels = max 0 (cfg.gain_levels - 1) in
  {
    st;
    hg;
    cfg;
    spec;
    eval;
    nb;
    pos;
    members;
    cells =
      Dirset.create ~discipline:cfg.bucket_discipline ~directions ~cells:n
        ~max_gain ();
    pads =
      Dirset.create ~discipline:cfg.bucket_discipline ~directions ~cells:n
        ~max_gain ();
    locked = Array.make n false;
    locked_cnt = Array.make (Hg.num_nets hg * nb) 0;
    moved_cell = Array.make n_members 0;
    moved_from = Array.make n_members 0;
    n_moved = 0;
    d_nets = Array.make max_deg 0;
    d_ca = Array.make max_deg 0;
    d_cb = Array.make max_deg 0;
    d_span = Array.make max_deg 0;
    d_len = 0;
    touched = Array.make n_members 0;
    touched_len = 0;
    touch_stamp = Array.make (max n 1) 0;
    stamp = 0;
    delta = Array.make (max (n * nb) 1) 0;
    scan = Array.make scan_limit 0;
    lookahead = Array.make levels 0;
    best =
      {
        cand_cell = -1;
        cand_to = -1;
        cand_gain = 0;
        cand_bal = 0;
        cand_lookahead = Array.make levels 0;
      };
    stash = Vec.create ();
    tel_execution = 0;
    tel_pass = 0;
  }

(* Direction (a -> b) is open when block [a] may still shed size and
   block [b] may still absorb it (block-level test, paper section 3.5:
   buckets are retired as blocks hit the move-region boundary). *)
let direction_open ctx a b =
  State.size_of ctx.st a > ctx.spec.lower.(a)
  && State.size_of ctx.st b < ctx.spec.upper.(b)

(* The open/closed state maps onto the direction set's enabled flags so
   the top index skips closed directions.  Refreshed for every
   direction at pass start and, after each applied move, only for the
   directions touching the two blocks whose sizes changed. *)
let refresh_direction ctx ai bi =
  if ai <> bi then
    Dirset.set_enabled ctx.cells (dir_index ctx ai bi)
      (direction_open ctx ctx.spec.active.(ai) ctx.spec.active.(bi))

let refresh_all_directions ctx =
  for ai = 0 to ctx.nb - 1 do
    for bi = 0 to ctx.nb - 1 do
      refresh_direction ctx ai bi
    done
  done

let refresh_directions_of ctx a b =
  let pa = ctx.pos.(a) and pb = ctx.pos.(b) in
  for i = 0 to ctx.nb - 1 do
    refresh_direction ctx pa i;
    refresh_direction ctx i pa;
    refresh_direction ctx pb i;
    refresh_direction ctx i pb
  done

(* Exact per-cell size legality (matters for weighted cells).  Pads are
   size-neutral and therefore always legal: on I/O-critical designs the
   terminals must keep migrating even when the size windows have closed
   a direction for logic cells. *)
let cell_legal ctx v b =
  let s = Hg.size ctx.hg v in
  s = 0
  ||
  let a = State.block_of ctx.st v in
  State.size_of ctx.st a - s >= ctx.spec.lower.(a)
  && State.size_of ctx.st b + s <= ctx.spec.upper.(b)

(* Lock-aware level-[i] lookahead gain for moving [v] from [a] to [b]:
   Krishnamurthy's formula (positive when the net frees after [i-1] more
   source-side moves, negative when the move cements a net the other
   side could still have freed), restricted to nets inside a∪b. *)
let level_gain ctx v ~a ~b ~level =
  let nb = ctx.nb in
  let ia = ctx.pos.(a) and ib = ctx.pos.(b) in
  let nets = Hg.nets_of ctx.hg v in
  let acc = ref 0 in
  for i = 0 to Array.length nets - 1 do
    let e = nets.(i) in
    let ca = State.net_count ctx.st e a and cb = State.net_count ctx.st e b in
    if ca + cb = Hg.net_degree ctx.hg e then begin
      let base = e * nb in
      if ctx.locked_cnt.(base + ia) = 0 && ca = level then incr acc;
      if ctx.locked_cnt.(base + ib) = 0 && cb = level - 1 then decr acc
    end
  done;
  !acc

let set_for ctx v = if Hg.is_pad ctx.hg v then ctx.pads else ctx.cells

(* Primary gain: classical cut gain, or the paper's future-work variant
   that scores moves by the real change in total pin count. *)
let primary_gain ctx v b =
  match ctx.cfg.gain_mode with
  | Cut_gain -> State.cut_gain ctx.st v b
  | Pin_gain -> State.pin_gain ctx.st v b

(* One net's contribution to the primary gain (the arithmetic
   [primary_gain] folds over a mover's nets). *)
let net_gain ctx ~pad ~from_cnt ~to_cnt ~span =
  match ctx.cfg.gain_mode with
  | Cut_gain -> State.cut_gain_net ~from_cnt ~to_cnt ~span
  | Pin_gain -> State.pin_gain_net ~pad ~from_cnt ~to_cnt ~span

let insert_cell ctx v =
  let ai = ctx.pos.(State.block_of ctx.st v) in
  let set = set_for ctx v in
  for bi = 0 to ctx.nb - 1 do
    if bi <> ai then
      Dirset.insert set ~dir:(dir_index ctx ai bi) v
        (primary_gain ctx v ctx.spec.active.(bi))
  done

let remove_cell ctx v =
  let ai = ctx.pos.(State.block_of ctx.st v) in
  let set = set_for ctx v in
  for bi = 0 to ctx.nb - 1 do
    if bi <> ai then Dirset.remove set ~dir:(dir_index ctx ai bi) v
  done

(* Add net [e]'s change of [u]'s gain towards active index [yi] — its
   source count going [fx_old → fx_new], its target count
   [ty_old → ty_new], the span [span → span'] — to [u]'s delta. *)
let accum ctx ~pad ~span ~span' ~base yi ~fx_old ~fx_new ~ty_old ~ty_new =
  let g_old = net_gain ctx ~pad ~from_cnt:fx_old ~to_cnt:ty_old ~span in
  let g_new = net_gain ctx ~pad ~from_cnt:fx_new ~to_cnt:ty_new ~span:span' in
  if g_new <> g_old then
    ctx.delta.(base + yi) <- ctx.delta.(base + yi) + g_new - g_old

(* Hand every bucketed gain of [u] (active index [xi]) to the hook. *)
let report_gains ctx f u xi =
  let set = set_for ctx u in
  for yi = 0 to ctx.nb - 1 do
    if yi <> xi then begin
      let dir = dir_index ctx xi yi in
      if Dirset.mem set ~dir u then
        f ctx.st ~cell:u ~target:ctx.spec.active.(yi)
          ~gain:(Dirset.gain_of set ~dir u)
    end
  done

(* {2 Delta-gain neighbour update}

   After moving [v]: a → b, only the nets of [v] changed, and for each
   such net only the counts of [a] and [b] and the span (FM's
   critical-net observation).  Pass 1 walks the buffered transitions in
   net order, marks every eligible neighbour the first time it is seen
   and accumulates, per (neighbour, target), the exact per-net gain
   difference [gain_net(after) - gain_net(before)] shared with
   [State.cut_gain]/[pin_gain].  Pass 2 applies each neighbour's total
   delta with one bucket relink per changed direction, then hands every
   bucketed gain of that neighbour to the [on_gain_update] hook.

   The relink order fixes the bucket layout, hence the move trajectory:
   neighbours in first (net, pin) incidence order, each one's
   directions in ascending active order, delta-zero pairs skipped (a
   relink to an equal gain would be [Bucket_array.update]'s no-op
   anyway).  [cli_tests/trajectory.t] pins the result. *)
let apply_deltas ctx ~v ~a ~b =
  let st = ctx.st in
  let nb = ctx.nb in
  let cut_mode = match ctx.cfg.gain_mode with Cut_gain -> true | Pin_gain -> false in
  ctx.stamp <- ctx.stamp + 1;
  ctx.touched_len <- 0;
  for i = 0 to ctx.d_len - 1 do
    let e = ctx.d_nets.(i) in
    let ca = ctx.d_ca.(i) and cb = ctx.d_cb.(i) and span = ctx.d_span.(i) in
    let span' =
      span - (if ca = 1 then 1 else 0) + (if cb = 0 then 1 else 0)
    in
    (* Quiet net: in cut mode a net spanning ≥ 3 blocks before and
       after the move contributes 0 to every neighbour gain in both
       states, so the arithmetic is skipped — but its pins are still
       marked: first-incidence order fixes the relink order, and every
       touched neighbour's gains go to the hook. *)
    let quiet = cut_mode && span >= 3 && span' >= 3 in
    let pad = Hg.net_has_pad ctx.hg e in
    let pins = Hg.pins ctx.hg e in
    for p = 0 to Array.length pins - 1 do
      let u = pins.(p) in
      if u <> v && not ctx.locked.(u) then begin
        let x = State.block_of st u in
        let xi = ctx.pos.(x) in
        if xi >= 0 then begin
          if ctx.touch_stamp.(u) <> ctx.stamp then begin
            ctx.touch_stamp.(u) <- ctx.stamp;
            ctx.touched.(ctx.touched_len) <- u;
            ctx.touched_len <- ctx.touched_len + 1
          end;
          if not quiet then begin
            (* counts of blocks other than a/b are untouched by the
               move, so the post-move state still holds their old
               values *)
            let fx_old =
              if x = a then ca
              else if x = b then cb
              else State.net_count st e x
            in
            let fx_new =
              if x = a then ca - 1 else if x = b then cb + 1 else fx_old
            in
            let base = u * nb in
            if span' <> span || x = a || x = b then
              (* the source count or the span changed: every direction
                 of [u] can shift *)
              for yi = 0 to nb - 1 do
                if yi <> xi then begin
                  let y = ctx.spec.active.(yi) in
                  let ty_old =
                    if y = a then ca
                    else if y = b then cb
                    else State.net_count st e y
                  in
                  let ty_new =
                    if y = a then ca - 1
                    else if y = b then cb + 1
                    else ty_old
                  in
                  accum ctx ~pad ~span ~span' ~base yi ~fx_old ~fx_new ~ty_old
                    ~ty_new
                end
              done
            else begin
              (* critical-net fast path: with the span and [u]'s own
                 count untouched, only the targets whose counts moved —
                 [a] and [b] — can change [u]'s gains *)
              accum ctx ~pad ~span ~span' ~base ctx.pos.(a) ~fx_old ~fx_new
                ~ty_old:ca ~ty_new:(ca - 1);
              accum ctx ~pad ~span ~span' ~base ctx.pos.(b) ~fx_old ~fx_new
                ~ty_old:cb ~ty_new:(cb + 1)
            end
          end
        end
      end
    done
  done;
  let avoided = ref 0 and updates = ref 0 in
  for ti = 0 to ctx.touched_len - 1 do
    let u = ctx.touched.(ti) in
    let xi = ctx.pos.(State.block_of st u) in
    let set = set_for ctx u in
    let base = u * nb in
    for yi = 0 to nb - 1 do
      if yi <> xi then begin
        let d = ctx.delta.(base + yi) in
        if d = 0 then incr avoided
        else begin
          ctx.delta.(base + yi) <- 0;
          let dir = dir_index ctx xi yi in
          if Dirset.mem set ~dir u then begin
            Dirset.update set ~dir u (Dirset.gain_of set ~dir u + d);
            incr updates
          end
        end
      end
    done;
    match ctx.cfg.on_gain_update with
    | None -> ()
    | Some f -> report_gains ctx f u xi
  done;
  Obs.add c_delta_avoided !avoided;
  Obs.add c_delta_updates !updates

(* Lexicographic comparison of two lookahead vectors (equal length by
   construction). *)
let compare_lookahead x y =
  let c = ref 0 and i = ref 0 in
  while !c = 0 && !i < Array.length x do
    c := Int.compare x.(!i) y.(!i);
    incr i
  done;
  !c

(* Score [v] for the move [a] -> [b] and keep it if it beats the round's
   best: primary gain equal by construction, then the lookahead vector
   desc, balance desc, salted id asc (the salt lets multi-start runs
   break ties differently). *)
let consider ctx v ~a ~b ~gain =
  let la = ctx.lookahead in
  for i = 0 to Array.length la - 1 do
    la.(i) <- level_gain ctx v ~a ~b ~level:(i + 2)
  done;
  let bal = State.size_of ctx.st a - State.size_of ctx.st b in
  let best = ctx.best in
  let better =
    best.cand_cell < 0
    ||
    let c = compare_lookahead la best.cand_lookahead in
    if c <> 0 then c > 0
    else if bal <> best.cand_bal then bal > best.cand_bal
    else v lxor ctx.cfg.tie_salt < best.cand_cell lxor ctx.cfg.tie_salt
  in
  if better then begin
    best.cand_cell <- v;
    best.cand_to <- b;
    best.cand_gain <- gain;
    best.cand_bal <- bal;
    Array.blit la 0 best.cand_lookahead 0 (Array.length la)
  end

(* Scan the top prefix of one direction's bucket at gain [gain].  The
   prefix is scored from its last scanned cell back to the head (the
   historical order).  When [gate_cells] and no scanned cell is legal,
   the whole prefix is popped into the stash so deeper or other-gain
   cells surface next round; returns whether that happened. *)
let scan_bucket ctx ~gate_cells ~gain dir =
  let a = ctx.spec.active.(dir_source ctx dir)
  and b = ctx.spec.active.(dir_target ctx dir) in
  let set = if gate_cells then ctx.cells else ctx.pads in
  let n =
    Bucket.fold_top (Dirset.bucket set dir) ~limit:scan_limit ~init:0
      ~f:(fun i c ->
        ctx.scan.(i) <- c;
        i + 1)
  in
  let any_legal = ref false in
  for i = n - 1 downto 0 do
    let v = ctx.scan.(i) in
    if cell_legal ctx v b then begin
      any_legal := true;
      consider ctx v ~a ~b ~gain
    end
  done;
  if gate_cells && not !any_legal then begin
    for i = n - 1 downto 0 do
      let v = ctx.scan.(i) in
      Dirset.remove set ~dir v;
      Vec.push ctx.stash dir;
      Vec.push ctx.stash v;
      Vec.push ctx.stash gain
    done;
    true
  end
  else false

(* Visit the tied cell and pad directions in ascending direction order,
   a direction's cell bucket before its pad bucket. *)
let rec scan_tied ctx ~gain cds pds stashed =
  match (cds, pds) with
  | [], [] -> stashed
  | c :: ct, [] ->
    let s = scan_bucket ctx ~gate_cells:true ~gain c in
    scan_tied ctx ~gain ct [] (stashed || s)
  | [], p :: pt ->
    let s = scan_bucket ctx ~gate_cells:false ~gain p in
    scan_tied ctx ~gain [] pt (stashed || s)
  | c :: ct, p :: pt ->
    if c <= p then begin
      let s = scan_bucket ctx ~gate_cells:true ~gain c in
      scan_tied ctx ~gain ct pds (stashed || s)
    end
    else begin
      let s = scan_bucket ctx ~gate_cells:false ~gain p in
      scan_tied ctx ~gain cds pt (stashed || s)
    end

(* The directions of [set] whose top gain [top] equals the round's best. *)
let tied_dirs set top ~gain =
  match top with Some g when g = gain -> Dirset.best_dirs set | Some _ | None -> []

(* Select the next move into [ctx.best]; [false] when there is none.
   The direction sets' top indices give the globally best gain and the
   tied directions in O(tied) — no nb² rescan per round.  Cells failing
   the exact size test are popped into the stash (reinserted by the
   caller after the move). *)
let rec select ctx =
  let cg = Dirset.best_gain ctx.cells and pg = Dirset.best_gain ctx.pads in
  match (cg, pg) with
  | None, None -> false
  | _ ->
    let gain =
      match (cg, pg) with
      | Some a, Some b -> max a b
      | Some g, None | None, Some g -> g
      | None, None -> assert false
    in
    let cell_dirs = tied_dirs ctx.cells cg ~gain
    and pad_dirs = tied_dirs ctx.pads pg ~gain in
    ctx.best.cand_cell <- -1;
    let stashed = scan_tied ctx ~gain cell_dirs pad_dirs false in
    ctx.best.cand_cell >= 0 || (stashed && select ctx)

(* Offered to the solution stacks at improvement points of the first
   execution (section 3.6): semi-feasible solutions in one stack,
   infeasible ones in the other. *)
let offer_to_stacks ~k ~semi ~infeasible snap =
  let f = snap.Snapshot.value.Cost.feasible_blocks in
  if f >= k - 1 then ignore (Stack.offer semi snap)
  else ignore (Stack.offer infeasible snap)

(* Pass-start bucket build: unlock the cells the previous pass moved
   and zero their nets' lock counts (nothing else was dirtied), empty
   the buckets, and insert every active node with fresh gains in every
   direction. *)
let fill_buckets ctx =
  let nb = ctx.nb in
  for i = 0 to ctx.n_moved - 1 do
    let v = ctx.moved_cell.(i) in
    ctx.locked.(v) <- false;
    let nets = Hg.nets_of ctx.hg v in
    for j = 0 to Array.length nets - 1 do
      Array.fill ctx.locked_cnt (nets.(j) * nb) nb 0
    done
  done;
  ctx.n_moved <- 0;
  Dirset.clear ctx.cells;
  Dirset.clear ctx.pads;
  Array.iter (insert_cell ctx) ctx.members;
  refresh_all_directions ctx

(* Apply the move [v] -> [b]: pop [v] from its buckets, update the
   state (buffering the changed-nets summary for [apply_deltas]), lock
   and record it, and retire any directions the size change closed.
   Returns the source block. *)
let apply_move ctx v b =
  let st = ctx.st in
  let a = State.block_of st v in
  remove_cell ctx v;
  ctx.d_len <- 0;
  State.move st v b ~on_net:(fun e ~ca ~cb ~span ->
      let i = ctx.d_len in
      ctx.d_nets.(i) <- e;
      ctx.d_ca.(i) <- ca;
      ctx.d_cb.(i) <- cb;
      ctx.d_span.(i) <- span;
      ctx.d_len <- i + 1);
  ctx.locked.(v) <- true;
  ctx.moved_cell.(ctx.n_moved) <- v;
  ctx.moved_from.(ctx.n_moved) <- a;
  ctx.n_moved <- ctx.n_moved + 1;
  let ib = ctx.pos.(b) in
  let nets = Hg.nets_of ctx.hg v in
  for i = 0 to Array.length nets - 1 do
    let j = (nets.(i) * ctx.nb) + ib in
    ctx.locked_cnt.(j) <- ctx.locked_cnt.(j) + 1
  done;
  refresh_directions_of ctx a b;
  a

(* Put the cells popped as illegal back into their buckets: sizes
   changed, they may be legal now.  Newest stash entries first, the
   historical order.  The chosen cell can itself sit in the stash
   (stashed from one direction, selected from another): locked cells
   must never come back or they would be moved again. *)
let reinsert_stash ctx =
  for i = (Vec.length ctx.stash / 3) - 1 downto 0 do
    let dir = Vec.get ctx.stash (3 * i) and c = Vec.get ctx.stash ((3 * i) + 1) in
    if (not ctx.locked.(c)) && not (Dirset.mem ctx.cells ~dir c) then
      Dirset.insert ctx.cells ~dir c (Vec.get ctx.stash ((3 * i) + 2))
  done

(* One pass.  Returns [(best_value, retained_moves, applied_moves)];
   [ctx.st] ends at the best prefix.  When [collect] is set,
   improvement points are offered to the stacks. *)
let run_pass ctx ~collect ~semi ~infeasible =
  Obs.incr c_passes;
  ctx.tel_pass <- ctx.tel_pass + 1;
  let st = ctx.st in
  fill_buckets ctx;
  let k = State.k st in
  let telemetry = Obs.enabled () in
  let cut_before = if telemetry then State.cut_size st else 0 in
  let best_value = ref (ctx.eval st) in
  let value_before = !best_value in
  let best_prefix = ref 0 in
  let gain_sum = ref 0 in
  let rev_curve = ref [] in
  let continue = ref true in
  let drifted () =
    match ctx.cfg.drift_limit with
    | None -> false
    | Some limit -> ctx.n_moved - !best_prefix > limit
  in
  while !continue do
    if drifted () then continue := false
    else begin
      Vec.clear ctx.stash;
      if not (select ctx) then continue := false
      else begin
        let v = ctx.best.cand_cell and b = ctx.best.cand_to in
        let gain = ctx.best.cand_gain in
        Obs.incr c_moves;
        Obs.observe h_move_gain (float_of_int gain);
        if telemetry then begin
          gain_sum := !gain_sum + gain;
          rev_curve := !gain_sum :: !rev_curve
        end;
        let a = apply_move ctx v b in
        (* before the neighbour update, so every unlocked active cell
           is back in its buckets when the gains are adjusted *)
        reinsert_stash ctx;
        apply_deltas ctx ~v ~a ~b;
        (match ctx.cfg.on_move with None -> () | Some f -> f st);
        let value = ctx.eval st in
        if Cost.compare_value value !best_value < 0 then begin
          best_value := value;
          best_prefix := ctx.n_moved;
          if collect then
            offer_to_stacks ~k ~semi ~infeasible (Snapshot.capture st ~value)
        end
      end
    end
  done;
  let n_moves = ctx.n_moved in
  (* rewind to the best prefix *)
  for i = n_moves - 1 downto !best_prefix do
    State.move st ctx.moved_cell.(i) ctx.moved_from.(i)
  done;
  Obs.add c_rewound (n_moves - !best_prefix);
  if telemetry then begin
    (* Gain-prefix curve, downsampled to ≤ 128 points (every
       [curve_stride]-th cumulative gain, last move always kept) so a
       long pass stays a small record. *)
    let curve = Array.of_list (List.rev !rev_curve) in
    let n = Array.length curve in
    let stride = max 1 ((n + 127) / 128) in
    let sampled = ref [] in
    for i = n - 1 downto 0 do
      if (i + 1) mod stride = 0 || i = n - 1 then
        sampled := Json.Int curve.(i) :: !sampled
    done;
    Recorder.event
      [
        ("type", Json.Str "pass");
        ("execution", Json.Int ctx.tel_execution);
        ("pass", Json.Int ctx.tel_pass);
        ("moves", Json.Int n_moves);
        ("best_prefix", Json.Int !best_prefix);
        ("cut_before", Json.Int cut_before);
        ("cut_after", Json.Int (State.cut_size st));
        ("value_before", Cost.value_to_json value_before);
        ("value_after", Cost.value_to_json !best_value);
        ("curve_stride", Json.Int stride);
        ("gain_curve", Json.List !sampled);
      ]
  end;
  (!best_value, !best_prefix, n_moves)

(* A series of passes from the current solution; stops when a pass fails
   to improve the value. *)
let run_execution ctx ~collect ~semi ~infeasible =
  ctx.tel_execution <- ctx.tel_execution + 1;
  ctx.tel_pass <- 0;
  let passes = ref 0 in
  let applied = ref 0 in
  let retained = ref 0 in
  let best = ref (ctx.eval ctx.st) in
  let continue = ref true in
  while !continue && !passes < ctx.cfg.max_passes do
    incr passes;
    let value, kept, moved = run_pass ctx ~collect ~semi ~infeasible in
    applied := !applied + moved;
    retained := !retained + kept;
    if kept = 0 || Cost.compare_value value !best >= 0 then continue := false;
    if Cost.compare_value value !best < 0 then best := value
  done;
  (!best, !passes, !applied, !retained)

let improve st ~spec ~config ~eval =
  Obs.incr c_improves;
  let ctx = make_ctx st spec config eval in
  let depth = max config.stack_depth 1 in
  let semi = Stack.create ~depth and infeasible = Stack.create ~depth in
  let collect = config.stack_depth > 0 in
  let value0, passes0, applied0, retained0 =
    run_execution ctx ~collect ~semi ~infeasible
  in
  let global_best = ref (Snapshot.capture st ~value:value0) in
  let passes = ref passes0 in
  let applied = ref applied0 in
  let retained = ref retained0 in
  let restarts = ref 0 in
  if collect then begin
    let try_restart snap =
      (* Skip restarts that coincide with the retained solution. *)
      if not (Snapshot.same_assignment snap !global_best) then begin
        incr restarts;
        Obs.incr c_restarts;
        Snapshot.restore snap st;
        let value, p, m, r =
          run_execution ctx ~collect:false ~semi ~infeasible
        in
        passes := !passes + p;
        applied := !applied + m;
        retained := !retained + r;
        if Cost.compare_value value !global_best.Snapshot.value < 0 then
          global_best := Snapshot.capture st ~value
      end
    in
    List.iter try_restart (Stack.contents semi);
    List.iter try_restart (Stack.contents infeasible)
  end;
  Snapshot.restore !global_best st;
  {
    best = !global_best.Snapshot.value;
    passes_run = !passes;
    moves_applied = !applied;
    moves_retained = !retained;
    restarts = !restarts;
  }
