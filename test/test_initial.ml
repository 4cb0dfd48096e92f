(* Initial partition creation: Seed_merge, Ratio_cut, Bipartition,
   plus the Schedule block selectors and Config derivations. *)

module Hg = Hypergraph.Hgraph
module State = Partition.State
module Cost = Partition.Cost

let circuit ?(cells = 120) ?(pads = 12) seed =
  Netlist.Generator.generate
    (Netlist.Generator.default_spec ~name:"init" ~cells ~pads ~seed)

let all v _ = v

(* --- Seed_merge ---------------------------------------------------- *)

let test_seed_merge_basic () =
  let h = circuit 1 in
  let r = Fpart.Seed_merge.split h ~member:(fun _ -> true) ~s_max:40 ~t_max:64 in
  Alcotest.(check bool) "p nonempty" true (Array.exists Fun.id r.Fpart.Seed_merge.p_side);
  Alcotest.(check bool) "p not everything" true
    (Array.exists not r.Fpart.Seed_merge.p_side);
  Alcotest.(check bool) "p within s_max" true (r.Fpart.Seed_merge.p_size <= 40);
  (* reported size/pins match the side *)
  let size = ref 0 in
  Array.iteri
    (fun v s -> if s then size := !size + Hg.size h v)
    r.Fpart.Seed_merge.p_side;
  Alcotest.(check int) "size consistent" !size r.Fpart.Seed_merge.p_size

let test_seed_merge_respects_member () =
  let h = circuit 2 in
  (* only even nodes belong to the remainder *)
  let member v = v land 1 = 0 in
  let r = Fpart.Seed_merge.split h ~member ~s_max:20 ~t_max:64 in
  Array.iteri
    (fun v s -> if s && not (member v) then Alcotest.failf "non-member %d in P" v)
    r.Fpart.Seed_merge.p_side

let test_seed_merge_fills () =
  let h = circuit ~cells:200 3 in
  let r = Fpart.Seed_merge.split h ~member:(fun _ -> true) ~s_max:50 ~t_max:64 in
  (* greedy growth should get close to the capacity *)
  Alcotest.(check bool) "good filling" true (r.Fpart.Seed_merge.p_size >= 40)

let test_seed_merge_empty_member () =
  let h = circuit 4 in
  Alcotest.check_raises "empty" (Invalid_argument "Seed_merge.split: empty member set")
    (fun () -> ignore (Fpart.Seed_merge.split h ~member:(fun _ -> false) ~s_max:10 ~t_max:64))

let test_seed_merge_singleton () =
  let h = circuit 5 in
  let r = Fpart.Seed_merge.split h ~member:(fun v -> v = 3) ~s_max:10 ~t_max:64 in
  Alcotest.(check bool) "the singleton is P" true r.Fpart.Seed_merge.p_side.(3)

(* Seed-merge as it was before cached pin changes: after every merge,
   [pick] re-scores each frontier cell with two tentative
   [State.move]s.  [Seed_merge.split] must return exactly what this
   reference returns. *)
module Seed_merge_reference = struct
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
    (* Frontier per block: pool nodes adjacent to the block.  Stored as a
       membership array + list; stale entries are skipped at use. *)
    let in_frontier = Array.make n (-1) in
    (* -1 none, 1 in A's frontier, 2 in B's, 3 in both *)
    let frontier = [| []; [] |] in
    let add_frontier blk u =
      let bit = if blk = block_a then 1 else 2 in
      let cur = max 0 in_frontier.(u) in
      if cur land bit = 0 then begin
        in_frontier.(u) <- cur lor bit;
        let idx = blk - 1 in
        frontier.(idx) <- u :: frontier.(idx)
      end
    in
    let extend_frontier blk v =
      Array.iter
        (fun e ->
          Array.iter
            (fun u -> if State.block_of st u = pool then add_frontier blk u)
            (Hg.pins hg e))
        (Hg.nets_of hg v)
    in
    extend_frontier block_a seed_a;
    if seed_b <> seed_a then extend_frontier block_b seed_b;
    (* Merge score: size gained per terminal paid after the tentative
       merge (higher is better).  Also returns the resulting pin count so
       the caller can enforce pin saturation. *)
    let score blk u =
      State.move st u blk;
      let s = State.size_of st blk in
      let t = max 1 (State.pins_of st blk) in
      State.move st u pool;
      (float_of_int s /. float_of_int t, t)
    in
    (* A candidate is acceptable when it fits the size budget and keeps
       the pins within T_MAX — "merge stops when constraints are
       saturated" covers both resources.  While the block is already
       above the pin budget, pin-decreasing merges stay acceptable so a
       temporary overshoot can be absorbed. *)
    let pick blk =
      let idx = blk - 1 in
      let best = ref (-1) in
      let best_score = ref neg_infinity in
      let live = ref [] in
      let pins_now = State.pins_of st blk in
      List.iter
        (fun u ->
          if State.block_of st u = pool then begin
            live := u :: !live;
            if State.size_of st blk + Hg.size hg u <= s_max then begin
              let sc, pins' = score blk u in
              if pins' <= t_max || pins' < pins_now then
                if sc > !best_score || (sc = !best_score && u lxor salt < !best lxor salt)
                then begin
                  best_score := sc;
                  best := u
                end
            end
          end)
        frontier.(idx);
      frontier.(idx) <- !live;
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
end

(* Circuits with pads and cells of size 1-3, a random member set with
   the rest committed to the external block, size budgets from roomy to
   tight, pin budgets from 0 up (so the pin-saturation branch runs) and
   random salts. *)
let prop_seed_merge_matches_reference =
  QCheck.Test.make ~count:500 ~name:"seed merge matches the re-scoring reference"
    QCheck.(
      pair
        (quad (int_range 4 120) (int_range 0 10_000) (int_range 1 200) (int_range 0 48))
        (int_range 0 0xFFFF))
    (fun ((cells, seed, s_max, t_max), salt) ->
      let rng = Prng.Splitmix.create seed in
      let h =
        Fpart_testgen.resize
          (Fpart_testgen.circuit ~name:"sm" ~cells ~pads:(1 + (cells / 8)) seed)
          ~size:(fun _ -> Prng.Splitmix.int_in rng 1 3)
      in
      let members = Array.init (Hg.num_nodes h) (fun _ -> Prng.Splitmix.int rng 4 > 0) in
      members.(Prng.Splitmix.int rng (Hg.num_nodes h)) <- true;
      let member v = members.(v) in
      let r = Fpart.Seed_merge.split ~salt h ~member ~s_max ~t_max in
      let e = Seed_merge_reference.split ~salt h ~member ~s_max ~t_max in
      r.Fpart.Seed_merge.p_side = e.Seed_merge_reference.p_side
      && r.Fpart.Seed_merge.p_size = e.Seed_merge_reference.p_size
      && r.Fpart.Seed_merge.p_pins = e.Seed_merge_reference.p_pins)

(* --- Ratio_cut ----------------------------------------------------- *)

let test_ratio_cut_basic () =
  let h = circuit 7 in
  match Fpart.Ratio_cut.split h ~member:(fun _ -> true) ~s_max:60 ~t_max:64 with
  | None -> Alcotest.fail "expected a split"
  | Some r ->
    Alcotest.(check bool) "nonempty" true (Array.exists Fun.id r.Fpart.Ratio_cut.p_side);
    Alcotest.(check bool) "proper" true (Array.exists not r.Fpart.Ratio_cut.p_side);
    Alcotest.(check bool) "ratio positive" true (r.Fpart.Ratio_cut.ratio > 0.0);
    (* the P side satisfies the device constraints, as promised *)
    let st =
      State.create h ~k:2 ~assign:(fun v -> if r.Fpart.Ratio_cut.p_side.(v) then 0 else 1)
    in
    Alcotest.(check bool) "P feasible" true
      (State.size_of st 0 <= 60 && State.pins_of st 0 <= 64)

let test_ratio_cut_respects_member () =
  let h = circuit 8 in
  let member v = v mod 3 <> 0 in
  match Fpart.Ratio_cut.split h ~member ~s_max:30 ~t_max:64 with
  | None -> Alcotest.fail "expected a split"
  | Some r ->
    Array.iteri
      (fun v s -> if s && not (member v) then Alcotest.failf "non-member %d in P" v)
      r.Fpart.Ratio_cut.p_side

let test_ratio_cut_infeasible_none () =
  (* t_max = 0 makes every side infeasible: no prefix qualifies *)
  let h = circuit ~cells:30 9 in
  Alcotest.(check bool) "None" true
    (Fpart.Ratio_cut.split h ~member:(fun _ -> true) ~s_max:1 ~t_max:0 = None)

(* The ratio-cut sweep as it was before per-net delta updates: after
   every move, each bucketed neighbour's gain is re-derived from all its
   nets with [State.cut_gain], at the neighbour's first incidence.
   [Ratio_cut.split] must return exactly what this reference returns. *)
module Ratio_cut_reference = struct
  module Bucket = Gainbucket.Bucket_array

  let external_b = 0
  let grow = 1
  let rest = 2

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

  let sweep hg ~member ~s_max ~t_max seed =
    let n = Hg.num_nodes hg in
    let st =
      State.create hg ~k:3 ~assign:(fun v -> if member v then rest else external_b)
    in
    State.move st seed grow;
    let c12 = ref 0 in
    Hg.iter_nets
      (fun e ->
        if State.net_count st e grow > 0 && State.net_count st e rest > 0 then incr c12)
      hg;
    let bucket = Bucket.create ~cells:n ~max_gain:(max 1 (Hg.max_node_degree hg)) () in
    Hg.iter_nodes
      (fun u ->
        if State.block_of st u = rest then Bucket.insert bucket u (State.cut_gain st u grow))
      hg;
    let trail = ref [] in
    let moves = ref 0 in
    let best = ref None in
    while not (Bucket.is_empty bucket) do
      let u = Bucket.fold_top bucket ~limit:1 ~init:(-1) ~f:(fun _ c -> c) in
      Bucket.remove bucket u;
      Array.iter
        (fun e ->
          let c1 = State.net_count st e grow and c2 = State.net_count st e rest in
          c12 := !c12 + Bool.to_int (c2 - 1 > 0) - Bool.to_int (c1 > 0 && c2 > 0))
        (Hg.nets_of hg u);
      State.move st u grow;
      trail := u :: !trail;
      incr moves;
      Array.iter
        (fun e ->
          Array.iter
            (fun w ->
              if Bucket.mem bucket w then Bucket.update bucket w (State.cut_gain st w grow))
            (Hg.pins hg e))
        (Hg.nets_of hg u);
      let s1 = State.size_of st grow and s2 = State.size_of st rest in
      if s1 > 0 && s2 > 0 then begin
        let ratio = float_of_int !c12 /. (float_of_int s1 *. float_of_int s2) in
        let feas1 = s1 <= s_max && State.pins_of st grow <= t_max in
        let feas2 = s2 <= s_max && State.pins_of st rest <= t_max in
        if feas1 || feas2 then begin
          let side = if feas1 then grow else rest in
          match !best with
          | Some (r, _, _) when r <= ratio -> ()
          | _ -> best := Some (ratio, !moves, side)
        end
      end
    done;
    match !best with
    | None -> None
    | Some (ratio, prefix, side) ->
      List.iteri
        (fun i u -> if !moves - i > prefix then State.move st u rest)
        !trail;
      Some (Array.init n (fun v -> State.block_of st v = side), ratio)

  let split hg ~member ~s_max ~t_max =
    let start = ref (-1) in
    Hg.iter_nodes
      (fun v -> if !start < 0 && member v && not (Hg.is_pad hg v) then start := v)
      hg;
    if !start < 0 then None
    else begin
      let seed1 = far_member_cell hg ~member !start in
      let seed2 = far_member_cell hg ~member seed1 in
      let r1 = sweep hg ~member ~s_max ~t_max seed1 in
      let r2 = if seed2 <> seed1 then sweep hg ~member ~s_max ~t_max seed2 else None in
      match (r1, r2) with
      | None, None -> None
      | (Some _ as r), None | None, (Some _ as r) -> r
      | Some ((_, va) as ra), Some ((_, vb) as rb) -> Some (if va <= vb then ra else rb)
    end
end

(* Circuits with pads and cells of size 1-3, a random member set, and
   windows from roomy down to ones no prefix can satisfy. *)
let prop_ratio_cut_matches_reference =
  QCheck.Test.make ~count:500 ~name:"ratio-cut sweep matches the recompute reference"
    QCheck.(quad (int_range 8 120) (int_range 0 10_000) (int_range 1 90) (int_range 0 48))
    (fun (cells, seed, s_max, t_max) ->
      let rng = Prng.Splitmix.create seed in
      let h =
        Fpart_testgen.resize
          (Fpart_testgen.circuit ~name:"rc" ~cells ~pads:(1 + (cells / 8)) seed)
          ~size:(fun _ -> Prng.Splitmix.int_in rng 1 3)
      in
      let members = Array.init (Hg.num_nodes h) (fun _ -> Prng.Splitmix.int rng 4 > 0) in
      let member v = members.(v) in
      match
        ( Fpart.Ratio_cut.split h ~member ~s_max ~t_max,
          Ratio_cut_reference.split h ~member ~s_max ~t_max )
      with
      | None, None -> true
      | Some r, Some (p_side, ratio) ->
        r.Fpart.Ratio_cut.p_side = p_side && Float.equal r.Fpart.Ratio_cut.ratio ratio
      | Some _, None | None, Some _ -> false)

(* --- Bipartition --------------------------------------------------- *)

let test_bipartition_splits () =
  let h = circuit ~cells:150 10 in
  let ctx = Cost.context_of Device.xc3020 ~delta:0.9 h in
  let st = State.create h ~k:2 ~assign:(all 0) in
  let _method =
    Fpart.Bipartition.split st ~p_block:0 ~r_block:1 ~params:Cost.default_params
      ~ctx ~step_k:1
  in
  Alcotest.(check bool) "both blocks populated" true
    (State.cells_of st 0 > 0 && State.cells_of st 1 > 0);
  (* the P side respects the capacity *)
  Alcotest.(check bool) "P within s_max" true (State.size_of st 0 <= ctx.Cost.s_max);
  match State.check st with Ok () -> () | Error e -> Alcotest.fail e

let test_bipartition_requires_empty_r () =
  let h = circuit 11 in
  let ctx = Cost.context_of Device.xc3020 ~delta:0.9 h in
  let st = State.create h ~k:2 ~assign:(fun v -> v land 1) in
  Alcotest.check_raises "r not empty"
    (Invalid_argument "Bipartition.split: r_block not empty") (fun () ->
      ignore
        (Fpart.Bipartition.split st ~p_block:0 ~r_block:1 ~params:Cost.default_params
           ~ctx ~step_k:1))

let test_bipartition_only_remainder_moves () =
  let h = circuit ~cells:90 12 in
  let ctx = Cost.context_of Device.xc3042 ~delta:0.9 h in
  (* block 0 committed, block 1 remainder, block 2 empty *)
  let st = State.create h ~k:3 ~assign:(fun v -> if v < 20 then 0 else 1) in
  let committed = State.nodes_of_block st 0 in
  ignore
    (Fpart.Bipartition.split st ~p_block:1 ~r_block:2 ~params:Cost.default_params
       ~ctx ~step_k:1);
  Alcotest.(check (list int)) "committed untouched" committed (State.nodes_of_block st 0)

(* --- Schedule ------------------------------------------------------ *)

let sized_state sizes =
  let b = Hg.Builder.create () in
  Array.iter
    (fun s ->
      ignore (Hg.Builder.add_cell b ~name:(string_of_int s) ~size:s))
    sizes;
  let h = Hg.Builder.freeze b in
  State.create h ~k:(Array.length sizes) ~assign:(fun v -> v)

let test_schedule_min_size () =
  let st = sized_state [| 30; 10; 20; 99 |] in
  Alcotest.(check (option int)) "min size" (Some 1)
    (Fpart.Schedule.min_size_block st ~except:3);
  Alcotest.(check (option int)) "except wins" (Some 0)
    (Fpart.Schedule.min_size_block (sized_state [| 5; 9 |]) ~except:1)

let test_schedule_no_other () =
  let st = sized_state [| 5 |] in
  Alcotest.(check (option int)) "none" None (Fpart.Schedule.min_size_block st ~except:0)

let test_schedule_min_io_max_free () =
  let h = circuit ~cells:60 13 in
  let st = State.create h ~k:3 ~assign:(fun v -> v mod 3) in
  (match Fpart.Schedule.min_io_block st ~except:2 with
  | Some b ->
    let other = 1 - b in
    Alcotest.(check bool) "fewest pins" true
      (State.pins_of st b <= State.pins_of st other)
  | None -> Alcotest.fail "expected a block");
  match
    Fpart.Schedule.max_free_block st ~except:2 ~s_max:57 ~t_max:64
  with
  | Some b -> Alcotest.(check bool) "valid block" true (b = 0 || b = 1)
  | None -> Alcotest.fail "expected a block"

(* --- Config -------------------------------------------------------- *)

let test_config_published_values () =
  let c = Fpart.Config.default in
  Alcotest.(check int) "N_small" 15 Fpart.Config.n_small;
  Alcotest.(check int) "D_stack" 4 c.Fpart.Config.stack_depth;
  Alcotest.(check (float 0.0)) "eps_max" 1.05 Fpart.Config.eps_max_multi;
  Alcotest.(check (float 0.0)) "eps_min_two" 0.95 c.Fpart.Config.eps_min_two;
  Alcotest.(check (float 0.0)) "eps_min_multi" 0.3 Fpart.Config.eps_min_multi

let test_config_delta_resolution () =
  let c = Fpart.Config.default in
  Alcotest.(check (float 0.0)) "xc3000 default" 0.9
    (Fpart.Config.delta_for c Device.xc3020);
  Alcotest.(check (float 0.0)) "xc2000 default" 1.0
    (Fpart.Config.delta_for c Device.xc2064);
  let c = { c with Fpart.Config.delta = Some 0.8 } in
  Alcotest.(check (float 0.0)) "override" 0.8 (Fpart.Config.delta_for c Device.xc2064)

let test_config_free_space () =
  (* empty block: F = 0.5 + 0.5 = 1 *)
  Alcotest.(check (float 1e-9)) "empty" 1.0
    (Fpart.Config.free_space ~s_max:100 ~t_max:50 ~size:0 ~pins:0);
  (* full logic, no pins: F = sigma2 = 0.5 *)
  Alcotest.(check (float 1e-9)) "sigma2" 0.5
    (Fpart.Config.free_space ~s_max:100 ~t_max:50 ~size:100 ~pins:0);
  (* full block: F = 0 *)
  Alcotest.(check (float 1e-9)) "full" 0.0
    (Fpart.Config.free_space ~s_max:100 ~t_max:50 ~size:100 ~pins:50)

(* F lies in [0, 1] and never grows when a block gains logic or pins. *)
let prop_free_space_bounded_monotone =
  QCheck.Test.make ~count:200 ~name:"free space bounded and non-increasing"
    QCheck.(quad (int_range 1 2000) (int_range 1 200) (int_range 0 2000) (int_range 0 200))
    (fun (s_max, t_max, size, pins) ->
      let size = min size s_max and pins = min pins t_max in
      let f = Fpart.Config.free_space ~s_max ~t_max in
      let here = f ~size ~pins in
      here >= 0.0 && here <= 1.0
      && (size = s_max || f ~size:(size + 1) ~pins <= here)
      && (pins = t_max || f ~size ~pins:(pins + 1) <= here))

(* [max_free_block] is the first non-[except] block of largest F. *)
let prop_max_free_block_is_first_argmax =
  QCheck.Test.make ~count:40 ~name:"max free block is the first largest F"
    QCheck.(quad (int_range 20 120) (int_range 2 6) (int_range 0 5) (int_range 0 10_000))
    (fun (cells, k, except, seed) ->
      let h = circuit ~cells seed in
      let st = State.create h ~k ~assign:(fun v -> (v * 7 + seed) mod k) in
      let s_max = 80 and t_max = 64 in
      let free i =
        Fpart.Config.free_space ~s_max ~t_max ~size:(State.size_of st i)
          ~pins:(State.pins_of st i)
      in
      match Fpart.Schedule.max_free_block st ~except ~s_max ~t_max with
      | None -> false
      | Some b ->
        b <> except
        && List.for_all
             (fun i -> i = except || free i < free b || (i >= b && free i <= free b))
             (List.init k Fun.id))

let prop_seed_merge_within_capacity =
  QCheck.Test.make ~count:30 ~name:"seed merge P never exceeds s_max"
    QCheck.(triple (int_range 20 150) (int_range 10 60) (int_range 0 10_000))
    (fun (cells, s_max, seed) ->
      let h = circuit ~cells seed in
      let r = Fpart.Seed_merge.split h ~member:(fun _ -> true) ~s_max ~t_max:64 in
      r.Fpart.Seed_merge.p_size <= s_max)

let prop_bipartition_partitions =
  QCheck.Test.make ~count:20 ~name:"bipartition assigns every member to P or R"
    QCheck.(pair (int_range 30 120) (int_range 0 10_000))
    (fun (cells, seed) ->
      let h = circuit ~cells seed in
      let ctx = Cost.context_of Device.xc3020 ~delta:0.9 h in
      let st = State.create h ~k:2 ~assign:(all 0) in
      ignore
        (Fpart.Bipartition.split st ~p_block:0 ~r_block:1 ~params:Cost.default_params
           ~ctx ~step_k:1);
      State.cells_of st 0 + State.cells_of st 1 = Hg.num_nodes h
      && State.check st = Ok ())

let () =
  Alcotest.run "initial"
    [
      ( "seed-merge",
        [
          Alcotest.test_case "basic" `Quick test_seed_merge_basic;
          Alcotest.test_case "member respected" `Quick test_seed_merge_respects_member;
          Alcotest.test_case "fills" `Quick test_seed_merge_fills;
          Alcotest.test_case "empty member" `Quick test_seed_merge_empty_member;
          Alcotest.test_case "singleton" `Quick test_seed_merge_singleton;
        ] );
      ( "ratio-cut",
        [
          Alcotest.test_case "basic" `Quick test_ratio_cut_basic;
          Alcotest.test_case "member respected" `Quick test_ratio_cut_respects_member;
          Alcotest.test_case "infeasible -> None" `Quick test_ratio_cut_infeasible_none;
        ] );
      ( "bipartition",
        [
          Alcotest.test_case "splits" `Quick test_bipartition_splits;
          Alcotest.test_case "requires empty R" `Quick test_bipartition_requires_empty_r;
          Alcotest.test_case "committed untouched" `Quick test_bipartition_only_remainder_moves;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "min size" `Quick test_schedule_min_size;
          Alcotest.test_case "no other block" `Quick test_schedule_no_other;
          Alcotest.test_case "min io / max free" `Quick test_schedule_min_io_max_free;
        ] );
      ( "config",
        [
          Alcotest.test_case "published values" `Quick test_config_published_values;
          Alcotest.test_case "delta resolution" `Quick test_config_delta_resolution;
          Alcotest.test_case "free space" `Quick test_config_free_space;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_seed_merge_within_capacity;
            prop_bipartition_partitions;
            prop_ratio_cut_matches_reference;
            prop_seed_merge_matches_reference;
            prop_free_space_bounded_monotone;
            prop_max_free_block_is_first_argmax;
          ] );
    ]
