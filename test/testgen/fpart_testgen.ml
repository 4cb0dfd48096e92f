(* Shared test-data builders and QCheck generators for the FPART test
   suite.  Every test executable builds its circuits, partitions and
   move sequences through this library instead of keeping a private
   copy of the helpers — one place to fix, one vocabulary of shapes.

   All randomness is drawn from the in-tree SplitMix64 generator so a
   single integer seed reproduces any generated instance. *)

module Hg = Hypergraph.Hgraph
module Sm = Prng.Splitmix

(* ------------------------------------------------------------------ *)
(* Deterministic circuit builders                                      *)

let circuit ?(name = "t") ?(cells = 60) ?(pads = 6) seed =
  Netlist.Generator.generate
    (Netlist.Generator.default_spec ~name ~cells ~pads ~seed)

(* Two 4-cliques joined by a single bridge net; the optimal bipartition
   cuts exactly that bridge.  Returns the graph and the cell ids in
   construction order (clique 1 = indices 0-3, clique 2 = 4-7). *)
let two_cliques () =
  let b = Hg.Builder.create () in
  let c =
    Array.init 8 (fun i -> Hg.Builder.add_cell b ~name:(string_of_int i) ~size:1)
  in
  let clique lo =
    for i = lo to lo + 3 do
      for j = i + 1 to lo + 3 do
        ignore
          (Hg.Builder.add_net b ~name:(Printf.sprintf "e%d_%d" i j) [ c.(i); c.(j) ])
      done
    done
  in
  clique 0;
  clique 4;
  ignore (Hg.Builder.add_net b ~name:"bridge" [ c.(3); c.(4) ]);
  (Hg.Builder.freeze b, c)

(* A synthetic device with the given block constraints (family is
   immaterial for the partitioners). *)
let tiny_device ~s_max ~t_max =
  {
    Device.dev_name = Printf.sprintf "T%dx%d" s_max t_max;
    family = Device.XC3000;
    s_ds = s_max;
    t_max;
  }

(* ------------------------------------------------------------------ *)
(* Assignments and move sequences                                      *)

(* Enumerate every assignment of [n] nodes into [k] blocks. *)
let iter_assignments n k f =
  let assign = Array.make n 0 in
  let rec go i =
    if i = n then f assign
    else
      for b = 0 to k - 1 do
        assign.(i) <- b;
        go (i + 1)
      done
  in
  go 0

let random_assignment ~n ~k seed =
  let rng = Sm.create seed in
  Array.init n (fun _ -> Sm.int rng k)

(* [count] random moves legal from [init]: each picks a node and a
   destination different from the node's block at that point of the
   sequence. *)
let random_moves ~init ~k ~count seed =
  if k < 2 then invalid_arg "Fpart_testgen.random_moves: k < 2";
  let assign = Array.copy init in
  let n = Array.length assign in
  let rng = Sm.create seed in
  List.init count (fun _ ->
      let v = Sm.int rng n in
      let dest = (assign.(v) + 1 + Sm.int rng (k - 1)) mod k in
      assign.(v) <- dest;
      (v, dest))

(* ------------------------------------------------------------------ *)
(* Node relabelings (metamorphic tests)                                *)

(* A uniformly random permutation of [0, n). *)
let permutation ~n seed =
  let p = Array.init n Fun.id in
  Sm.shuffle (Sm.create seed) p;
  p

(* A permutation that moves only the pad nodes of [hg] (identity on
   cells) — for pad-order invariance properties. *)
let pad_permutation hg seed =
  let n = Hg.num_nodes hg in
  let pads = ref [] in
  Hg.iter_nodes (fun v -> if Hg.is_pad hg v then pads := v :: !pads) hg;
  let pads = Array.of_list (List.rev !pads) in
  let shuffled = Array.copy pads in
  Sm.shuffle (Sm.create seed) shuffled;
  let perm = Array.init n Fun.id in
  Array.iteri (fun i p -> perm.(p) <- shuffled.(i)) pads;
  perm

(* [relabel hg ~perm] rebuilds [hg] with node [v] renumbered to
   [perm.(v)] (names, sizes, flops and net order preserved).
   @raise Invalid_argument if [perm] maps a cell position to a pad
   position or vice versa — node kinds must be stable under the
   relabeling. *)
let relabel hg ~perm =
  let n = Hg.num_nodes hg in
  if Array.length perm <> n then invalid_arg "Fpart_testgen.relabel: wrong length";
  let inv = Array.make n (-1) in
  Array.iteri
    (fun old nw ->
      if nw < 0 || nw >= n || inv.(nw) >= 0 then
        invalid_arg "Fpart_testgen.relabel: not a permutation";
      inv.(nw) <- old)
    perm;
  let b = Hg.Builder.create () in
  for nw = 0 to n - 1 do
    let old = inv.(nw) in
    let id =
      match Hg.kind hg old with
      | Hg.Cell ->
        Hg.Builder.add_cell b ~flops:(Hg.flops hg old) ~name:(Hg.name hg old)
          ~size:(Hg.size hg old)
      | Hg.Pad -> Hg.Builder.add_pad b ~name:(Hg.name hg old)
    in
    if id <> nw then invalid_arg "Fpart_testgen.relabel: kinds not stable"
  done;
  Hg.iter_nets
    (fun e ->
      ignore
        (Hg.Builder.add_net b ~name:(Hg.net_name hg e)
           (Array.to_list (Array.map (fun v -> perm.(v)) (Hg.pins hg e)))))
    hg;
  Hg.Builder.freeze b

(* [resize hg ~size] rebuilds [hg] with cell [v] of size [size v]
   (node ids, kinds, names, flops and nets preserved; pads stay size
   0).  [size] is called once per cell, in ascending id order. *)
let resize hg ~size =
  let b = Hg.Builder.create () in
  Hg.iter_nodes
    (fun v ->
      ignore
        (match Hg.kind hg v with
        | Hg.Cell ->
          Hg.Builder.add_cell b ~flops:(Hg.flops hg v) ~name:(Hg.name hg v)
            ~size:(size v)
        | Hg.Pad -> Hg.Builder.add_pad b ~name:(Hg.name hg v)))
    hg;
  Hg.iter_nets
    (fun e ->
      ignore
        (Hg.Builder.add_net b ~name:(Hg.net_name hg e)
           (Array.to_list (Hg.pins hg e))))
    hg;
  Hg.Builder.freeze b

(* Transport an assignment through a relabeling: if [a] assigns on the
   original graph, the result assigns on [relabel hg ~perm]. *)
let transport ~perm a =
  let r = Array.make (Array.length a) 0 in
  Array.iteri (fun old b -> r.(perm.(old)) <- b) a;
  r

(* ------------------------------------------------------------------ *)
(* QCheck generators (with shrinking)                                  *)

(* A scene is everything a differential property needs: a circuit
   recipe, a block count and a seed for derived randomness (initial
   assignments, move sequences). *)
type scene = { sc_cells : int; sc_pads : int; sc_k : int; sc_seed : int }

let scene_graph sc = circuit ~cells:sc.sc_cells ~pads:sc.sc_pads sc.sc_seed

let scene_init sc =
  let n = Hg.num_nodes (scene_graph sc) in
  random_assignment ~n ~k:sc.sc_k (sc.sc_seed lxor 0x9e3779b9)

let scene_moves ?(per_node = 2) sc =
  let hg = scene_graph sc in
  let init = scene_init sc in
  random_moves ~init ~k:sc.sc_k
    ~count:(per_node * Hg.num_nodes hg)
    (sc.sc_seed lxor 0x51f15eed)

let print_scene sc =
  Printf.sprintf "{cells=%d; pads=%d; k=%d; seed=%d}" sc.sc_cells sc.sc_pads
    sc.sc_k sc.sc_seed

(* Shrinks towards the smallest legal instance (and seed 0) so failing
   counterexamples arrive minimized. *)
let arb_scene ?(min_cells = 8) ?(max_cells = 120) ?(max_k = 4) () =
  let open QCheck in
  let gen =
    Gen.map
      (fun (((cells, pads), k), seed) ->
        { sc_cells = cells; sc_pads = pads; sc_k = k; sc_seed = seed })
      Gen.(
        pair
          (pair (pair (int_range min_cells max_cells) (int_range 2 24)) (int_range 2 max_k))
          (int_range 0 0x3FFFFFFF))
  in
  let shrink sc yield =
    Shrink.int sc.sc_cells (fun c -> if c >= min_cells then yield { sc with sc_cells = c });
    Shrink.int sc.sc_pads (fun p -> if p >= 2 then yield { sc with sc_pads = p });
    Shrink.int sc.sc_k (fun k -> if k >= 2 then yield { sc with sc_k = k });
    Shrink.int sc.sc_seed (fun s -> yield { sc with sc_seed = s })
  in
  make ~print:print_scene ~shrink gen

(* A small explicit flow network for brute-force max-flow/min-cut
   differentials: node 0 is the source, node [fn_nodes - 1] the sink,
   each edge a directed (src, dst, cap) triple (parallel edges and
   capacity 0 allowed, self-loops never generated). *)
type flownet_spec = { fn_nodes : int; fn_edges : (int * int * int) list }

let print_flownet fn =
  Printf.sprintf "{nodes=%d; edges=[%s]}" fn.fn_nodes
    (String.concat "; "
       (List.map
          (fun (s, d, c) -> Printf.sprintf "%d->%d/%d" s d c)
          fn.fn_edges))

(* Shrinks by dropping edges and reducing capacities; the node count is
   never shrunk so edge endpoints stay in range. *)
let arb_flownet ?(max_nodes = 12) ?(max_cap = 9) () =
  let open QCheck in
  let gen =
    Gen.(
      int_range 2 max_nodes >>= fun n ->
      let edge =
        map3
          (fun s d c ->
            let d = if d >= s then d + 1 else d in
            (s, d, c))
          (int_range 0 (n - 1))
          (int_range 0 (n - 2))
          (int_range 1 max_cap)
      in
      map
        (fun edges -> { fn_nodes = n; fn_edges = edges })
        (list_size (int_range 0 (3 * n)) edge))
  in
  let shrink fn yield =
    Shrink.list
      ~shrink:(fun (s, d, c) yield ->
        Shrink.int c (fun c' -> if c' >= 0 then yield (s, d, c')))
      fn.fn_edges
      (fun edges -> yield { fn with fn_edges = edges })
  in
  make ~print:print_flownet ~shrink gen

(* Device constraint pairs (S_MAX, T_MAX), shrinking towards the
   tightest still-legal device. *)
let arb_device ?(max_s = 64) ?(max_t = 64) () =
  let open QCheck in
  make
    ~print:(fun (s, t) -> Printf.sprintf "s_max=%d t_max=%d" s t)
    ~shrink:(fun (s, t) yield ->
      Shrink.int s (fun s' -> if s' >= 2 then yield (s', t));
      Shrink.int t (fun t' -> if t' >= 4 then yield (s, t')))
    Gen.(pair (int_range 2 max_s) (int_range 4 max_t))
