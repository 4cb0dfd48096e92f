type node = int
type net = int

type kind = Cell | Pad

type t = {
  kinds : kind array;
  sizes : int array;
  flop_counts : int array;
  names : string array;
  net_names : string array;
  net_pins : node array array;
  node_nets : net array array;
  net_pad : bool array;
  num_cells : int;
  num_pads : int;
  total_size : int;
  max_node_degree : int;
  max_net_degree : int;
}

(* The array-building tail shared by [Builder.freeze] and [contract]:
   derive the node -> net index, pad flags and cached totals from the
   per-node and per-net arrays, which are taken over without copying. *)
let of_arrays ~kinds ~sizes ~flop_counts ~names ~net_names ~net_pins =
  let n = Array.length kinds in
  let degree = Array.make n 0 in
  Array.iter (fun pins -> Array.iter (fun v -> degree.(v) <- degree.(v) + 1) pins) net_pins;
  let node_nets = Array.map (fun d -> Array.make d 0) degree in
  let fill = Array.make n 0 in
  Array.iteri
    (fun e pins ->
      Array.iter
        (fun v ->
          node_nets.(v).(fill.(v)) <- e;
          fill.(v) <- fill.(v) + 1)
        pins)
    net_pins;
  let net_pad =
    Array.map (fun pins -> Array.exists (fun v -> kinds.(v) = Pad) pins) net_pins
  in
  let num_cells = Array.fold_left (fun acc k -> if k = Cell then acc + 1 else acc) 0 kinds in
  {
    kinds;
    sizes;
    flop_counts;
    names;
    net_names;
    net_pins;
    node_nets;
    net_pad;
    num_cells;
    num_pads = n - num_cells;
    total_size = Array.fold_left ( + ) 0 sizes;
    max_node_degree = Array.fold_left max 0 degree;
    max_net_degree =
      Array.fold_left (fun acc pins -> max acc (Array.length pins)) 0 net_pins;
  }

module Builder = struct
  type t = {
    b_kinds : kind Vec.t;
    b_sizes : int Vec.t;
    b_flops : int Vec.t;
    b_names : string Vec.t;
    b_net_names : string Vec.t;
    b_net_pins : node array Vec.t;
  }

  let create () =
    {
      b_kinds = Vec.create ();
      b_sizes = Vec.create ();
      b_flops = Vec.create ();
      b_names = Vec.create ();
      b_net_names = Vec.create ();
      b_net_pins = Vec.create ();
    }

  let num_nodes b = Vec.length b.b_kinds

  let add_node b ~name ~size ~flops k =
    let id = Vec.length b.b_kinds in
    Vec.push b.b_kinds k;
    Vec.push b.b_sizes size;
    Vec.push b.b_flops flops;
    Vec.push b.b_names name;
    id

  let add_cell ?(flops = 0) b ~name ~size =
    if size <= 0 then invalid_arg "Hgraph.Builder.add_cell: size <= 0";
    if flops < 0 then invalid_arg "Hgraph.Builder.add_cell: flops < 0";
    add_node b ~name ~size ~flops Cell

  let add_pad b ~name = add_node b ~name ~size:0 ~flops:0 Pad

  let add_net b ~name pins =
    let n = num_nodes b in
    List.iter
      (fun v ->
        if v < 0 || v >= n then
          invalid_arg "Hgraph.Builder.add_net: unknown node id")
      pins;
    let pins = List.sort_uniq compare pins in
    if pins = [] then invalid_arg "Hgraph.Builder.add_net: empty net";
    let id = Vec.length b.b_net_pins in
    Vec.push b.b_net_pins (Array.of_list pins);
    Vec.push b.b_net_names name;
    id

  let freeze b =
    of_arrays ~kinds:(Vec.to_array b.b_kinds) ~sizes:(Vec.to_array b.b_sizes)
      ~flop_counts:(Vec.to_array b.b_flops) ~names:(Vec.to_array b.b_names)
      ~net_names:(Vec.to_array b.b_net_names)
      ~net_pins:(Vec.to_array b.b_net_pins)
end

let num_nodes h = Array.length h.kinds
let num_cells h = h.num_cells
let num_pads h = h.num_pads
let num_nets h = Array.length h.net_pins
let kind h v = h.kinds.(v)
let is_pad h v = h.kinds.(v) = Pad
let size h v = h.sizes.(v)
let flops h v = h.flop_counts.(v)
let name h v = h.names.(v)
let net_name h e = h.net_names.(e)
let pins h e = h.net_pins.(e)
let net_degree h e = Array.length h.net_pins.(e)
let nets_of h v = h.node_nets.(v)
let node_degree h v = Array.length h.node_nets.(v)
let total_size h = h.total_size
let total_flops h = Array.fold_left ( + ) 0 h.flop_counts
let max_node_degree h = h.max_node_degree
let max_net_degree h = h.max_net_degree
let net_has_pad h e = h.net_pad.(e)

let iter_nodes f h =
  for v = 0 to num_nodes h - 1 do f v done

let iter_cells f h =
  for v = 0 to num_nodes h - 1 do if h.kinds.(v) = Cell then f v done

let iter_pads f h =
  for v = 0 to num_nodes h - 1 do if h.kinds.(v) = Pad then f v done

let iter_nets f h =
  for e = 0 to num_nets h - 1 do f e done

let fold_nodes f acc h =
  let acc = ref acc in
  iter_nodes (fun v -> acc := f !acc v) h;
  !acc

let fold_nets f acc h =
  let acc = ref acc in
  iter_nets (fun e -> acc := f !acc e) h;
  !acc

let contract h ~map ~coarse_nodes =
  let n = num_nodes h in
  if Array.length map <> n then invalid_arg "Hgraph.contract: map length <> num_nodes";
  let sizes = Array.make coarse_nodes 0 in
  let flop_counts = Array.make coarse_nodes 0 in
  let members = Array.make coarse_nodes 0 in
  let lowest = Array.make coarse_nodes (-1) in
  let kinds = Array.make coarse_nodes Cell in
  for v = 0 to n - 1 do
    let c = map.(v) in
    if c < 0 || c >= coarse_nodes then invalid_arg "Hgraph.contract: coarse id out of range";
    sizes.(c) <- sizes.(c) + h.sizes.(v);
    flop_counts.(c) <- flop_counts.(c) + h.flop_counts.(v);
    members.(c) <- members.(c) + 1;
    if lowest.(c) < 0 then lowest.(c) <- v;
    if h.kinds.(v) = Pad then kinds.(c) <- Pad
  done;
  for c = 0 to coarse_nodes - 1 do
    if members.(c) = 0 then invalid_arg "Hgraph.contract: empty coarse node";
    (* a pad consumes one IOB wherever it lands; merged into anything it
       would mis-count T_i after projection *)
    if kinds.(c) = Pad && members.(c) > 1 then
      invalid_arg "Hgraph.contract: pad contracted with another node"
  done;
  let names = Array.map (fun v -> h.names.(v)) lowest in
  let net_names = Vec.create () and net_pins = Vec.create () in
  let stamp = Array.make coarse_nodes (-1) in
  let scratch = Array.make h.max_net_degree 0 in
  Array.iteri
    (fun e pins ->
      let d = ref 0 in
      Array.iter
        (fun v ->
          let c = map.(v) in
          if stamp.(c) <> e then begin
            stamp.(c) <- e;
            scratch.(!d) <- c;
            incr d
          end)
        pins;
      if !d >= 2 || h.net_pad.(e) then begin
        let coarse_pins = Array.sub scratch 0 !d in
        Array.sort Int.compare coarse_pins;
        Vec.push net_pins coarse_pins;
        Vec.push net_names h.net_names.(e)
      end)
    h.net_pins;
  of_arrays ~kinds ~sizes ~flop_counts ~names ~net_names:(Vec.to_array net_names)
    ~net_pins:(Vec.to_array net_pins)

let validate h =
  let n = num_nodes h and m = num_nets h in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let check_sizes () =
    let rec go v =
      if v >= n then Ok ()
      else
        match h.kinds.(v) with
        | Cell when h.sizes.(v) <= 0 -> fail "cell %d has size %d" v h.sizes.(v)
        | Cell when h.flop_counts.(v) < 0 -> fail "cell %d has flops %d" v h.flop_counts.(v)
        | Pad when h.sizes.(v) <> 0 -> fail "pad %d has size %d" v h.sizes.(v)
        | Pad when h.flop_counts.(v) <> 0 -> fail "pad %d has flops %d" v h.flop_counts.(v)
        | Cell | Pad -> go (v + 1)
    in
    go 0
  in
  let check_pins () =
    let rec go e =
      if e >= m then Ok ()
      else
        let pins = h.net_pins.(e) in
        if Array.length pins = 0 then fail "net %d has no pins" e
        else if Array.exists (fun v -> v < 0 || v >= n) pins then
          fail "net %d has out-of-range pin" e
        else if
          (* each pin must list the net back *)
          Array.exists (fun v -> not (Array.exists (fun e' -> e' = e) h.node_nets.(v))) pins
        then fail "net %d missing from a pin's net list" e
        else go (e + 1)
    in
    go 0
  in
  let check_node_nets () =
    let rec go v =
      if v >= n then Ok ()
      else if
        Array.exists
          (fun e -> e < 0 || e >= m || not (Array.exists (fun u -> u = v) h.net_pins.(e)))
          h.node_nets.(v)
      then fail "node %d lists a net it is not a pin of" v
      else go (v + 1)
    in
    go 0
  in
  let check_pad_flags () =
    let rec go e =
      if e >= m then Ok ()
      else
        let expect = Array.exists (fun v -> h.kinds.(v) = Pad) h.net_pins.(e) in
        if expect <> h.net_pad.(e) then fail "net %d has stale pad flag" e
        else go (e + 1)
    in
    go 0
  in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  check_sizes () >>= check_pins >>= check_node_nets >>= check_pad_flags

let pp ppf h =
  Format.fprintf ppf "hypergraph: %d cells, %d pads, %d nets, total size %d"
    (num_cells h) (num_pads h) (num_nets h) (total_size h)

(* {2 Canonical digest}

   The canonical form orders nodes by name and nets by their sorted
   pin-name lists (ties broken by net name), so any node relabeling
   that keeps names stable — including the pad permutations of the
   test generators — and any reordering of the net list produce the
   same digest.  Names are length-prefixed before hashing so no
   concatenation of fields can collide with another record split. *)

let digest h =
  let buf = Buffer.create (4096 + (num_nodes h * 16)) in
  let add_str s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let add_int i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ';'
  in
  add_str "fpart-hgraph/1";
  add_int (num_cells h);
  add_int (num_pads h);
  add_int (num_nets h);
  let node_records =
    fold_nodes
      (fun acc v ->
        let b = Buffer.create 32 in
        Buffer.add_string b (name h v);
        Buffer.add_char b '\x00';
        Buffer.add_string b
          (match kind h v with Cell -> "c" | Pad -> "p");
        Buffer.add_string b (string_of_int (size h v));
        Buffer.add_char b ',';
        Buffer.add_string b (string_of_int (flops h v));
        Buffer.contents b :: acc)
      [] h
  in
  List.iter
    (fun r -> add_str r)
    (List.sort String.compare node_records);
  let net_records =
    fold_nets
      (fun acc e ->
        let names =
          Array.to_list (Array.map (fun v -> name h v) (pins h e))
          |> List.sort String.compare
        in
        let b = Buffer.create 64 in
        List.iter
          (fun s ->
            Buffer.add_string b (string_of_int (String.length s));
            Buffer.add_char b ':';
            Buffer.add_string b s)
          names;
        Buffer.add_char b '\x00';
        Buffer.add_string b (net_name h e);
        Buffer.contents b :: acc)
      [] h
  in
  List.iter
    (fun r -> add_str r)
    (List.sort String.compare net_records);
  Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents buf))
