type summary = {
  nodes : int;
  cells : int;
  pads : int;
  nets : int;
  total_size : int;
  avg_net_degree : float;
  max_net_degree : int;
  avg_node_degree : float;
  max_node_degree : int;
  components : int;
}

let summary h =
  let nets = Hgraph.num_nets h in
  let nodes = Hgraph.num_nodes h in
  let pin_total = Hgraph.fold_nets (fun acc e -> acc + Hgraph.net_degree h e) 0 h in
  let _, components = Traversal.components h in
  {
    nodes;
    cells = Hgraph.num_cells h;
    pads = Hgraph.num_pads h;
    nets;
    total_size = Hgraph.total_size h;
    avg_net_degree = (if nets = 0 then 0.0 else float_of_int pin_total /. float_of_int nets);
    max_net_degree = Hgraph.max_net_degree h;
    avg_node_degree =
      (if nodes = 0 then 0.0 else float_of_int pin_total /. float_of_int nodes);
    max_node_degree = Hgraph.max_node_degree h;
    components;
  }

let net_degree_histogram h =
  let hist = Array.make (Hgraph.max_net_degree h + 1) 0 in
  Hgraph.iter_nets
    (fun e ->
      let d = Hgraph.net_degree h e in
      hist.(d) <- hist.(d) + 1)
    h;
  hist

let external_nets h nodes =
  let inside = Hashtbl.create (List.length nodes * 2) in
  List.iter (fun v -> Hashtbl.replace inside v ()) nodes;
  let counted = Hashtbl.create 64 in
  let count = ref 0 in
  let consider e =
    if not (Hashtbl.mem counted e) then begin
      Hashtbl.replace counted e ();
      let pins = Hgraph.pins h e in
      let touches_inside = Array.exists (fun v -> Hashtbl.mem inside v) pins in
      if touches_inside then begin
        let crosses = Array.exists (fun v -> not (Hashtbl.mem inside v)) pins in
        let pad_inside =
          Array.exists (fun v -> Hashtbl.mem inside v && Hgraph.is_pad h v) pins
        in
        if crosses || pad_inside then incr count
      end
    end
  in
  List.iter (fun v -> Array.iter consider (Hgraph.nets_of h v)) nodes;
  !count

(* Grow a BFS cluster of [target] cells from [seed]; return its node list. *)
let grow_cluster h seed target =
  let visited = Hashtbl.create (target * 2) in
  let members = ref [] in
  let queue = Queue.create () in
  Hashtbl.replace visited seed ();
  Queue.add seed queue;
  let count = ref 0 in
  while !count < target && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    members := v :: !members;
    incr count;
    Array.iter
      (fun e ->
        Array.iter
          (fun u ->
            if (not (Hashtbl.mem visited u)) && not (Hgraph.is_pad h u) then begin
              Hashtbl.replace visited u ();
              Queue.add u queue
            end)
          (Hgraph.pins h e))
      (Hgraph.nets_of h v)
  done;
  !members

let least_squares_slope points =
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let denom = (n *. sxx) -. (sx *. sx) in
  if abs_float denom < 1e-12 then None
  else Some (((n *. sxy) -. (sx *. sy)) /. denom)

let rent_exponent h ~rng_seed ~samples =
  let cells = Hgraph.num_cells h in
  if cells < 32 then None
  else begin
    let rng = Prng.Splitmix.create rng_seed in
    let cell_ids =
      Hgraph.fold_nodes
        (fun acc v -> if Hgraph.is_pad h v then acc else v :: acc)
        [] h
      |> Array.of_list
    in
    let points = ref [] in
    let size = ref 4 in
    while !size <= cells / 4 do
      for _ = 1 to samples do
        let seed = Prng.Splitmix.choose rng cell_ids in
        let cluster = grow_cluster h seed !size in
        let actual = List.length cluster in
        if actual >= 2 then begin
          let pins = external_nets h cluster in
          if pins >= 1 then
            points :=
              (log (float_of_int actual), log (float_of_int pins)) :: !points
        end
      done;
      size := !size * 2
    done;
    if List.length !points < 4 then None else least_squares_slope !points
  end
