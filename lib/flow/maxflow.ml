(* Adjacency stored as arrays-of-growable-vectors: [adj.(v)] lists edge
   ids; edges come in (forward, reverse) pairs, so [id lxor 1] is the
   residual partner. *)

type t = {
  nodes : int;
  mutable edge_to : int array;
  mutable edge_cap : int array;
  mutable edge_flow : int array;
  mutable n_edges : int;
  adj : int list array; (* reversed order; fine for flow *)
  mutable adj_frozen : int array array option; (* cache for traversals *)
  mutable total : int;
}

let infinite = max_int / 4

let create ~nodes =
  {
    nodes;
    edge_to = Array.make 16 0;
    edge_cap = Array.make 16 0;
    edge_flow = Array.make 16 0;
    n_edges = 0;
    adj = Array.make nodes [];
    adj_frozen = None;
    total = 0;
  }

let grow t =
  let cap = Array.length t.edge_to in
  if t.n_edges >= cap then begin
    let ncap = 2 * cap in
    let g a = let b = Array.make ncap 0 in Array.blit a 0 b 0 cap; b in
    t.edge_to <- g t.edge_to;
    t.edge_cap <- g t.edge_cap;
    t.edge_flow <- g t.edge_flow
  end

let add_half t ~src ~dst ~cap =
  grow t;
  let id = t.n_edges in
  t.edge_to.(id) <- dst;
  t.edge_cap.(id) <- cap;
  t.edge_flow.(id) <- 0;
  t.n_edges <- id + 1;
  t.adj.(src) <- id :: t.adj.(src);
  id

let add_edge t ~src ~dst ~cap =
  if src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes then
    invalid_arg "Maxflow.add_edge: node out of range";
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  t.adj_frozen <- None;
  let id = add_half t ~src ~dst ~cap in
  let _rev = add_half t ~src:dst ~dst:src ~cap:0 in
  id

let residual t e = t.edge_cap.(e) - t.edge_flow.(e)

let adjacency t =
  match t.adj_frozen with
  | Some a -> a
  | None ->
    let a = Array.map Array.of_list t.adj in
    t.adj_frozen <- Some a;
    a

(* BFS level graph; [-1] = unreachable. *)
let levels t ~source ~sink =
  let adj = adjacency t in
  let level = Array.make t.nodes (-1) in
  let q = Queue.create () in
  level.(source) <- 0;
  Queue.add source q;
  let reached = ref false in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun e ->
        let u = t.edge_to.(e) in
        if level.(u) < 0 && residual t e > 0 then begin
          level.(u) <- level.(v) + 1;
          if u = sink then reached := true;
          Queue.add u q
        end)
      adj.(v)
  done;
  if !reached then Some level else None

let rec dfs t adj level iters v sink pushed =
  if v = sink then pushed
  else begin
    let found = ref 0 in
    let arr = adj.(v) in
    while !found = 0 && iters.(v) < Array.length arr do
      let e = arr.(iters.(v)) in
      let u = t.edge_to.(e) in
      if residual t e > 0 && level.(u) = level.(v) + 1 then begin
        let d = dfs t adj level iters u sink (min pushed (residual t e)) in
        if d > 0 then begin
          t.edge_flow.(e) <- t.edge_flow.(e) + d;
          t.edge_flow.(e lxor 1) <- t.edge_flow.(e lxor 1) - d;
          found := d
        end
        else iters.(v) <- iters.(v) + 1
      end
      else iters.(v) <- iters.(v) + 1
    done;
    !found
  end

let max_flow t ~source ~sink =
  if source = sink then invalid_arg "Maxflow.max_flow: source = sink";
  let adj = adjacency t in
  let added = ref 0 in
  let continue = ref true in
  while !continue do
    match levels t ~source ~sink with
    | None -> continue := false
    | Some level ->
      let iters = Array.make t.nodes 0 in
      let pushing = ref true in
      while !pushing do
        let d = dfs t adj level iters source sink infinite in
        if d > 0 then added := !added + d else pushing := false
      done
  done;
  t.total <- t.total + !added;
  !added

let total_flow t = t.total

let source_side t ~source =
  let adj = adjacency t in
  let seen = Array.make t.nodes false in
  let q = Queue.create () in
  seen.(source) <- true;
  Queue.add source q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun e ->
        let u = t.edge_to.(e) in
        if (not seen.(u)) && residual t e > 0 then begin
          seen.(u) <- true;
          Queue.add u q
        end)
      adj.(v)
  done;
  seen
