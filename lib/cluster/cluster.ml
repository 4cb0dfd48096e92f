module Hg = Hypergraph.Hgraph
module Matching = Matching

type t = {
  fine_hg : Hg.t;
  coarse_hg : Hg.t;
  node_map : int array;          (* fine -> coarse *)
  member_lists : int list array; (* coarse -> fine nodes *)
}

let coarse t = t.coarse_hg
let fine t = t.fine_hg
let coarse_of t v = t.node_map.(v)
let members t c = t.member_lists.(c)

let reduction t =
  float_of_int (Hg.num_nodes t.fine_hg) /. float_of_int (Hg.num_nodes t.coarse_hg)

(* The connectivity heuristic lives in Matching.compute and the
   contraction in Hgraph.contract; this module keeps the member lists. *)
let build hg ~max_cluster_size ~seed =
  if max_cluster_size < 1 then invalid_arg "Cluster.build: max_cluster_size < 1";
  let map, n_coarse =
    Matching.compute ~policy:Matching.Agglomerate
      ~max_weight:max_cluster_size ~seed hg
  in
  let member_lists = Array.make n_coarse [] in
  for v = Hg.num_nodes hg - 1 downto 0 do
    member_lists.(map.(v)) <- v :: member_lists.(map.(v))
  done;
  {
    fine_hg = hg;
    coarse_hg = Hg.contract hg ~map ~coarse_nodes:n_coarse;
    node_map = map;
    member_lists;
  }

let project t coarse_assignment =
  if Array.length coarse_assignment <> Hg.num_nodes t.coarse_hg then
    invalid_arg "Cluster.project: wrong assignment length";
  Array.map (fun c -> coarse_assignment.(c)) t.node_map
